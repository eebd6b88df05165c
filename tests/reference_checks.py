"""The document checks as they were written entry by entry, before valid
documents were checked in one pass: the reference that
``test_one_pass_checks.py`` holds the package's parsers to.

Each function is the package's from before that change, and words every
problem as the package does, except ``is_identifier``: it spells the grammar
out character by character, so that the reference shares no regex with the
package. Only helpers that no such change touched (``check_fields``,
``raise_aggregated``, ``parse_agent_record`` and the value classes) are
imported.
"""

from __future__ import annotations

from typing import Any

from dalia.atdp import TASK_FIELDS, TaskDeclaration
from dalia.capabilities import (
    CAPABILITY_FIELDS,
    Capability,
    CapabilityId,
    check_fields,
    raise_aggregated,
)
from dalia.directory import SNAPSHOT_FIELDS, AgentRecord, DirectorySnapshot, parse_agent_record
from dalia.errors import InvalidRecord, MalformedDocument

_IDENTIFIER_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_")


def is_identifier(value: Any) -> bool:
    """``[a-z][a-z0-9_]*``, spelled out character by character."""
    return (
        isinstance(value, str)
        and value[:1].isascii()
        and value[:1].islower()
        and set(value) <= _IDENTIFIER_CHARS
    )


def parse_capability_id(
    text: Any, label: str = "capability_id"
) -> tuple[CapabilityId | None, list[str]]:
    if not isinstance(text, str):
        return None, [f"{label} must be a string, got {type(text).__name__}"]
    segments = text.split(".")
    if len(segments) != 2:
        return None, [f"{label} must have exactly two dot-separated segments: {text!r}"]
    problems = [
        f"{label} {part} is not a lowercase identifier: {segment!r}"
        for part, segment in zip(("namespace", "name"), segments)
        if not is_identifier(segment)
    ]
    return (None if problems else CapabilityId(*segments)), problems


def check_token_list(
    value: Any, label: str, schema_problems: list[str], invariant_problems: list[str]
) -> list[str]:
    if not isinstance(value, list):
        schema_problems.append(f"{label} must be a list, got {type(value).__name__}")
        return []
    tokens = []
    for index, item in enumerate(value):
        if not isinstance(item, str):
            schema_problems.append(f"{label}[{index}] must be a string")
        elif not is_identifier(item):
            invariant_problems.append(
                f"{label}[{index}] is not a lowercase identifier: {item!r}"
            )
        else:
            tokens.append(item)
    if len(set(tokens)) < len(tokens):
        seen: set[str] = set()
        for token in tokens:
            if token in seen:
                invariant_problems.append(f"duplicate entry {token!r} in {label}")
            seen.add(token)
    return tokens


def parse_capability_fields(data: dict) -> Capability:
    schema = check_fields(data, CAPABILITY_FIELDS, "capability")
    capability_id, invariant = None, []
    if "capability_id" in data:
        capability_id, invariant = parse_capability_id(data["capability_id"])

    for tag in ("role", "domain"):
        if tag in data and not isinstance(data[tag], str):
            schema.append(f"{tag} must be a string, got {type(data[tag]).__name__}")

    lists: dict[str, list[str]] = {}
    for name in ("inputs", "outputs", "preconditions", "postconditions"):
        if name in data:
            lists[name] = check_token_list(data[name], name, schema, invariant)

    if {"inputs", "outputs", "postconditions"} <= lists.keys():
        if not set(lists["inputs"]).isdisjoint(lists["outputs"]):
            overlap = sorted(set(lists["inputs"]).intersection(lists["outputs"]))
            invariant += [f"slot {slot!r} appears in both inputs and outputs" for slot in overlap]
        if not lists["outputs"] and not lists["postconditions"]:
            invariant.append("no observable effect: outputs and postconditions both empty")

    raise_aggregated(schema, invariant)
    tokens = (tuple(lists[name]) for name in CAPABILITY_FIELDS[3:])
    return Capability(capability_id, data["role"], data["domain"], *tokens)


def parse_task_fields(data: dict) -> TaskDeclaration:
    schema = check_fields(data, TASK_FIELDS, "task")
    task_id, invariant = None, []
    if "task_id" in data:
        task_id, invariant = parse_capability_id(data["task_id"], label="task_id")

    if "intent" in data:
        if not isinstance(data["intent"], str):
            schema.append(f"intent must be a string, got {type(data['intent']).__name__}")
        elif not is_identifier(data["intent"]):
            invariant.append(f"intent is not a lowercase identifier: {data['intent']!r}")

    lists: dict[str, list[str]] = {}
    for name in ("inputs", "outputs"):
        if name in data:
            lists[name] = check_token_list(data[name], name, schema, invariant)
    if "outputs" in lists and not lists["outputs"]:
        invariant.append("outputs must be non-empty")

    capability_ids: list[CapabilityId] = []
    if "capabilities" in data:
        raw = data["capabilities"]
        if not isinstance(raw, list):
            schema.append(f"capabilities must be a list, got {type(raw).__name__}")
        else:
            for index, item in enumerate(raw):
                cid, id_problems = parse_capability_id(item, label=f"capabilities[{index}]")
                invariant += id_problems
                if cid is not None:
                    capability_ids.append(cid)
            if not raw:
                invariant.append("empty capability set: a task must name at least one capability")
            seen: set[CapabilityId] = set()
            for cid in capability_ids:
                if cid in seen:
                    invariant.append(f"duplicate capability {cid} in capabilities")
                seen.add(cid)

    raise_aggregated(schema, invariant)
    return TaskDeclaration(
        task_id=task_id,
        intent=data["intent"],
        inputs=tuple(lists["inputs"]),
        outputs=tuple(lists["outputs"]),
        capabilities=tuple(capability_ids),
    )


def load_snapshot_fields(data: dict) -> DirectorySnapshot:
    problems = [f"missing field {name!r}" for name in SNAPSHOT_FIELDS if name not in data]
    if problems:
        raise MalformedDocument(problems)
    if not isinstance(data["origin"], str):
        raise MalformedDocument(["origin must be a string"])
    if not isinstance(data["agents"], dict) or not isinstance(data["server_capabilities"], dict):
        raise MalformedDocument(["agents and server_capabilities must be objects"])

    agents: dict[str, AgentRecord] = {}
    for agent_id, doc in data["agents"].items():
        try:
            record = parse_agent_record(doc)
        except InvalidRecord as exc:
            raise MalformedDocument(
                [f"agent {agent_id!r}: {v}" for v in exc.violations]
            ) from exc
        if record.agent_id != agent_id:
            raise MalformedDocument(
                [f"agent key {agent_id!r} does not match record id {record.agent_id!r}"]
            )
        agents[agent_id] = record

    server_capabilities: dict[str, tuple[CapabilityId, ...]] = {}
    for server_id, cids in data["server_capabilities"].items():
        if not is_identifier(server_id):
            raise MalformedDocument([f"not a valid server id: {server_id!r}"])
        if not isinstance(cids, list):
            raise MalformedDocument([f"binding for {server_id!r} must be a list"])
        parsed = []
        for text in cids:
            cid, id_problems = parse_capability_id(text)
            if id_problems:
                raise MalformedDocument([f"server {server_id!r}: {v}" for v in id_problems])
            parsed.append(cid)
        if len(set(parsed)) != len(parsed):
            raise MalformedDocument([f"duplicate capability ids bound to {server_id!r}"])
        server_capabilities[server_id] = tuple(parsed)

    for agent_id, record in agents.items():
        for server_id in record.accessible_servers:
            if server_id not in server_capabilities:
                raise MalformedDocument(
                    [f"agent {agent_id!r} references unknown server {server_id!r}"]
                )

    return DirectorySnapshot(agents, server_capabilities, data["origin"])
