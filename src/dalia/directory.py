"""Federated agent directory.

The directory is a structured index: it links agents to the servers they can
access and servers to the capability ids they declare. It never stores
capability bodies. What an agent can execute is always a derived view
(the union of its servers' bound capability ids), never persisted state.

Snapshots are immutable values; every mutation returns a new snapshot.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Iterable

from .canonical import canonical_bytes
from .capabilities import (
    DOCUMENT_MEMO,
    CapabilityId,
    is_identifier,
    listed,
    load_document,
    match_capability_ids,
    parse_capability_id,
    parser_problems,
)
from .errors import (
    DirectoryError,
    InvalidCapabilityId,
    InvalidRecord,
    InvalidServerId,
    MalformedDocument,
    UnknownAgent,
    _Value,
)

AGENT_RECORD_FIELDS = ("agent_id", "role", "domains", "accessible_servers")
SNAPSHOT_FIELDS = ("origin", "agents", "server_capabilities")


class AgentRecord(_Value):
    """One directory entry: an execution entity and the servers it may use."""

    def __init__(self, agent_id: str, role: str, domains: tuple[str, ...],
                 accessible_servers: tuple[str, ...]):
        object.__setattr__(self, "agent_id", agent_id)
        object.__setattr__(self, "role", role)
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "accessible_servers", accessible_servers)

    def to_json(self) -> dict:
        return {
            "agent_id": self.agent_id,
            "role": self.role,
            "domains": listed(self.domains),
            "accessible_servers": listed(self.accessible_servers),
        }


class DirectorySnapshot(_Value):
    """Immutable directory state: agents, server bindings, and an origin id."""

    def __init__(self, agents: dict[str, AgentRecord],
                 server_capabilities: dict[str, tuple[CapabilityId, ...]], origin: str):
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "server_capabilities", server_capabilities)
        object.__setattr__(self, "origin", origin)

    @cached_property
    def _eligible_agents(self) -> dict[CapabilityId, list[str]]:
        """Capability id -> eligible agent ids, in sorted agent order."""
        index: dict[CapabilityId, list[str]] = {}
        for agent_id in sorted(self.agents):
            for server_id in self.agents[agent_id].accessible_servers:
                for cid in self.server_capabilities.get(server_id, ()):
                    eligible = index.setdefault(cid, [])
                    # one agent at a time: a repeat via another server is the last entry
                    if not eligible or eligible[-1] != agent_id:
                        eligible.append(agent_id)
        return index

    @cached_property
    def _executable(self) -> dict[str, tuple[CapabilityId, ...]]:
        """The derived view, agent id -> the ids it can execute, sorted and
        deduplicated, keys sorted: built once per value by the first
        ``snapshot_to_json`` or ``executable_capabilities``, never by a load.
        Callers copy them."""
        executable = {}
        for agent_id, record in sorted(self.agents.items()):
            servers = (self.server_capabilities.get(sid, ()) for sid in record.accessible_servers)
            executable[agent_id] = tuple(sorted(set().union(*servers)))
        return executable

    @cached_property
    def _saved(self) -> bytes:
        """``snapshot_to_json`` encoded: built by the first ``save_snapshot``."""
        return canonical_bytes(snapshot_to_json(self))


def empty_snapshot(origin: str = "directory") -> DirectorySnapshot:
    return DirectorySnapshot(agents={}, server_capabilities={}, origin=origin)


def record_problems(record: AgentRecord) -> list[str]:
    problems = []
    if not isinstance(record.agent_id, str) or not record.agent_id:
        problems.append("agent_id must be a non-empty string")
    if not isinstance(record.role, str):
        problems.append("role must be a string")
    for domain in record.domains:
        if not isinstance(domain, str):
            problems.append(f"domain tag must be a string, got {domain!r}")
    seen: set[str] = set()
    for server_id in record.accessible_servers:
        if not is_identifier(server_id):
            problems.append(f"not a valid server id: {server_id!r}")
        if server_id in seen:
            problems.append(f"duplicate accessible server {server_id!r}")
        seen.add(server_id)
    return problems


def parse_agent_record(document: Any) -> AgentRecord:
    """Build an AgentRecord from its JSON form; raises InvalidRecord.

    The shape problems come first; when every field is present and both
    lists hold strings, the built record's problems follow them.
    """
    if not isinstance(document, dict):
        raise InvalidRecord(["agent record must be an object"])
    missing = [f"missing field {name!r}" for name in AGENT_RECORD_FIELDS if name not in document]
    unexpected = [
        f"unexpected field {name!r}" for name in sorted(set(document) - set(AGENT_RECORD_FIELDS))
    ]
    bad_lists = []
    for name in ("domains", "accessible_servers"):
        value = document.get(name)
        if name in document and (
            not isinstance(value, list) or any(not isinstance(v, str) for v in value)
        ):
            bad_lists.append(f"{name} must be a list of strings")
    problems = missing + unexpected + bad_lists
    if not missing and not bad_lists:
        record = AgentRecord(
            agent_id=document["agent_id"],
            role=document["role"],
            domains=tuple(document["domains"]),
            accessible_servers=tuple(document["accessible_servers"]),
        )
        problems += record_problems(record)
    if problems:
        raise InvalidRecord(problems)
    return record


def register_agent(snapshot: DirectorySnapshot, record: AgentRecord) -> DirectorySnapshot:
    """Add or wholesale-replace an agent record.

    Servers the record references but the snapshot does not know yet are
    added with empty capability bindings.
    """
    problems = record_problems(record)
    if problems:
        raise InvalidRecord(problems)
    agents = dict(snapshot.agents)
    agents[record.agent_id] = record
    server_capabilities = dict(snapshot.server_capabilities)
    for server_id in record.accessible_servers:
        server_capabilities.setdefault(server_id, ())
    return DirectorySnapshot(agents, server_capabilities, snapshot.origin)


def remove_agent(snapshot: DirectorySnapshot, agent_id: str) -> DirectorySnapshot:
    """Drop an agent; absent ids are a no-op. Server bindings are retained."""
    if agent_id not in snapshot.agents:
        return snapshot
    agents = {aid: rec for aid, rec in snapshot.agents.items() if aid != agent_id}
    return DirectorySnapshot(agents, dict(snapshot.server_capabilities), snapshot.origin)


def bind_server_capabilities(
    snapshot: DirectorySnapshot,
    server_id: str,
    capability_ids: Iterable[str],
) -> DirectorySnapshot:
    """Replace the capability ids declared by ``server_id``."""
    if not is_identifier(server_id):
        raise InvalidServerId(server_id)
    parsed: list[CapabilityId] = []
    for cid in capability_ids:
        cid, problems = parse_capability_id(cid)
        if problems:
            raise InvalidCapabilityId("; ".join(problems))
        parsed.append(cid)
    if len(set(parsed)) != len(parsed):
        raise InvalidCapabilityId(f"duplicate capability ids in binding for {server_id!r}")
    server_capabilities = dict(snapshot.server_capabilities)
    server_capabilities[server_id] = tuple(parsed)
    return DirectorySnapshot(dict(snapshot.agents), server_capabilities, snapshot.origin)


def executable_capabilities(snapshot: DirectorySnapshot, agent_id: str) -> list[CapabilityId]:
    """Derived view: what ``agent_id`` can execute, sorted, deduplicated."""
    if agent_id not in snapshot.agents:
        raise UnknownAgent(agent_id)
    return list(snapshot._executable[agent_id])


def resolve_capability(snapshot: DirectorySnapshot, capability_id: CapabilityId) -> list[str]:
    """All agents eligible to execute ``capability_id``, sorted by agent id.

    Read from an index derived per snapshot on first use; like the derived
    executable view it is never persisted or compared (not a field).
    """
    return list(snapshot._eligible_agents.get(capability_id, ()))


def is_eligible(snapshot: DirectorySnapshot, agent_id: str, capability_id: CapabilityId) -> bool:
    """Whether ``agent_id`` is among ``resolve_capability``'s agents, read
    from the same index without copying it."""
    return agent_id in snapshot._eligible_agents.get(capability_id, ())


def merge(snapshots: list[DirectorySnapshot]) -> DirectorySnapshot:
    """Federate snapshots under an explicit precedence order.

    On agent collision the record from the earliest snapshot wins; server
    bindings are unioned (sorted). The result carries a synthesized
    federation origin.
    """
    if not snapshots:
        raise DirectoryError("merge requires at least one snapshot")
    agents: dict[str, AgentRecord] = {}
    server_capabilities: dict[str, tuple[CapabilityId, ...]] = {}
    for snapshot in snapshots:
        for agent_id, record in snapshot.agents.items():
            agents.setdefault(agent_id, record)
        for server_id, cids in snapshot.server_capabilities.items():
            if server_id in server_capabilities:
                # collision: sorted set-union
                union = set(server_capabilities[server_id]) | set(cids)
                server_capabilities[server_id] = tuple(sorted(union))
            else:
                server_capabilities[server_id] = cids
    origin = "federation(" + ",".join(s.origin for s in snapshots) + ")"
    return DirectorySnapshot(
        agents=agents,
        server_capabilities=server_capabilities,
        origin=origin,
    )


def _stored_form(snapshot: DirectorySnapshot) -> dict:
    """The fields ``load_snapshot`` reads (``SNAPSHOT_FIELDS``), maps sorted
    by key. Every call builds fresh containers."""
    return {
        "origin": snapshot.origin,
        "agents": {
            agent_id: snapshot.agents[agent_id].to_json()
            for agent_id in sorted(snapshot.agents)
        },
        "server_capabilities": {
            server_id: listed(ids) for server_id, ids in sorted(snapshot.server_capabilities.items())
        },
    }


def snapshot_to_json(snapshot: DirectorySnapshot) -> dict:
    """Canonical persisted form: the stored fields plus the derived view.

    ``derived_executable_capabilities`` (agent id -> the ids it can execute,
    sorted and deduplicated) is recomputable and ignored on load; it is
    emitted for human inspection only. Every call builds fresh containers.
    """
    document = _stored_form(snapshot)
    document["derived_executable_capabilities"] = {
        agent_id: list(ids) for agent_id, ids in snapshot._executable.items()
    }
    return document


def save_snapshot(snapshot: DirectorySnapshot) -> bytes:
    return snapshot._saved


def load_snapshot(data: Any) -> DirectorySnapshot:
    """Inverse of save_snapshot; every load problem raises MalformedDocument.

    Only the fields read here (``SNAPSHOT_FIELDS``) count: valid snapshots
    are kept in ``DOCUMENT_MEMO`` by origin with those fields, in their
    stored form, and a document's other fields are never compared.
    """
    data = load_document(data, "snapshot")
    stored = {name: data[name] for name in SNAPSHOT_FIELDS if name in data}
    return DOCUMENT_MEMO.parse(
        "snapshot", data.get("origin"), stored, lambda: _load_fields(stored), _stored_form
    )


def snapshot_problems(snapshot: DirectorySnapshot) -> list[str]:
    """Every rule ``load_snapshot`` checks, run on the snapshot's stored form."""
    return parser_problems(_load_fields, _stored_form(snapshot))


def _load_fields(data: dict) -> DirectorySnapshot:
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
        parsed = match_capability_ids(cids)
        if parsed is None:  # word the first defect
            for text in cids:
                id_problems = parse_capability_id(text)[1]
                if id_problems:
                    raise MalformedDocument([f"server {server_id!r}: {v}" for v in id_problems])
            raise MalformedDocument([f"duplicate capability ids bound to {server_id!r}"])
        server_capabilities[server_id] = tuple(parsed)

    for agent_id, record in agents.items():
        for server_id in record.accessible_servers:
            if server_id not in server_capabilities:
                raise MalformedDocument(
                    [f"agent {agent_id!r} references unknown server {server_id!r}"]
                )

    return DirectorySnapshot(agents, server_capabilities, data["origin"])
