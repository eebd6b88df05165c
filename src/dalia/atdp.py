"""Task discovery: task declarations and feasibility against a capability catalog.

A task declaration names a higher-level objective, the slots it consumes and
delivers, and the exact pool of capability ids that may be composed to achieve
it. Documents travel as JSON with a fixed field order:

    {"task_id": "restaurant.booking",
     "intent": "book_restaurant",
     "inputs": ["location", "date", "party_size"],
     "outputs": ["booking_confirmation"],
     "capabilities": ["restaurant.search", "restaurant.reserve"]}
"""

from __future__ import annotations

from typing import Any, Iterable

from .capabilities import (
    DOCUMENT_MEMO,
    Capability,
    CapabilityId,
    check_fields,
    check_token_list,
    is_identifier,
    listed,
    load_document,
    match_capability_ids,
    parse_capability_id,
    parser_problems,
    raise_aggregated,
)
from .errors import _Value

TASK_FIELDS = ("task_id", "intent", "inputs", "outputs", "capabilities")


class TaskDeclaration(_Value):
    """A declared objective and the capability pool that can realize it."""

    def __init__(self, task_id: CapabilityId, intent: str, inputs: tuple[str, ...],
                 outputs: tuple[str, ...], capabilities: tuple[CapabilityId, ...]):
        object.__setattr__(self, "task_id", task_id)
        object.__setattr__(self, "intent", intent)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "capabilities", capabilities)

    def to_json(self) -> dict:
        return {
            "task_id": self.task_id,
            "intent": self.intent,
            "inputs": listed(self.inputs),
            "outputs": listed(self.outputs),
            "capabilities": listed(self.capabilities),
        }


class FeasibilityReport(_Value):
    """Whether a task can be grounded, and every defect found if not."""

    def __init__(self, feasible: bool, missing_capabilities: tuple[CapabilityId, ...],
                 uncovered_outputs: tuple[str, ...], unreachable_inputs: tuple[str, ...]):
        object.__setattr__(self, "feasible", feasible)
        object.__setattr__(self, "missing_capabilities", missing_capabilities)
        object.__setattr__(self, "uncovered_outputs", uncovered_outputs)
        object.__setattr__(self, "unreachable_inputs", unreachable_inputs)

    @property
    def diagnostics(self) -> tuple[str, ...]:
        """One line per defect, in the order of the three lists."""
        return (
            *(f"capability {cid} not in catalog" for cid in self.missing_capabilities),
            *(f"task output {slot!r} produced by no pool capability" for slot in self.uncovered_outputs),
            *(f"input slot {slot!r} never becomes reachable" for slot in self.unreachable_inputs),
        )


def parse_task(document: Any) -> TaskDeclaration:
    """Parse and validate one task declaration; errors aggregate every rule
    broken. Valid documents are kept in ``DOCUMENT_MEMO``."""
    data = load_document(document, "task")
    return DOCUMENT_MEMO.parse(
        "task", data.get("task_id"), data, lambda: _parse_fields(data), TaskDeclaration.to_json
    )


def task_problems(task: TaskDeclaration) -> list[str]:
    """Every rule ``parse_task`` checks, run on ``task.to_json()``."""
    return parser_problems(_parse_fields, task.to_json())


def _parse_fields(data: dict) -> TaskDeclaration:
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
        elif raw and (parsed := match_capability_ids(raw)) is not None:
            capability_ids = parsed
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
    assert task_id is not None
    return TaskDeclaration(
        task_id=task_id,
        intent=data["intent"],
        inputs=tuple(lists["inputs"]),
        outputs=tuple(lists["outputs"]),
        capabilities=tuple(capability_ids),
    )


def check_feasibility(
    task: TaskDeclaration,
    catalog: Iterable[Capability],
    provided_inputs: Iterable[str],
) -> FeasibilityReport:
    """Decide whether ``task`` can be grounded in ``catalog``.

    Three independent defect classes are computed:

    * missing_capabilities: pool members absent from the catalog;
    * uncovered_outputs: task outputs no present pool member produces;
    * unreachable_inputs: inputs of present pool members that the slot
      closure (fire a capability once all its inputs are reachable, starting
      from ``provided_inputs``, to fixpoint) never reaches.

    The task is feasible iff all three lists are empty. Pure function; safe
    to call concurrently.
    """
    by_id = {cap.capability_id: cap for cap in catalog}

    missing = sorted(cid for cid in task.capabilities if cid not in by_id)
    present = [by_id[cid] for cid in task.capabilities if cid in by_id]

    produced = {slot for cap in present for slot in cap.outputs}
    uncovered = sorted(slot for slot in task.outputs if slot not in produced)

    # Horn forward chaining (Dowling & Gallier 1984), linear in the pool's size:
    # each member counts its unreached inputs; each slot is reached once.
    reachable = set(provided_inputs)
    unmet = [set(cap.inputs) - reachable for cap in present]
    waiting: dict[str, list[int]] = {}
    for index, needs in enumerate(unmet):
        for slot in needs:
            waiting.setdefault(slot, []).append(index)
    counts = list(map(len, unmet))
    queue = [slot for cap, needs in zip(present, unmet) if not needs for slot in cap.outputs]
    while queue:
        slot = queue.pop()
        if slot in reachable:
            continue
        reachable.add(slot)
        for index in waiting.get(slot, ()):
            counts[index] -= 1
            if not counts[index]:
                queue.extend(present[index].outputs)
    unreachable = sorted(
        {slot for cap in present for slot in cap.inputs if slot not in reachable}
    )
    return FeasibilityReport(
        feasible=not (missing or uncovered or unreachable),
        missing_capabilities=tuple(missing),
        uncovered_outputs=tuple(uncovered),
        unreachable_inputs=tuple(unreachable),
    )
