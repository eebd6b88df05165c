"""Independent oracles for the property and acceptance suites.

Everything here re-derives expected results by exhaustive enumeration or
brute force, sharing no code path with the implementation under test.
"""

from __future__ import annotations

import itertools
from random import Random

from dalia.atdp import TaskDeclaration
from dalia.capabilities import Capability, CapabilityId
from dalia.directory import (
    AgentRecord,
    bind_server_capabilities,
    empty_snapshot,
    register_agent,
)
from dalia.discovery import ExecutionContext


# -- feasibility: brute-force firing closure ------------------------------------


def reachable_all_orders(caps: list[Capability], provided: set[str]) -> set[str]:
    """Fire capabilities in every possible order; assert the fixpoint is
    order-independent and return it."""
    results = set()
    for order in itertools.permutations(caps):
        reachable = set(provided)
        fired: set[CapabilityId] = set()
        changed = True
        while changed:
            changed = False
            for cap in order:
                if cap.capability_id in fired:
                    continue
                if all(slot in reachable for slot in cap.inputs):
                    fired.add(cap.capability_id)
                    reachable.update(cap.outputs)
                    changed = True
        results.add(frozenset(reachable))
    assert len(results) == 1, "firing closure must be order-independent"
    return set(next(iter(results)))


def brute_force_feasibility(
    task: TaskDeclaration, catalog: list[Capability], provided: set[str]
) -> tuple[bool, list[CapabilityId], list[str], list[str]]:
    """Re-derive the feasibility verdict from first principles."""
    by_id = {cap.capability_id: cap for cap in catalog}
    missing = sorted(cid for cid in task.capabilities if cid not in by_id)
    present = [by_id[cid] for cid in task.capabilities if cid in by_id]
    produced = {slot for cap in present for slot in cap.outputs}
    uncovered = sorted(slot for slot in task.outputs if slot not in produced)
    reachable = reachable_all_orders(present, provided)
    unreachable = sorted(
        {slot for cap in present for slot in cap.inputs if slot not in reachable}
    )
    feasible = not (missing or uncovered or unreachable)
    return feasible, missing, uncovered, unreachable


# -- planning: exhaustive enumeration of valid single-instantiation graphs -------

# A graph candidate is described implementation-independently as
# (sorted capability-id tuple, edge set of (producer id, consumer id, slot),
# choice trace). The choice trace is the sequence of (slot, deliverer) pairs
# obtained by replaying slot resolution smallest-slot-first over the
# candidate's own nodes; "lexicographically minimal graph" means minimal
# choice trace. At the first step where two candidates' traces differ they
# name different deliverers for the same slot, so trace order is the
# lexicographic order over producer choices.
GraphDescription = tuple[
    tuple[str, ...],
    frozenset[tuple[str, str, str]],
    tuple[tuple[str, str], ...],
]


def replay_choice_trace(
    nodes: list[Capability], source: set[str], task_outputs: tuple[str, ...]
) -> tuple[tuple[str, str], ...]:
    by_id = {cap.capability_id.render(): cap for cap in nodes}
    trace: list[tuple[str, str]] = []
    pending = set(task_outputs)
    processed: set[str] = set()
    while pending:
        slot = min(pending)
        pending.remove(slot)
        processed.add(slot)
        if slot in source:
            continue
        deliverer = min(
            cap.capability_id.render() for cap in nodes if slot in cap.outputs
        )
        trace.append((slot, deliverer))
        for needed in by_id[deliverer].inputs:
            if needed not in processed:
                pending.add(needed)
    return tuple(trace)


def _derive_edges(
    nodes: list[Capability], source: set[str]
) -> frozenset[tuple[str, str, str]] | None:
    """Each consumed slot gets exactly one edge from the smallest-id producer;
    None when some consumed slot has no producer."""
    edges = set()
    for consumer in nodes:
        for slot in consumer.inputs:
            if slot in source:
                continue
            producers = sorted(
                cap.capability_id.render() for cap in nodes if slot in cap.outputs
            )
            if not producers:
                return None
            edges.add((producers[0], consumer.capability_id.render(), slot))
    return frozenset(edges)


def _is_acyclic(ids: list[str], edges: frozenset[tuple[str, str, str]]) -> bool:
    indegree = {nid: 0 for nid in ids}
    succs: dict[str, list[str]] = {nid: [] for nid in ids}
    for producer, consumer, _slot in edges:
        indegree[consumer] += 1
        succs[producer].append(consumer)
    queue = [nid for nid in ids if indegree[nid] == 0]
    seen = 0
    while queue:
        nid = queue.pop()
        seen += 1
        for succ in succs[nid]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                queue.append(succ)
    return seen == len(ids)


def _all_contribute(
    nodes: list[Capability],
    edges: frozenset[tuple[str, str, str]],
    task_outputs: tuple[str, ...],
    source: set[str],
) -> bool:
    """Every node must reach a task output: either it is the (smallest-id)
    deliverer of a task output or it feeds a contributing node."""
    useful: set[str] = set()
    for slot in task_outputs:
        if slot in source:
            continue
        deliverers = sorted(
            cap.capability_id.render() for cap in nodes if slot in cap.outputs
        )
        if not deliverers:
            return False  # uncovered output: not a valid candidate at all
        useful.add(deliverers[0])
    changed = True
    while changed:
        changed = False
        for producer, consumer, _slot in edges:
            if consumer in useful and producer not in useful:
                useful.add(producer)
                changed = True
    return useful == {cap.capability_id.render() for cap in nodes}


def enumerate_valid_graphs(
    pool: list[Capability], source: set[str], task_outputs: tuple[str, ...]
) -> list[GraphDescription]:
    """All valid single-instantiation graphs over the pool."""
    valid: list[GraphDescription] = []
    for size in range(len(pool) + 1):
        for subset in itertools.combinations(pool, size):
            nodes = list(subset)
            covered = {slot for cap in nodes for slot in cap.outputs} | source
            if any(slot not in covered for slot in task_outputs):
                continue
            edges = _derive_edges(nodes, source)
            if edges is None:
                continue
            ids = sorted(cap.capability_id.render() for cap in nodes)
            if not _is_acyclic(ids, edges):
                continue
            if not _all_contribute(nodes, edges, task_outputs, source):
                continue
            trace = replay_choice_trace(nodes, source, task_outputs)
            valid.append((tuple(ids), edges, trace))
    return valid


def minimal_graph(valid: list[GraphDescription]) -> GraphDescription:
    return min(valid, key=lambda description: description[2])


# -- execution order: exhaustive topological orders -------------------------------


def all_topological_orders(
    node_ids: list[int], edges: list[tuple[int, int]]
) -> list[list[int]]:
    preds: dict[int, set[int]] = {nid: set() for nid in node_ids}
    for frm, to in edges:
        preds[to].add(frm)

    orders: list[list[int]] = []

    def extend(prefix: list[int], remaining: set[int]) -> None:
        if not remaining:
            orders.append(list(prefix))
            return
        for nid in sorted(remaining):
            if preds[nid] <= set(prefix):
                prefix.append(nid)
                extend(prefix, remaining - {nid})
                prefix.pop()

    extend([], set(node_ids))
    return orders


def cyclic_core(node_ids: list[int], edges: list[tuple[int, int]]) -> set[int]:
    """Nodes left after repeatedly removing every node without incoming edges."""
    remaining = set(node_ids)
    while True:
        targets = {to for frm, to in edges if frm in remaining and to in remaining}
        sources = remaining - targets
        if not sources:
            return remaining
        remaining -= sources


# -- random instance generation ----------------------------------------------------

SLOTS = [f"s{i}" for i in range(8)]
NAMESPACES = ["alpha", "beta", "gamma"]
NAMES = ["one", "two", "three", "four", "five", "six"]
FACTS = [f"f{i}" for i in range(4)]


def random_capability(rng: Random, cid: CapabilityId, with_facts: bool) -> Capability:
    slots = list(SLOTS)
    rng.shuffle(slots)
    n_inputs = rng.randint(0, 3)
    n_outputs = rng.randint(1, 2)
    inputs = tuple(sorted(slots[:n_inputs]))
    outputs = tuple(sorted(slots[n_inputs : n_inputs + n_outputs]))
    preconditions: tuple[str, ...] = ()
    postconditions: tuple[str, ...] = ()
    if with_facts and rng.random() < 0.4:
        preconditions = tuple(sorted(rng.sample(FACTS, rng.randint(1, 2))))
    if with_facts and rng.random() < 0.4:
        postconditions = tuple(sorted(rng.sample(FACTS, rng.randint(1, 2))))
    return Capability(
        capability_id=cid,
        role=rng.choice(["retrieval", "transform", "transaction"]),
        domain=rng.choice(["food", "travel", "ops"]),
        inputs=inputs,
        outputs=outputs,
        preconditions=preconditions,
        postconditions=postconditions,
    )


def random_instance(rng: Random, with_facts: bool = False) -> ExecutionContext:
    """A small random sealed context: ≤6 capabilities, ≤3 agents, ≤2 tasks."""
    n_caps = rng.randint(1, 6)
    ids = [CapabilityId(ns, name) for ns in NAMESPACES for name in NAMES]
    rng.shuffle(ids)
    caps = [random_capability(rng, cid, with_facts) for cid in ids[:n_caps]]

    server_ids = ["server_a", "server_b"][: rng.randint(1, 2)]
    providers = {cap.capability_id: rng.choice(server_ids) for cap in caps}

    snapshot = empty_snapshot(origin="fuzz")
    for server_id in server_ids:
        bound = sorted(cid for cid, sid in providers.items() if sid == server_id)
        snapshot = bind_server_capabilities(snapshot, server_id, bound)
    n_agents = rng.randint(0, 3)
    for index in range(n_agents):
        accessible = tuple(
            sid for sid in server_ids if rng.random() < 0.7
        ) or (rng.choice(server_ids),)
        snapshot = register_agent(
            snapshot,
            AgentRecord(
                agent_id=f"Agent{index}",
                role="task_executor",
                domains=("fuzz",),
                accessible_servers=accessible,
            ),
        )

    tasks = {}
    n_tasks = rng.randint(1, 2)
    for index in range(n_tasks):
        pool = rng.sample(caps, rng.randint(1, min(5, len(caps))))
        produced = sorted({slot for cap in pool for slot in cap.outputs})
        n_outputs = rng.randint(1, min(2, len(produced)))
        outputs = tuple(rng.sample(produced, n_outputs))
        if rng.random() < 0.15:
            outputs = outputs + ("unheard_of",)
        task_id = CapabilityId("task", NAMES[index])
        tasks[task_id] = TaskDeclaration(
            task_id=task_id,
            intent=f"intent_{NAMES[index]}",
            inputs=tuple(sorted(rng.sample(SLOTS, rng.randint(0, 3)))),
            outputs=outputs,
            capabilities=tuple(cap.capability_id for cap in pool),
        )

    provided = frozenset(rng.sample(SLOTS, rng.randint(0, 4)))
    return ExecutionContext(
        capabilities={cap.capability_id: (cap, providers[cap.capability_id]) for cap in caps},
        tasks=tasks,
        directory=snapshot,
        provided_inputs=provided,
        server_routes={},
    )
