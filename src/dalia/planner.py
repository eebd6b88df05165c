"""Deterministic plan synthesis.

Resolves a structured goal to a declared task, builds a capability-grounded
task graph by backward chaining over the task's own capability pool, assigns
agents from the directory, and validates the result.

Everything here is a total order away from ambiguity: needed slots are
processed lexicographically, producer selection takes the lexicographically
smallest capability id, agent assignment takes the lexicographically
smallest eligible agent. For a fixed (goal, context) the emitted graph is
byte-identical across runs.

All operations are pure functions over immutable inputs.
"""

from __future__ import annotations

import heapq
from collections import Counter
from functools import cached_property
from typing import Any

from .atdp import TaskDeclaration
from .canonical import canonical_bytes
from .capabilities import (
    Capability,
    CapabilityId,
    check_fields,
    load_document,
    parse_capability_id,
    slot_known_fact,
)
from .directory import is_eligible, resolve_capability
from .discovery import ExecutionContext
from .errors import (
    AmbiguousIntent,
    CycleDetected,
    MalformedDocument,
    NoEligibleAgent,
    NoSuchTask,
    PreconditionUnschedulable,
    SchemaViolation,
    UnproducibleSlot,
    ValidationReport,
    _Value,
)


class Goal(_Value):
    """Structured request: an intent, slot bindings, and initial facts."""

    def __init__(self, intent: str, bindings: dict[str, Any],
                 initial_facts: frozenset[str] = frozenset()):
        object.__setattr__(self, "intent", intent)
        object.__setattr__(self, "bindings", bindings)
        object.__setattr__(self, "initial_facts", initial_facts)

    def initial_fact_set(self) -> set[str]:
        return set(self.initial_facts) | {slot_known_fact(s) for s in self.bindings}


class Node(_Value):
    def __init__(self, node_id: int, capability_id: CapabilityId, agent_id: str, server_id: str):
        object.__setattr__(self, "node_id", node_id)
        object.__setattr__(self, "capability_id", capability_id)
        object.__setattr__(self, "agent_id", agent_id)
        object.__setattr__(self, "server_id", server_id)

    def to_json(self) -> dict:
        return {
            "node_id": self.node_id,
            "capability_id": self.capability_id.render(),
            "agent_id": self.agent_id,
            "server_id": self.server_id,
        }


class Edge(_Value):
    def __init__(self, from_node: int, to_node: int, slot: str):
        object.__setattr__(self, "from_node", from_node)
        object.__setattr__(self, "to_node", to_node)
        object.__setattr__(self, "slot", slot)

    def to_json(self) -> dict:
        return {"from_node": self.from_node, "to_node": self.to_node, "slot": self.slot}


class TaskGraph(_Value):
    """Directed acyclic plan: capability executions linked by named data slots."""

    def __init__(self, task_id: CapabilityId, nodes: tuple[Node, ...], edges: tuple[Edge, ...],
                 source_bindings: tuple[str, ...]):
        object.__setattr__(self, "task_id", task_id)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "source_bindings", source_bindings)

    def to_json(self) -> dict:
        return {
            "task_id": self.task_id.render(),
            "nodes": [node.to_json() for node in self.nodes],
            "edges": [edge.to_json() for edge in self.edges],
            "source_bindings": list(self.source_bindings),
        }

    @cached_property
    def _nodes_by_id(self) -> dict[int, Node]:
        # reversed, so that the first node wins on a duplicate id
        return {node.node_id: node for node in reversed(self.nodes)}

    def node(self, node_id: int) -> Node:
        """The first node carrying ``node_id``; raises KeyError if none does."""
        return self._nodes_by_id[node_id]

    @cached_property
    def ordering(self) -> tuple[list[int], list[CapabilityId]]:
        """(order, leftover capability ids), computed once per graph; callers
        must not mutate it. Ready nodes pop by (rendered capability id, node
        id); a non-empty leftover is a cycle through those capabilities."""
        by_id = {node.node_id: node for node in self.nodes}
        key = {nid: (node.capability_id.render(), nid) for nid, node in by_id.items()}
        indegree = dict.fromkeys(by_id, 0)
        successors: dict[int, list[int]] = {nid: [] for nid in by_id}
        for edge in self.edges:
            # Edges with dangling endpoints are reported by structural checks.
            if edge.from_node in indegree and edge.to_node in indegree:
                indegree[edge.to_node] += 1
                successors[edge.from_node].append(edge.to_node)

        ready = [key[nid] for nid, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)

        order: list[int] = []
        while ready:
            _, nid = heapq.heappop(ready)
            order.append(nid)
            for succ in successors[nid]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, key[succ])

        ordered = set(order)
        leftover = [by_id[nid].capability_id for nid in indegree if nid not in ordered]
        return order, leftover


def resolve_goal(goal: Goal, ctx: ExecutionContext) -> TaskDeclaration:
    """The unique declared task whose intent matches the goal's exactly."""
    matches = sorted(
        (task_id for task_id, task in ctx.tasks.items() if task.intent == goal.intent)
    )
    if not matches:
        raise NoSuchTask(goal.intent)
    if len(matches) > 1:
        raise AmbiguousIntent(goal.intent, [tid.render() for tid in matches])
    return ctx.tasks[matches[0]]


def synthesize_graph(task: TaskDeclaration, goal: Goal, ctx: ExecutionContext) -> TaskGraph:
    """Backward-chain over the task's capability pool only.

    Needed slots start at the task's outputs and are processed smallest
    first; each slot not bound by the goal is resolved to the pool producer
    with the smallest capability id, instantiated at most once per graph.
    Agent and server assignment happen later (assign_agents).
    """
    # one lookup per id: a task's ids equal the context's keys but are other objects
    found = map(ctx.capabilities.get, task.capabilities)
    pool = [entry[0] for entry in found if entry is not None]
    producer_of: dict[str, Capability] = {}  # the smallest id producing each slot
    # rendered ids sort as the ids do (see CapabilityId), and compare in C
    for cap in sorted(pool, key=lambda c: c.capability_id.render()):
        for slot in cap.outputs:
            producer_of.setdefault(slot, cap)

    source_bindings = tuple(sorted(goal.bindings))
    source = set(source_bindings)

    nodes: list[Node] = []
    node_of: dict[CapabilityId, int] = {}
    queued = set(task.outputs)  # every slot ever pending; each is processed once
    pending = sorted(queued)

    while pending:
        slot = heapq.heappop(pending)
        if slot in source:
            continue
        chosen = producer_of.get(slot)
        if chosen is None:
            raise UnproducibleSlot(slot)
        if chosen.capability_id not in node_of:
            node_of[chosen.capability_id] = len(nodes)
            nodes.append(Node(len(nodes), chosen.capability_id, agent_id="", server_id=""))
            for needed in chosen.inputs:
                if needed not in queued:
                    queued.add(needed)
                    heapq.heappush(pending, needed)

    edges: list[Edge] = []
    for node in nodes:
        cap = ctx.capability(node.capability_id)
        for slot in cap.inputs:
            if slot in source:
                continue
            edges.append(Edge(node_of[producer_of[slot].capability_id], node.node_id, slot))

    graph = TaskGraph(task.task_id, tuple(nodes), tuple(edges), source_bindings)
    canonical_order(graph)  # raises CycleDetected
    defect = _first_precondition_defect(graph, goal, ctx)
    if defect is not None:
        raise defect
    # kept outside the fields, so validate_graph need not simulate again
    graph.__dict__["_schedulable"] = goal, ctx
    return graph


def canonical_order(graph: TaskGraph) -> list[int]:
    """The unique topological order with the ready set sorted by
    (capability id, node id); raises CycleDetected on a cycle."""
    order, leftover = graph.ordering
    if leftover:
        raise CycleDetected(sorted(cid.render() for cid in leftover))
    return list(order)


def _first_precondition_defect(
    graph: TaskGraph, goal: Goal, ctx: ExecutionContext
) -> PreconditionUnschedulable | None:
    """Simulate the canonical order of an acyclic graph; the error for the
    first precondition that never holds. Undeclared capabilities are skipped:
    structural checks report them."""
    facts = goal.initial_fact_set()
    for node_id in graph.ordering[0]:
        cid = graph.node(node_id).capability_id
        if cid not in ctx.capabilities:
            continue
        cap = ctx.capability(cid)
        for fact in cap.preconditions:
            if fact not in facts:
                return PreconditionUnschedulable(fact, cid.render())
        facts |= cap.effects
    return None


def assign_agents(graph: TaskGraph, ctx: ExecutionContext) -> TaskGraph:
    """Assign each node the smallest eligible agent and its provider server.

    The assigned graph keeps the canonical order and the precondition
    simulation of ``graph``: assignment changes neither node ids, capability
    ids nor edges."""
    nodes = []
    for node in graph.nodes:
        eligible = resolve_capability(ctx.directory, node.capability_id)
        if not eligible:
            raise NoEligibleAgent(node.capability_id.render())
        server_id = ctx.provider(node.capability_id)
        nodes.append(Node(node.node_id, node.capability_id, eligible[0], server_id))
    assigned = TaskGraph(graph.task_id, tuple(nodes), graph.edges, graph.source_bindings)
    assigned.__dict__["ordering"] = graph.ordering
    if "_schedulable" in graph.__dict__:
        assigned.__dict__["_schedulable"] = graph.__dict__["_schedulable"]
    return assigned


def validate_graph(graph: TaskGraph, goal: Goal, ctx: ExecutionContext) -> ValidationReport:
    """Check acyclicity, groundedness, input coverage, and schedulability.

    The canonical order is simulated unless ``synthesize_graph`` already
    simulated this graph's for the same goal and context (objects, not
    equal values); a parsed or tampered graph is always simulated."""
    report = ValidationReport(structural_violations(graph, ctx))

    schedulable = graph.__dict__.get("_schedulable", (None, None))
    if not graph.ordering[1] and (schedulable[0] is not goal or schedulable[1] is not ctx):
        defect = _first_precondition_defect(graph, goal, ctx)
        if defect is not None:
            report.add(str(defect))
    return report


def structural_violations(graph: TaskGraph, ctx: ExecutionContext) -> list[str]:
    """Goal-independent graph defects: cycles, grounding, edge shape, coverage.

    Computed once per (graph, context) and kept on the graph, outside the
    fields, with its context; each caller gets a fresh list."""
    checked = graph.__dict__.get("_structural")
    if checked is None or checked[0] is not ctx:
        checked = graph.__dict__["_structural"] = (ctx, tuple(_structural_defects(graph, ctx)))
    return list(checked[1])


def _structural_defects(graph: TaskGraph, ctx: ExecutionContext) -> list[str]:
    violations: list[str] = []

    node_ids = {node.node_id for node in graph.nodes}
    if len(node_ids) != len(graph.nodes):
        violations.append("duplicate node ids")
    seen_caps: set[CapabilityId] = set()
    for node in graph.nodes:
        if node.capability_id in seen_caps:
            violations.append(
                f"capability {node.capability_id} instantiated more than once"
            )
        seen_caps.add(node.capability_id)

    _, leftover = graph.ordering
    if leftover:
        violations.append(
            "cycle through " + ", ".join(sorted(cid.render() for cid in leftover))
        )

    for node in graph.nodes:
        if node.capability_id not in ctx.capabilities:
            violations.append(
                f"node {node.node_id} references undeclared capability {node.capability_id}"
            )
            continue
        if node.agent_id and not is_eligible(ctx.directory, node.agent_id, node.capability_id):
            violations.append(
                f"node {node.node_id} agent {node.agent_id!r} is not eligible "
                f"for {node.capability_id}"
            )
        if node.server_id and node.server_id != ctx.provider(node.capability_id):
            violations.append(
                f"node {node.node_id} server {node.server_id!r} is not the "
                f"provider of {node.capability_id}"
            )

    for edge in graph.edges:
        if edge.from_node not in node_ids or edge.to_node not in node_ids:
            violations.append(f"edge references a missing node: {edge.to_json()}")
            continue
        producer = graph.node(edge.from_node).capability_id
        consumer = graph.node(edge.to_node).capability_id
        if producer in ctx.capabilities and edge.slot not in ctx.capability(producer).output_set:
            violations.append(f"edge slot {edge.slot!r} is not an output of {producer}")
        if consumer in ctx.capabilities and edge.slot not in ctx.capability(consumer).input_set:
            violations.append(f"edge slot {edge.slot!r} is not an input of {consumer}")

    source = set(graph.source_bindings)
    incoming = Counter((edge.to_node, edge.slot) for edge in graph.edges)
    for node in graph.nodes:
        if node.capability_id not in ctx.capabilities:
            continue
        for slot in ctx.capability(node.capability_id).inputs:
            producers = incoming[node.node_id, slot]
            if slot in source:
                if producers:
                    violations.append(
                        f"slot {slot!r} of node {node.node_id} is both source-bound "
                        "and edge-produced"
                    )
            elif producers != 1:
                violations.append(
                    f"slot {slot!r} of node {node.node_id} has {producers} "
                    "producers (expected exactly one or a source binding)"
                )
    return violations


def plan(goal: Goal, ctx: ExecutionContext) -> TaskGraph:
    """Full planning pipeline: resolve, synthesize, assign."""
    task = resolve_goal(goal, ctx)
    graph = synthesize_graph(task, goal, ctx)
    return assign_agents(graph, ctx)


# -- serialization ------------------------------------------------------------


def canonical_serialize_graph(graph: TaskGraph) -> bytes:
    """Byte-deterministic canonical JSON (nodes then edges, stored order)."""
    return canonical_bytes(graph.to_json())


# The fields of a node and an edge document, each with the JSON type it must
# have; ``bool`` is not ``int`` here.
_NODE_FIELD_TYPES = {"node_id": int, "capability_id": str, "agent_id": str, "server_id": str}
_EDGE_FIELD_TYPES = {"from_node": int, "to_node": int, "slot": str}


def _has_field_types(doc: Any, field_types: dict[str, type]) -> bool:
    return (
        isinstance(doc, dict)
        and doc.keys() == field_types.keys()
        and all(type(doc[name]) is field_type for name, field_type in field_types.items())
    )


def parse_graph(document: Any) -> TaskGraph:
    """Inverse of canonical_serialize_graph."""
    data = load_document(document, "graph")
    problems = check_fields(data, ("task_id", "nodes", "edges", "source_bindings"), "graph")
    if problems:
        raise SchemaViolation(problems)
    task_id, id_problems = parse_capability_id(data["task_id"], label="task_id")
    if id_problems:
        raise SchemaViolation(id_problems)
    if not all(isinstance(data[k], list) for k in ("nodes", "edges", "source_bindings")):
        raise SchemaViolation(["nodes, edges, and source_bindings must be lists"])
    bindings = data["source_bindings"]
    if any(type(slot) is not str for slot in bindings):
        raise MalformedDocument(["source_bindings must be a list of strings"])
    if len(set(bindings)) != len(bindings):
        raise MalformedDocument(["source_bindings must not repeat a slot"])

    nodes = []
    for doc in data["nodes"]:
        if not _has_field_types(doc, _NODE_FIELD_TYPES):
            raise MalformedDocument([f"bad node document: {doc!r}"])
        nodes.append(
            Node(
                node_id=doc["node_id"],
                capability_id=CapabilityId.parse(doc["capability_id"]),
                agent_id=doc["agent_id"],
                server_id=doc["server_id"],
            )
        )
    edges = []
    for doc in data["edges"]:
        if not _has_field_types(doc, _EDGE_FIELD_TYPES):
            raise MalformedDocument([f"bad edge document: {doc!r}"])
        edges.append(Edge(from_node=doc["from_node"], to_node=doc["to_node"], slot=doc["slot"]))
    return TaskGraph(
        task_id=task_id,
        nodes=tuple(nodes),
        edges=tuple(edges),
        source_bindings=tuple(bindings),
    )


def export_dot(graph: TaskGraph) -> str:
    """DOT rendering: nodes labeled capability@agent, edges labeled by slot."""
    name = "task_" + graph.task_id.render().replace(".", "_")
    lines = [f"digraph {name} {{"]
    for node in graph.nodes:
        label = f"{node.capability_id.render()}@{node.agent_id}"
        label = label.replace("\\", "\\\\").replace('"', '\\"')  # an agent id is any string
        lines.append(f'  n{node.node_id} [label="{label}"];')
    for edge in graph.edges:
        lines.append(f'  n{edge.from_node} -> n{edge.to_node} [label="{edge.slot}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
