"""Controlled execution of validated task graphs.

Nodes run sequentially in the canonical topological order; intermediate
results propagate through a write-once binding environment; preconditions
are checked against a monotonically growing fact set. Write-once is checked
for every output of a step before any of them is bound, so a failed step
binds nothing. Failure policy is fail-fast: the failing step is recorded,
every not-yet-run step is skipped, and the trace outcome is ``aborted``.
No retries, no runtime discovery.

One execution owns its binding environment and fact set exclusively;
independent executions may run concurrently.
"""

from __future__ import annotations

from typing import Any

from .canonical import canonical_bytes, sha256_hex, sorted_map
from .capabilities import Capability, CapabilityId
from .discovery import ExecutionContext
from .errors import DaliaError, InvalidGraph, ValidationReport, _Value
from .planner import (
    Goal,
    Node,
    TaskGraph,
    canonical_order,
    canonical_serialize_graph,
    structural_violations,
)

STATUS_SUCCEEDED = "succeeded"
STATUS_FAILED = "failed"
STATUS_SKIPPED = "skipped"

OUTCOME_COMPLETED = "completed"
OUTCOME_ABORTED = "aborted"


class StepRecord(_Value):
    def __init__(self, node_id: int, capability_id: CapabilityId, agent_id: str, status: str,
                 inputs_used: dict[str, Any], outputs_received: dict[str, Any],
                 error: str | None = None):
        object.__setattr__(self, "node_id", node_id)
        object.__setattr__(self, "capability_id", capability_id)
        object.__setattr__(self, "agent_id", agent_id)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "inputs_used", inputs_used)
        object.__setattr__(self, "outputs_received", outputs_received)
        object.__setattr__(self, "error", error)

    def to_json(self) -> dict:
        return {
            "node_id": self.node_id,
            "capability_id": self.capability_id.render(),
            "agent_id": self.agent_id,
            "status": self.status,
            "inputs_used": sorted_map(self.inputs_used),
            "outputs_received": sorted_map(self.outputs_received),
            "error": self.error,
        }


class ExecutionTrace(_Value):
    def __init__(self, graph_fingerprint: str, steps: tuple[StepRecord, ...], outcome: str,
                 final_bindings: dict[str, Any]):
        object.__setattr__(self, "graph_fingerprint", graph_fingerprint)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "final_bindings", final_bindings)

    def to_json(self) -> dict:
        return {
            "graph_fingerprint": self.graph_fingerprint,
            "outcome": self.outcome,
            "steps": [step.to_json() for step in self.steps],
            "final_bindings": sorted_map(self.final_bindings),
        }


def canonical_serialize_trace(trace: ExecutionTrace) -> bytes:
    return canonical_bytes(trace.to_json())


def graph_fingerprint(graph: TaskGraph) -> str:
    return sha256_hex(canonical_serialize_graph(graph))


def execute(graph: TaskGraph, goal: Goal, ctx: ExecutionContext, invoker) -> ExecutionTrace:
    """Run the graph; all failure is trace content, never an exception.

    ``invoker`` routes (server_id, capability_id, inputs) to a capability
    invocation and returns the output slot map. Only invocations happen
    here: discovery is complete before planning and is never re-entered.

    A structurally malformed graph is a usage error and is rejected up
    front; runtime conditions (faults, output contract breaches, missing
    preconditions) become failed steps with the abort-prefix shape.
    """
    defects = structural_violations(graph, ctx)
    if defects:
        raise InvalidGraph(defects)
    order = canonical_order(graph)

    bindings = dict(goal.bindings)
    facts = goal.initial_fact_set()
    steps: list[StepRecord] = []
    aborted = False

    for node_id in order:
        node = graph.node(node_id)
        if aborted:
            status, inputs, outputs, failure = STATUS_SKIPPED, {}, {}, None
        else:
            inputs, outputs, failure = _run_node(
                node, ctx.capability(node.capability_id), bindings, facts, invoker
            )
            aborted = failure is not None
            status = STATUS_FAILED if aborted else STATUS_SUCCEEDED
        steps.append(
            StepRecord(node_id, node.capability_id, node.agent_id, status, inputs, outputs, failure)
        )

    return ExecutionTrace(
        graph_fingerprint=graph_fingerprint(graph),
        steps=tuple(steps),
        outcome=OUTCOME_ABORTED if aborted else OUTCOME_COMPLETED,
        final_bindings=sorted_map(bindings),
    )


def _run_node(
    node: Node, cap: Capability, bindings: dict[str, Any], facts: set[str], invoker
) -> tuple[dict[str, Any], dict[str, Any], str | None]:
    """(inputs used, outputs received, failure); only success adds to the state."""
    inputs: dict[str, Any] = {}
    for slot in cap.inputs:
        if slot not in bindings:
            return inputs, {}, f"input slot {slot!r} is not bound"
        inputs[slot] = bindings[slot]
    for fact in cap.preconditions:
        if fact not in facts:
            return inputs, {}, f"precondition not satisfied: {fact!r}"
    try:
        outputs = invoker.invoke(node.server_id, node.capability_id, inputs)
    except DaliaError as exc:
        return inputs, {}, f"invocation failed: {exc}"
    # the response must carry exactly the declared outputs, none bound yet
    if outputs.keys() != cap.output_set:
        missing = [slot for slot in cap.outputs if slot not in outputs]
        if missing:
            return inputs, {}, f"missing declared output slot(s): {', '.join(missing)}"
        extra = sorted(outputs.keys() - cap.output_set)
        return inputs, {}, f"undeclared output slot(s): {', '.join(extra)}"
    rebound = [slot for slot in cap.outputs if slot in bindings]
    if rebound:
        return inputs, {}, f"slot {rebound[0]!r} is already bound"
    outputs = dict(outputs)
    bindings.update(outputs)
    facts |= cap.effects
    return inputs, outputs, None


def replay_check(trace: ExecutionTrace, graph: TaskGraph) -> ValidationReport:
    """Verify a trace against its graph: order, fingerprint, data flow."""
    report = ValidationReport()

    if trace.graph_fingerprint != graph_fingerprint(graph):
        report.add("trace fingerprint does not match the graph")

    order, leftover = graph.ordering
    if leftover:
        report.add("graph is cyclic")
        return report
    if [step.node_id for step in trace.steps] != order:
        report.add("step order does not equal the canonical topological order")

    _check_status_shape(trace, report)
    _check_nodes(trace, graph, report)
    _check_write_once(trace, graph, report)
    _check_data_flow(trace, graph, report)
    return report


def _check_status_shape(trace: ExecutionTrace, report: ValidationReport) -> None:
    statuses = [step.status for step in trace.steps]
    if trace.outcome == OUTCOME_COMPLETED:
        if any(status != STATUS_SUCCEEDED for status in statuses):
            report.add("completed trace contains non-succeeded steps")
        return
    failed_positions = [i for i, status in enumerate(statuses) if status == STATUS_FAILED]
    if len(failed_positions) != 1:
        report.add(f"aborted trace must contain exactly one failed step, found {len(failed_positions)}")
        return
    pivot = failed_positions[0]
    if any(status != STATUS_SUCCEEDED for status in statuses[:pivot]):
        report.add("steps before the failed step must all be succeeded")
    if any(status != STATUS_SKIPPED for status in statuses[pivot + 1 :]):
        report.add("steps after the failed step must all be skipped")
    if trace.steps[pivot].error is None:
        report.add("failed step carries no error")
    for step in trace.steps:
        if step.status == STATUS_SKIPPED and (step.inputs_used or step.outputs_received):
            report.add(f"skipped step {step.node_id} carries inputs or outputs")


def _check_nodes(trace: ExecutionTrace, graph: TaskGraph, report: ValidationReport) -> None:
    """Every step names its node's capability and agent."""
    for step in trace.steps:
        try:
            node = graph.node(step.node_id)
        except KeyError:
            continue  # the step order check has named it
        if step.capability_id != node.capability_id:
            report.add(
                f"step {step.node_id} names capability {step.capability_id}, "
                f"not its node's {node.capability_id}"
            )
        if step.agent_id != node.agent_id:
            report.add(
                f"step {step.node_id} names agent {step.agent_id!r}, "
                f"not its node's {node.agent_id!r}"
            )


def _check_write_once(
    trace: ExecutionTrace, graph: TaskGraph, report: ValidationReport
) -> None:
    producers: dict[str, int] = {}
    bound = set(graph.source_bindings)
    for step in trace.steps:
        for slot in step.outputs_received:
            if slot in producers:
                report.add(
                    f"slot {slot!r} bound by two steps "
                    f"({producers[slot]} and {step.node_id}): write-once violated"
                )
            producers[slot] = step.node_id
        if step.status == STATUS_SUCCEEDED:
            bound.update(step.outputs_received)
            for slot, value in step.outputs_received.items():
                if slot not in trace.final_bindings:
                    report.add(f"output slot {slot!r} missing from final bindings")
                elif trace.final_bindings[slot] != value:
                    report.add(f"final binding of {slot!r} differs from the step output")
    for slot in trace.final_bindings:
        if slot not in bound:
            report.add(
                f"final binding {slot!r} is neither a source binding nor an "
                "output of a succeeded step"
            )


def _check_data_flow(
    trace: ExecutionTrace, graph: TaskGraph, report: ValidationReport
) -> None:
    """Every input of a succeeded step came from its unique producer edge or
    from a source binding, and every slot an edge feeds it is among its inputs."""
    outputs_by_node = {step.node_id: step.outputs_received for step in trace.steps}
    edges_in: dict[tuple[int, str], list[int]] = {}
    fed_slots: dict[int, list[str]] = {}
    for edge in graph.edges:
        edges_in.setdefault((edge.to_node, edge.slot), []).append(edge.from_node)
    for to_node, slot in edges_in:
        fed_slots.setdefault(to_node, []).append(slot)
    source = set(graph.source_bindings)

    for step in trace.steps:
        if step.status != STATUS_SUCCEEDED:
            continue
        for slot in fed_slots.get(step.node_id, ()):
            if slot not in step.inputs_used:
                report.add(
                    f"input {slot!r} of step {step.node_id} is fed by an edge but was not used"
                )
        for slot, value in step.inputs_used.items():
            producers = edges_in.get((step.node_id, slot), [])
            if producers:
                producer_outputs = outputs_by_node.get(producers[0], {})
                if producer_outputs.get(slot) != value:
                    report.add(
                        f"input {slot!r} of step {step.node_id} does not equal "
                        f"its producer's output"
                    )
            elif slot in source:
                if slot not in trace.final_bindings:
                    report.add(
                        f"input {slot!r} of step {step.node_id} is source-bound but "
                        "missing from final bindings"
                    )
                elif trace.final_bindings[slot] != value:
                    report.add(
                        f"input {slot!r} of step {step.node_id} does not equal "
                        f"the goal binding"
                    )
            else:
                report.add(
                    f"input {slot!r} of step {step.node_id} has neither a producer "
                    "edge nor a source binding"
                )
