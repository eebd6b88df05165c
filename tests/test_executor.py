from __future__ import annotations

import copy
import pickle
from random import Random

import pytest

from oracles import all_topological_orders, cyclic_core, random_instance

import scenario
from dalia.capabilities import Capability, CapabilityId
from dalia.discovery import build_invoker
from dalia.errors import CycleDetected, InvalidGraph, PlanningError, WireError
from dalia.executor import (
    OUTCOME_ABORTED,
    OUTCOME_COMPLETED,
    STATUS_FAILED,
    STATUS_SKIPPED,
    STATUS_SUCCEEDED,
    canonical_order,
    canonical_serialize_trace,
    execute,
    replay_check,
)
from dalia.planner import (
    Edge,
    Goal,
    Node,
    TaskGraph,
    canonical_serialize_graph,
    plan,
    validate_graph,
)
from dalia.wire import HANDLER_FAULT, Invoker

from test_planner import build_ctx, cap, task


class ScriptedInvoker:
    """Deterministic in-memory invoker for executor unit tests."""

    def __init__(self, outputs: dict[str, dict], fail: set[str] | None = None):
        self.outputs = outputs
        self.fail = fail or set()
        self.calls: list[tuple[str, str]] = []

    def invoke(self, server_id: str, capability_id: CapabilityId, inputs: dict) -> dict:
        self.calls.append((server_id, capability_id.render()))
        if capability_id.render() in self.fail:
            raise WireError(HANDLER_FAULT, "scripted failure")
        return dict(self.outputs[capability_id.render()])


def test_canonical_order_scenario(scenario_context, scenario_goal):
    graph = plan(scenario_goal, scenario_context)
    order = canonical_order(graph)
    assert [graph.node(nid).capability_id for nid in order] == [
        scenario.SEARCH_ID,
        scenario.RESERVE_ID,
    ]


def test_canonical_order_single_node():
    c = cap("solo.step", inputs=[], outputs=["out"])
    t = task("t.solo", "solo_intent", outputs=["out"], capabilities=["solo.step"])
    ctx = build_ctx([c], [t], set())
    graph = plan(Goal(intent="solo_intent", bindings={}), ctx)
    assert canonical_order(graph) == [graph.nodes[0].node_id]


def test_canonical_order_diamond_prefers_smaller_capability_id():
    caps = [
        cap("c.start", inputs=["seed"], outputs=["left_in", "right_in"]),
        cap("a.x", inputs=["left_in"], outputs=["left_out"]),
        cap("b.y", inputs=["right_in"], outputs=["right_out"]),
        cap("d.join", inputs=["left_out", "right_out"], outputs=["done"]),
    ]
    t = task(
        "t.diamond",
        "diamond_intent",
        inputs=["seed"],
        outputs=["done"],
        capabilities=["c.start", "a.x", "b.y", "d.join"],
    )
    ctx = build_ctx(caps, [t], {"seed"})
    graph = plan(Goal(intent="diamond_intent", bindings={"seed": "s"}), ctx)
    order = canonical_order(graph)
    rendered = [graph.node(nid).capability_id.render() for nid in order]
    assert rendered == ["c.start", "a.x", "b.y", "d.join"]

    # oracle: among all topological orders, the emitted one is the minimum
    # under the (capability_id, node_id) key
    edges = [(e.from_node, e.to_node) for e in graph.edges]
    orders = all_topological_orders([n.node_id for n in graph.nodes], edges)
    assert len(orders) == 2  # a.x and b.y commute

    def key(topo):
        return [
            (graph.node(nid).capability_id.render(), nid) for nid in topo
        ]

    assert key(order) == min(key(topo) for topo in orders)


def test_canonical_order_property_random_graphs():
    rng = Random(4_242)
    names = [CapabilityId(ns, name) for ns in ("a", "b") for name in ("x", "y", "z")]
    acyclic = cyclic = 0
    for _ in range(400):
        count = rng.randint(1, 7)
        node_ids = rng.sample(range(20), count)  # shuffled, not 0..n-1
        # few names for up to seven nodes: capability ids repeat
        nodes = tuple(Node(nid, rng.choice(names), "", "") for nid in node_ids)
        edges = [
            (rng.choice(node_ids), rng.choice(node_ids))
            for _ in range(rng.randint(0, count + 1))
        ]
        graph = TaskGraph(
            task_id=CapabilityId("t", "order"),
            nodes=nodes,
            edges=tuple(Edge(frm, to, "s") for frm, to in edges),
            source_bindings=(),
        )
        core = cyclic_core(node_ids, edges)
        if core:
            cyclic += 1
            with pytest.raises(CycleDetected) as excinfo:
                canonical_order(graph)
            expected = sorted(graph.node(nid).capability_id.render() for nid in core)
            assert excinfo.value.capability_ids == expected
            continue
        acyclic += 1

        def key(topo):
            return [(graph.node(nid).capability_id.render(), nid) for nid in topo]

        orders = all_topological_orders(node_ids, edges)
        assert key(canonical_order(graph)) == min(key(topo) for topo in orders)
    assert acyclic >= 150 and cyclic >= 150


def test_execution_fuzz_replay_and_abort_shape():
    rng = Random(31_337)
    executed = aborted = 0
    for _ in range(600):
        ctx = random_instance(rng, with_facts=True)
        for task_decl in ctx.tasks.values():
            goal = Goal(
                intent=task_decl.intent,
                bindings={slot: f"value_{slot}" for slot in sorted(ctx.provided_inputs)},
            )
            try:
                graph = plan(goal, ctx)
            except PlanningError:
                continue
            plan_bytes = canonical_serialize_graph(graph)
            assert canonical_serialize_graph(plan(goal, ctx)) == plan_bytes
            outputs = {
                node.capability_id.render(): {
                    slot: f"{node.capability_id}:{slot}"
                    for slot in ctx.capability(node.capability_id).outputs
                }
                for node in graph.nodes
            }
            order = canonical_order(graph)
            # where the graph fails on its own (two producers of one slot)
            natural = execute(graph, goal, ctx, ScriptedInvoker(outputs))
            assert replay_check(natural, graph).ok
            statuses = [step.status for step in natural.steps]
            natural_pivot = (
                statuses.index(STATUS_FAILED) if STATUS_FAILED in statuses else len(order)
            )

            fail_at = rng.choice([None, *range(len(order))])
            fail = set()
            if fail_at is not None:
                fail.add(graph.node(order[fail_at]).capability_id.render())
            trace = execute(graph, goal, ctx, ScriptedInvoker(outputs, fail))
            executed += 1
            assert replay_check(trace, graph).ok

            pivot = natural_pivot if fail_at is None else min(fail_at, natural_pivot)
            expected = [STATUS_SUCCEEDED] * pivot
            if pivot < len(order):
                aborted += 1
                expected += [STATUS_FAILED] + [STATUS_SKIPPED] * (len(order) - pivot - 1)
            assert [step.status for step in trace.steps] == expected
            assert trace.outcome == (OUTCOME_ABORTED if pivot < len(order) else OUTCOME_COMPLETED)
    assert executed >= 200 and aborted >= 50


def _scenario_run(scenario_context, scenario_goal):
    graph = plan(scenario_goal, scenario_context)
    invoker = build_invoker(scenario_context)
    return graph, execute(graph, scenario_goal, scenario_context, invoker)


def test_execute_scenario_completes(scenario_context, scenario_goal):
    graph, trace = _scenario_run(scenario_context, scenario_goal)
    assert trace.outcome == OUTCOME_COMPLETED
    search_step, reserve_step = trace.steps
    assert search_step.capability_id == scenario.SEARCH_ID
    assert search_step.status == STATUS_SUCCEEDED
    assert search_step.outputs_received == {"restaurant_list": scenario.RESTAURANT_LIST}
    assert reserve_step.status == STATUS_SUCCEEDED
    assert reserve_step.inputs_used["restaurant_list"] == scenario.RESTAURANT_LIST
    assert trace.final_bindings["booking_confirmation"] == scenario.BOOKING_CONFIRMATION
    assert replay_check(trace, graph).ok


def test_execute_reproducibility(scenario_context, scenario_goal):
    _, first = _scenario_run(scenario_context, scenario_goal)
    _, second = _scenario_run(scenario_context, scenario_goal)
    assert first == second
    assert canonical_serialize_trace(first) == canonical_serialize_trace(second)


@pytest.mark.parametrize(
    "copy_graph", [copy.deepcopy, lambda graph: pickle.loads(pickle.dumps(graph))],
    ids=["deepcopy", "pickle"],
)
def test_a_planned_graph_copies_and_runs_as_the_original(
    scenario_context, scenario_goal, copy_graph
):
    graph, trace = _scenario_run(scenario_context, scenario_goal)
    planned = copy_graph(graph)  # with the planner's simulation stashed
    assert validate_graph(graph, scenario_goal, scenario_context).ok
    validated = copy_graph(graph)  # with the structural check stashed too
    for copied in (planned, validated):
        assert copied == graph and copied is not graph
        assert canonical_serialize_graph(copied) == canonical_serialize_graph(graph)
        assert validate_graph(copied, scenario_goal, scenario_context).ok
        again = execute(copied, scenario_goal, scenario_context, build_invoker(scenario_context))
        assert canonical_serialize_trace(again) == canonical_serialize_trace(trace)


def _faulty_context(fail_on=None, scripts=None):
    from dalia.discovery import discover
    from dalia.wire import DirectoryService, LocalClient, WireServer

    server = LocalClient(
        WireServer(scenario.food_server_config(fail_on=fail_on, scripts=scripts)),
        endpoint="faulty",
    )
    directory = LocalClient(DirectoryService(scenario.scenario_directory()), endpoint="dir")
    return discover([server], directory, set(scenario.SCENARIO_INPUTS))


def test_execute_aborts_when_search_fails(scenario_goal):
    ctx = _faulty_context(fail_on={scenario.SEARCH_ID: (1,)})
    graph = plan(scenario_goal, ctx)
    trace = execute(graph, scenario_goal, ctx, build_invoker(ctx))
    assert trace.outcome == OUTCOME_ABORTED
    assert [step.status for step in trace.steps] == [STATUS_FAILED, STATUS_SKIPPED]
    assert trace.steps[0].error and "scripted fault" in trace.steps[0].error
    assert trace.steps[1].inputs_used == {}
    assert trace.steps[1].outputs_received == {}
    assert "booking_confirmation" not in trace.final_bindings
    assert replay_check(trace, graph).ok


def test_execute_fails_on_missing_declared_output(scenario_goal):
    ctx = _faulty_context(
        scripts={
            scenario.SEARCH_ID: ({"unrelated": "payload"},),
            scenario.RESERVE_ID: ({"booking_confirmation": "ok"},),
        }
    )
    graph = plan(scenario_goal, ctx)
    trace = execute(graph, scenario_goal, ctx, build_invoker(ctx))
    assert trace.outcome == OUTCOME_ABORTED
    assert trace.steps[0].status == STATUS_FAILED
    assert "missing declared output" in trace.steps[0].error
    assert trace.steps[1].status == STATUS_SKIPPED


def test_execute_fails_on_undeclared_extra_output(scenario_goal):
    ctx = _faulty_context(
        scripts={
            scenario.SEARCH_ID: (
                {"restaurant_list": ["x"], "smuggled": "data"},
            ),
            scenario.RESERVE_ID: ({"booking_confirmation": "ok"},),
        }
    )
    graph = plan(scenario_goal, ctx)
    trace = execute(graph, scenario_goal, ctx, build_invoker(ctx))
    assert trace.outcome == OUTCOME_ABORTED
    assert "undeclared output" in trace.steps[0].error
    # undeclared data never enters the binding environment
    assert "smuggled" not in trace.final_bindings


def test_execute_runtime_precondition_violation():
    c = cap("pay.step", inputs=["a"], outputs=["b"], pre=["payment_on_file"])
    t = task("t.pay", "pay_intent", inputs=["a"], outputs=["b"], capabilities=["pay.step"])
    ctx = build_ctx([c], [t], {"a"})
    planning_goal = Goal(
        intent="pay_intent",
        bindings={"a": "1"},
        initial_facts=frozenset({"payment_on_file"}),
    )
    graph = plan(planning_goal, ctx)
    # executed against a goal missing the fact: runtime precondition failure
    runtime_goal = Goal(intent="pay_intent", bindings={"a": "1"})
    invoker = ScriptedInvoker({"pay.step": {"b": "done"}})
    trace = execute(graph, runtime_goal, ctx, invoker)
    assert trace.outcome == OUTCOME_ABORTED
    assert "precondition not satisfied" in trace.steps[0].error
    assert invoker.calls == []  # failed before any invocation


def test_execute_rejects_malformed_graph(scenario_context, scenario_goal):
    graph = plan(scenario_goal, scenario_context)
    broken = graph.replace(edges=())  # reserve loses its producer
    with pytest.raises(InvalidGraph):
        execute(broken, scenario_goal, scenario_context, ScriptedInvoker({}))


def test_execute_write_once_defense_on_duplicate_producers():
    # two nodes declaring the same output slot pass structural validation
    # (nothing consumes it twice) but collide at runtime
    a = cap("a.prod", inputs=[], outputs=["x"])
    b = cap("b.both", inputs=[], outputs=["x", "y"])
    t = task("t.dup", "dup_intent", outputs=["x", "y"], capabilities=["a.prod", "b.both"])
    ctx = build_ctx([a, b], [t], set())
    goal = Goal(intent="dup_intent", bindings={})
    graph = plan(goal, ctx)
    invoker = ScriptedInvoker({"a.prod": {"x": "1"}, "b.both": {"x": "2", "y": "3"}})
    trace = execute(graph, goal, ctx, invoker)
    assert trace.outcome == OUTCOME_ABORTED
    failed = [s for s in trace.steps if s.status == STATUS_FAILED]
    assert len(failed) == 1
    assert "already bound" in failed[0].error


def test_failed_step_binds_none_of_its_outputs():
    # b.both binds y before it reaches x, which a.prod already bound
    a = cap("a.prod", inputs=[], outputs=["x"])
    b = cap("b.both", inputs=[], outputs=["y", "x"])
    t = task("t.leak", "leak_intent", outputs=["x", "y"], capabilities=["a.prod", "b.both"])
    ctx = build_ctx([a, b], [t], set())
    goal = Goal(intent="leak_intent", bindings={})
    graph = plan(goal, ctx)
    assert validate_graph(graph, goal, ctx).ok
    invoker = ScriptedInvoker({"a.prod": {"x": "1"}, "b.both": {"y": "3", "x": "2"}})
    trace = execute(graph, goal, ctx, invoker)
    assert [step.status for step in trace.steps] == [STATUS_SUCCEEDED, STATUS_FAILED]
    assert trace.steps[1].error == "slot 'x' is already bound"
    assert trace.steps[1].outputs_received == {}
    assert trace.final_bindings == {"x": "1"}
    assert replay_check(trace, graph).ok

    leaked = trace.replace(final_bindings={"x": "1", "y": "3"})
    assert replay_check(leaked, graph).violations == [
        "final binding 'y' is neither a source binding nor an output of a succeeded step"
    ]


def test_canonical_order_is_computed_once_per_graph(
    monkeypatch, scenario_context, scenario_goal
):
    computed = []
    ordering = TaskGraph.__dict__["ordering"]  # the cached_property; its func computes
    original = ordering.func

    def counting(graph):
        computed.append(len(graph.nodes))
        return original(graph)

    monkeypatch.setattr(ordering, "func", counting)
    graph = plan(scenario_goal, scenario_context)
    assert validate_graph(graph, scenario_goal, scenario_context).ok
    trace = execute(graph, scenario_goal, scenario_context, build_invoker(scenario_context))
    assert trace.outcome == OUTCOME_COMPLETED
    assert replay_check(trace, graph).ok
    # once for the synthesized graph; the agent-assigned graph takes it over
    assert computed == [2]


def test_abort_prefix_property_over_fault_positions(scenario_goal):
    for failing in (scenario.SEARCH_ID, scenario.RESERVE_ID):
        ctx = _faulty_context(fail_on={failing: (1,)})
        graph = plan(scenario_goal, ctx)
        trace = execute(graph, scenario_goal, ctx, build_invoker(ctx))
        statuses = [step.status for step in trace.steps]
        pivot = statuses.index(STATUS_FAILED)
        assert all(s == STATUS_SUCCEEDED for s in statuses[:pivot])
        assert all(s == STATUS_SKIPPED for s in statuses[pivot + 1 :])
        assert replay_check(trace, graph).ok


def test_data_flow_soundness_from_trace(scenario_context, scenario_goal):
    graph, trace = _scenario_run(scenario_context, scenario_goal)
    edges_in = {(e.to_node, e.slot): e.from_node for e in graph.edges}
    outputs_by_node = {s.node_id: s.outputs_received for s in trace.steps}
    for step in trace.steps:
        assert step.status == STATUS_SUCCEEDED
        for slot, value in step.inputs_used.items():
            if (step.node_id, slot) in edges_in:
                producer = edges_in[(step.node_id, slot)]
                assert outputs_by_node[producer][slot] == value
            else:
                assert scenario_goal.bindings[slot] == value


def test_replay_check_detects_reordered_steps(scenario_context, scenario_goal):
    graph, trace = _scenario_run(scenario_context, scenario_goal)
    reordered = trace.replace(steps=tuple(reversed(trace.steps)))
    report = replay_check(reordered, graph)
    assert any("canonical topological order" in v for v in report.violations)


def test_replay_check_detects_write_once_violation(scenario_context, scenario_goal):
    graph, trace = _scenario_run(scenario_context, scenario_goal)
    first, second = trace.steps
    corrupted_second = second.replace(
        outputs_received=dict(second.outputs_received, restaurant_list=["again"]),
    )
    corrupted = trace.replace(steps=(first, corrupted_second))
    report = replay_check(corrupted, graph)
    assert any("write-once" in v for v in report.violations)


def test_replay_check_detects_fingerprint_mismatch(scenario_context, scenario_goal):
    graph, trace = _scenario_run(scenario_context, scenario_goal)
    forged = trace.replace(graph_fingerprint="0" * 64)
    report = replay_check(forged, graph)
    assert any("fingerprint" in v for v in report.violations)


def test_replay_check_detects_succeeded_after_failed(scenario_context, scenario_goal):
    graph, trace = _scenario_run(scenario_context, scenario_goal)
    first, second = trace.steps
    tampered = trace.replace(
        outcome=OUTCOME_ABORTED,
        steps=(first.replace(status=STATUS_FAILED, error="boom"), second),
    )
    report = replay_check(tampered, graph)
    assert any("skipped" in v for v in report.violations)


class _ListAnsweringClient:
    def call(self, method, params=None):
        return ["restaurant_list"]


@pytest.mark.parametrize(
    "routes, error",
    [
        ({}, "invocation failed: wire error -32001: no route to server 'mcp_food_server'"),
        (
            {scenario.FOOD_SERVER_ID: _ListAnsweringClient()},
            "invocation failed: invoke result must be an object of output slots",
        ),
    ],
    ids=["no-route", "result-not-an-object"],
)
def test_invoker_refusals_become_failed_steps(scenario_context, scenario_goal, routes, error):
    graph = plan(scenario_goal, scenario_context)
    trace = execute(graph, scenario_goal, scenario_context, Invoker(routes))
    assert trace.outcome == OUTCOME_ABORTED
    assert [step.status for step in trace.steps] == [STATUS_FAILED, STATUS_SKIPPED]
    assert trace.steps[0].error == error
    assert replay_check(trace, graph).ok
