from __future__ import annotations

import json
from random import Random

import pytest

from oracles import all_topological_orders, enumerate_valid_graphs, minimal_graph, random_instance

from dalia.atdp import TaskDeclaration
from dalia.capabilities import Capability, CapabilityId
from dalia.directory import (
    AgentRecord,
    bind_server_capabilities,
    empty_snapshot,
    register_agent,
    resolve_capability,
)
from dalia.discovery import ExecutionContext
from dalia.errors import (
    AmbiguousIntent,
    CycleDetected,
    InvalidGraph,
    MalformedDocument,
    NoEligibleAgent,
    NoSuchTask,
    PlanningError,
    PreconditionUnschedulable,
    SchemaViolation,
    UnproducibleSlot,
)
from dalia.executor import execute
from dalia.planner import (
    Edge,
    Goal,
    Node,
    TaskGraph,
    assign_agents,
    canonical_serialize_graph,
    export_dot,
    parse_graph,
    plan,
    resolve_goal,
    slot_known_fact,
    synthesize_graph,
    validate_graph,
)
import scenario


def build_ctx(
    caps: list[Capability],
    tasks: list[TaskDeclaration],
    provided: set[str],
    agents: list[tuple[str, tuple[str, ...]]] | None = None,
    providers: dict[CapabilityId, str] | None = None,
) -> ExecutionContext:
    providers = providers or {cap.capability_id: "srv_main" for cap in caps}
    snapshot = empty_snapshot("test")
    for server_id in sorted(set(providers.values())):
        bound = sorted(cid for cid, sid in providers.items() if sid == server_id)
        snapshot = bind_server_capabilities(snapshot, server_id, bound)
    if agents is None:
        agents = [("MainAgent", tuple(sorted(set(providers.values()))))]
    for agent_id, accessible in agents:
        snapshot = register_agent(
            snapshot, AgentRecord(agent_id, "task_executor", (), accessible)
        )
    return ExecutionContext(
        capabilities={cap.capability_id: (cap, providers[cap.capability_id]) for cap in caps},
        tasks={task.task_id: task for task in tasks},
        directory=snapshot,
        provided_inputs=frozenset(provided),
        server_routes={},
    )


def cap(text: str, inputs=(), outputs=(), pre=(), post=()) -> Capability:
    return Capability(
        capability_id=CapabilityId.parse(text),
        role="r",
        domain="d",
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        preconditions=tuple(pre),
        postconditions=tuple(post),
    )


def task(text: str, intent: str, inputs=(), outputs=(), capabilities=()) -> TaskDeclaration:
    return TaskDeclaration(
        task_id=CapabilityId.parse(text),
        intent=intent,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        capabilities=tuple(CapabilityId.parse(c) for c in capabilities),
    )


@pytest.fixture
def scenario_ctx(scenario_context):
    return scenario_context


def test_resolve_goal_scenario(scenario_ctx, scenario_goal):
    assert resolve_goal(scenario_goal, scenario_ctx).task_id == CapabilityId(
        "restaurant", "booking"
    )


def test_resolve_goal_unknown_intent(scenario_ctx):
    with pytest.raises(NoSuchTask):
        resolve_goal(Goal(intent="fly_to_moon", bindings={}), scenario_ctx)


def test_resolve_goal_ambiguous_intent():
    c = cap("a.one", outputs=["x"])
    tasks = [
        task("t.first", "shared_intent", outputs=["x"], capabilities=["a.one"]),
        task("t.second", "shared_intent", outputs=["x"], capabilities=["a.one"]),
    ]
    ctx = build_ctx([c], tasks, set())
    with pytest.raises(AmbiguousIntent) as excinfo:
        resolve_goal(Goal(intent="shared_intent", bindings={}), ctx)
    assert set(excinfo.value.task_ids) == {"t.first", "t.second"}


def test_scenario_graph_two_nodes_one_edge(scenario_ctx, scenario_goal):
    booking = resolve_goal(scenario_goal, scenario_ctx)
    graph = synthesize_graph(booking, scenario_goal, scenario_ctx)
    assert len(graph.nodes) == 2
    assert len(graph.edges) == 1
    edge = graph.edges[0]
    assert edge.slot == "restaurant_list"
    assert graph.node(edge.from_node).capability_id == scenario.SEARCH_ID
    assert graph.node(edge.to_node).capability_id == scenario.RESERVE_ID
    assert graph.source_bindings == ("date", "location", "party_size")


def test_degenerate_single_node_graph():
    c = cap("solo.step", inputs=["a"], outputs=["b"])
    t = task("t.solo", "solo_intent", inputs=["a"], outputs=["b"], capabilities=["solo.step"])
    ctx = build_ctx([c], [t], {"a"})
    graph = synthesize_graph(t, Goal(intent="solo_intent", bindings={"a": "1"}), ctx)
    assert len(graph.nodes) == 1
    assert graph.edges == ()


def test_tie_break_prefers_lexicographically_smallest_producer():
    a_search = cap("a.search", inputs=["location"], outputs=["restaurant_list"])
    b_search = cap("b.search", inputs=["location"], outputs=["restaurant_list"])
    reserve = cap("c.reserve", inputs=["restaurant_list"], outputs=["booking_confirmation"])
    t = task(
        "t.book",
        "book",
        inputs=["location"],
        outputs=["booking_confirmation"],
        capabilities=["a.search", "b.search", "c.reserve"],
    )
    ctx = build_ctx([a_search, b_search, reserve], [t], {"location"})
    goal = Goal(intent="book", bindings={"location": "x"})
    graph = synthesize_graph(t, goal, ctx)
    used = {node.capability_id.render() for node in graph.nodes}
    assert used == {"a.search", "c.reserve"}

    # oracle: both variants exist; the emitted graph is the enumeration minimum
    pool = [a_search, b_search, reserve]
    valid = enumerate_valid_graphs(pool, {"location"}, t.outputs)
    id_sets = {description[0] for description in valid}
    assert ("a.search", "c.reserve") in id_sets
    assert ("b.search", "c.reserve") in id_sets
    assert minimal_graph(valid)[0] == tuple(sorted(used))
    assert minimal_graph(valid)[1] == frozenset(
        {("a.search", "c.reserve", "restaurant_list")}
    )


def test_unproducible_slot():
    c = cap("only.step", inputs=["mystery"], outputs=["wanted"])
    t = task("t.x", "x_intent", outputs=["wanted"], capabilities=["only.step"])
    ctx = build_ctx([c], [t], set())
    with pytest.raises(UnproducibleSlot) as excinfo:
        synthesize_graph(t, Goal(intent="x_intent", bindings={}), ctx)
    assert excinfo.value.slot == "mystery"


def test_cycle_detected():
    one = cap("loop.one", inputs=["b"], outputs=["a"])
    two = cap("loop.two", inputs=["a"], outputs=["b", "wanted"])
    t = task("t.loop", "loop_intent", outputs=["wanted"], capabilities=["loop.one", "loop.two"])
    ctx = build_ctx([one, two], [t], set())
    with pytest.raises(CycleDetected) as excinfo:
        synthesize_graph(t, Goal(intent="loop_intent", bindings={}), ctx)
    assert set(excinfo.value.capability_ids) == {"loop.one", "loop.two"}


def test_precondition_unschedulable_raises_at_synthesis():
    c = cap("pay.step", inputs=["a"], outputs=["b"], pre=["payment_on_file"])
    t = task("t.pay", "pay_intent", inputs=["a"], outputs=["b"], capabilities=["pay.step"])
    ctx = build_ctx([c], [t], {"a"})
    with pytest.raises(PreconditionUnschedulable) as excinfo:
        synthesize_graph(t, Goal(intent="pay_intent", bindings={"a": "1"}), ctx)
    assert excinfo.value.fact == "payment_on_file"
    # the same goal with the fact supplied plans fine
    goal = Goal(intent="pay_intent", bindings={"a": "1"}, initial_facts=frozenset({"payment_on_file"}))
    assert synthesize_graph(t, goal, ctx)


def test_assign_agents_scenario(scenario_ctx, scenario_goal):
    graph = plan(scenario_goal, scenario_ctx)
    assert {node.agent_id for node in graph.nodes} == {"RestaurantAgent"}
    assert {node.server_id for node in graph.nodes} == {scenario.FOOD_SERVER_ID}


def test_assign_agents_lexicographic_tie_break():
    c = cap("x.step", inputs=[], outputs=["out"])
    t = task("t.x", "x_intent", outputs=["out"], capabilities=["x.step"])
    ctx = build_ctx(
        [c],
        [t],
        set(),
        agents=[("ZAgent", ("srv_main",)), ("AAgent", ("srv_main",))],
    )
    graph = assign_agents(synthesize_graph(t, Goal(intent="x_intent", bindings={}), ctx), ctx)
    assert graph.nodes[0].agent_id == "AAgent"


def test_assign_agents_empty_directory():
    c = cap("x.step", inputs=[], outputs=["out"])
    t = task("t.x", "x_intent", outputs=["out"], capabilities=["x.step"])
    ctx = build_ctx([c], [t], set(), agents=[])
    with pytest.raises(NoEligibleAgent):
        assign_agents(synthesize_graph(t, Goal(intent="x_intent", bindings={}), ctx), ctx)


def test_validate_scenario_graph_no_violations(scenario_ctx, scenario_goal):
    graph = plan(scenario_goal, scenario_ctx)
    report = validate_graph(graph, scenario_goal, scenario_ctx)
    assert report.ok, report.violations

    # exhaustive simulator: the fact sequence succeeds in every topological order
    facts0 = set(scenario_goal.initial_facts) | {
        slot_known_fact(s) for s in scenario_goal.bindings
    }
    edges = [(e.from_node, e.to_node) for e in graph.edges]
    orders = all_topological_orders([n.node_id for n in graph.nodes], edges)
    assert orders
    for order in orders:
        facts = set(facts0)
        for node_id in order:
            capability = scenario_ctx.capability(graph.node(node_id).capability_id)
            assert all(f in facts for f in capability.preconditions)
            facts |= set(capability.postconditions)
            facts |= {slot_known_fact(s) for s in capability.outputs}


def test_validate_flags_unknown_capability(scenario_ctx, scenario_goal):
    graph = plan(scenario_goal, scenario_ctx)
    corrupted_ctx = ExecutionContext(
        capabilities={
            cid: pair
            for cid, pair in scenario_ctx.capabilities.items()
            if cid != scenario.RESERVE_ID
        },
        tasks=scenario_ctx.tasks,
        directory=scenario_ctx.directory,
        provided_inputs=scenario_ctx.provided_inputs,
        server_routes=scenario_ctx.server_routes,
    )
    report = validate_graph(graph, scenario_goal, corrupted_ctx)
    assert any("undeclared capability" in v for v in report.violations)


def test_validate_flags_unsatisfiable_precondition(scenario_ctx, scenario_goal):
    graph = plan(scenario_goal, scenario_ctx)
    strict = Capability(
        capability_id=scenario.RESERVE_ID,
        role="transaction",
        domain="food",
        inputs=("restaurant_list", "date", "party_size"),
        outputs=("booking_confirmation",),
        preconditions=("payment_on_file",),
        postconditions=("booking_confirmed",),
    )
    patched = dict(scenario_ctx.capabilities)
    patched[scenario.RESERVE_ID] = (strict, scenario.FOOD_SERVER_ID)
    ctx = ExecutionContext(
        capabilities=patched,
        tasks=scenario_ctx.tasks,
        directory=scenario_ctx.directory,
        provided_inputs=scenario_ctx.provided_inputs,
        server_routes=scenario_ctx.server_routes,
    )
    report = validate_graph(graph, scenario_goal, ctx)
    assert any("payment_on_file" in v for v in report.violations)


def test_duplicate_node_ids_resolve_to_the_first_node():
    # Node 0 appears twice. Read as its second node (b.second), the edge slot
    # would not be an output and an unmet precondition would be reported;
    # every lookup takes the first node (a.first), so only the duplicate is.
    caps = [
        cap("a.first", outputs=["x"]),
        cap("b.second", outputs=["y"], pre=["never"]),
        cap("c.consume", inputs=["x"], outputs=["z"]),
    ]
    t = task(
        "t.dup", "dup_intent", outputs=["z"], capabilities=["a.first", "b.second", "c.consume"]
    )
    ctx = build_ctx(caps, [t], set())
    graph = TaskGraph(
        task_id=CapabilityId.parse("t.dup"),
        nodes=(
            Node(0, CapabilityId.parse("a.first"), "MainAgent", "srv_main"),
            Node(0, CapabilityId.parse("b.second"), "MainAgent", "srv_main"),
            Node(1, CapabilityId.parse("c.consume"), "MainAgent", "srv_main"),
        ),
        edges=(Edge(0, 1, "x"),),
        source_bindings=(),
    )
    goal = Goal(intent="dup_intent", bindings={})
    assert graph.node(0) is graph.nodes[0]
    assert validate_graph(graph, goal, ctx).violations == ["duplicate node ids"]
    with pytest.raises(InvalidGraph) as excinfo:
        execute(graph, goal, ctx, invoker=None)
    assert excinfo.value.violations == ["duplicate node ids"]


def test_graph_serialization_round_trip(scenario_ctx, scenario_goal):
    graph = plan(scenario_goal, scenario_ctx)
    payload = canonical_serialize_graph(graph)
    assert payload == canonical_serialize_graph(graph)
    assert parse_graph(payload) == graph
    assert canonical_serialize_graph(parse_graph(payload)) == payload
    doc = json.loads(payload)
    assert list(doc) == ["task_id", "nodes", "edges", "source_bindings"]


def _set(part, name, value):
    return lambda doc: doc[part][0].update({name: value})


_WRONG_TYPES = {
    "node_id-list": _set("nodes", "node_id", [0]),
    "node_id-bool": _set("nodes", "node_id", True),
    "node_id-string": _set("nodes", "node_id", "0"),
    "node_id-float": _set("nodes", "node_id", 1.0),
    "capability_id-int": _set("nodes", "capability_id", 5),
    "agent_id-list": _set("nodes", "agent_id", ["RestaurantAgent"]),
    "server_id-null": _set("nodes", "server_id", None),
    "from_node-list": _set("edges", "from_node", [1]),
    "to_node-bool": _set("edges", "to_node", False),
    "slot-object": _set("edges", "slot", {"restaurant_list": 1}),
    "node-missing-field": lambda doc: doc["nodes"][0].pop("agent_id"),
    "node-not-object": lambda doc: doc["nodes"].append("node"),
    "edge-not-object": lambda doc: doc["edges"].append([0, 1, "slot"]),
    "source_bindings-object": lambda doc: doc.update(source_bindings=[{"location": 1}]),
    "source_bindings-int": lambda doc: doc.update(source_bindings=["date", 4]),
    "node-unexpected-field": _set("nodes", "extra", 1),
    "edge-unexpected-field": _set("edges", "zz", 2),
    "source_bindings-repeated": lambda doc: doc.update(source_bindings=["p", "p"]),
}


@pytest.mark.parametrize("mutate", list(_WRONG_TYPES.values()), ids=list(_WRONG_TYPES))
def test_parse_graph_refuses_fields_of_the_wrong_type(scenario_ctx, scenario_goal, mutate):
    doc = json.loads(canonical_serialize_graph(plan(scenario_goal, scenario_ctx)))
    mutate(doc)
    with pytest.raises(MalformedDocument):
        parse_graph(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate",
    [lambda doc: doc.update(bogus=2), lambda doc: doc.pop("edges")],
    ids=["unexpected", "missing"],
)
def test_parse_graph_refuses_a_root_without_exactly_the_graph_fields(
    scenario_ctx, scenario_goal, mutate
):
    doc = json.loads(canonical_serialize_graph(plan(scenario_goal, scenario_ctx)))
    mutate(doc)
    with pytest.raises(SchemaViolation):
        parse_graph(json.dumps(doc))


def test_dot_export_scenario(scenario_ctx, scenario_goal):
    graph = plan(scenario_goal, scenario_ctx)
    dot = export_dot(graph)
    assert dot.startswith("digraph task_restaurant_booking {")
    assert dot.count('[label="restaurant_list"]') == 1
    assert 'label="restaurant.search@RestaurantAgent"' in dot
    assert 'label="restaurant.reserve@RestaurantAgent"' in dot


def test_dot_export_escapes_quotes_and_backslashes_in_an_agent_id(scenario_ctx, scenario_goal):
    graph = plan(scenario_goal, scenario_ctx)
    odd = graph.nodes[0].replace(agent_id='Ag"ent\\')
    dot = export_dot(graph.replace(nodes=(odd, *graph.nodes[1:])))
    assert '  n0 [label="restaurant.reserve@Ag\\"ent\\\\"];\n' in dot


def test_plan_determinism_100_runs(scenario_ctx, scenario_goal):
    payloads = {
        canonical_serialize_graph(plan(scenario_goal, scenario_ctx)) for _ in range(100)
    }
    assert len(payloads) == 1


def test_permutation_invariance():
    a = cap("a.first", inputs=["p"], outputs=["q"])
    b = cap("b.second", inputs=["q"], outputs=["r"])
    c = cap("c.third", inputs=["q"], outputs=["s"])
    base_caps = [a, b, c]
    goal = Goal(intent="perm_intent", bindings={"p": "1"})
    rng = Random(11)
    reference_payload = None
    for _ in range(12):
        caps = list(base_caps)
        rng.shuffle(caps)
        pool = ["a.first", "b.second", "c.third"]
        rng.shuffle(pool)
        t = task(
            "t.perm", "perm_intent", inputs=["p"], outputs=["r", "s"], capabilities=pool
        )
        ctx = build_ctx(caps, [t], {"p"})
        payload = canonical_serialize_graph(plan(goal, ctx))
        if reference_payload is None:
            reference_payload = payload
        assert payload == reference_payload


def _fuzz_plan(ctx, task_decl):
    goal = Goal(
        intent=task_decl.intent,
        bindings={slot: f"value_{slot}" for slot in sorted(ctx.provided_inputs)},
    )
    graph = synthesize_graph(task_decl, goal, ctx)
    return goal, graph


def test_fuzz_groundedness_and_minimality_against_oracle():
    rng = Random(20_260_810)
    checked_plans = 0
    checked_oracle = 0
    for _ in range(400):
        ctx = random_instance(rng)
        for task_decl in ctx.tasks.values():
            pool = [
                ctx.capability(cid)
                for cid in task_decl.capabilities
                if cid in ctx.capabilities
            ]
            source = set(ctx.provided_inputs)
            valid = enumerate_valid_graphs(pool, source, task_decl.outputs)
            try:
                goal, graph = _fuzz_plan(ctx, task_decl)
            except PlanningError:
                # single-pass backward chaining is deliberately incomplete,
                # but it must never fail when the oracle set is... non-empty
                # instances do exist; the hard requirement is the converse.
                continue
            checked_plans += 1

            # groundedness: every node's capability is declared in the context
            for node in graph.nodes:
                assert node.capability_id in ctx.capabilities

            # structural validity per the independent oracle
            description = (
                tuple(sorted(n.capability_id.render() for n in graph.nodes)),
                frozenset(
                    (
                        graph.node(e.from_node).capability_id.render(),
                        graph.node(e.to_node).capability_id.render(),
                        e.slot,
                    )
                    for e in graph.edges
                ),
            )
            assert valid, "planner emitted a graph the oracle considers impossible"
            assert description in [(ids, edges) for ids, edges, _ in valid]
            best = minimal_graph(valid)
            assert description == (best[0], best[1])
            checked_oracle += 1

            # agents, when any are eligible, come from the directory
            try:
                assigned = assign_agents(graph, ctx)
            except NoEligibleAgent:
                continue
            for node in assigned.nodes:
                assert node.agent_id in resolve_capability(
                    ctx.directory, node.capability_id
                )
    assert checked_plans >= 200
    assert checked_oracle >= 200


def test_fuzz_oracle_empty_implies_planner_raises():
    rng = Random(77)
    refusals = 0
    for _ in range(300):
        ctx = random_instance(rng)
        for task_decl in ctx.tasks.values():
            pool = [
                ctx.capability(cid)
                for cid in task_decl.capabilities
                if cid in ctx.capabilities
            ]
            valid = enumerate_valid_graphs(
                pool, set(ctx.provided_inputs), task_decl.outputs
            )
            if valid:
                continue
            refusals += 1
            with pytest.raises(PlanningError):
                _fuzz_plan(ctx, task_decl)
    assert refusals >= 20
