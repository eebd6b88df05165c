"""The exact refusals of the plan verifier (``validate_graph``) and the trace
verifier (``replay_check``) on tampered copies of the demo's graph and trace.

The planned demo graph has node 0 ``restaurant.reserve`` and node 1
``restaurant.search``, one edge 1 -> 0 carrying ``restaurant_list``, and the
source bindings ``date``, ``location`` and ``party_size``. Its trace runs
node 1, then node 0.
"""

from __future__ import annotations

import pytest

import scenario
from dalia.discovery import build_invoker
from dalia.executor import (
    OUTCOME_ABORTED,
    OUTCOME_COMPLETED,
    STATUS_FAILED,
    STATUS_SKIPPED,
    STATUS_SUCCEEDED,
    execute,
    replay_check,
)
from dalia.planner import Edge, Goal, Node, plan, validate_graph

DEMO_EDGE = Edge(1, 0, "restaurant_list")


@pytest.fixture
def demo_graph(scenario_context, scenario_goal):
    graph = plan(scenario_goal, scenario_context)
    assert [node.capability_id for node in graph.nodes] == [scenario.RESERVE_ID, scenario.SEARCH_ID]
    assert graph.edges == (DEMO_EDGE,)
    assert graph.source_bindings == ("date", "location", "party_size")
    return graph


def _node(graph, node_id, **changes):
    """``graph`` with node ``node_id`` changed."""
    nodes = tuple(
        node.replace(**changes) if node.node_id == node_id else node
        for node in graph.nodes
    )
    return graph.replace(nodes=nodes)


_TAMPERED_GRAPHS = {
    "capability-twice": (
        lambda g: g.replace(
            nodes=g.nodes + (Node(2, scenario.SEARCH_ID, "RestaurantAgent", "mcp_food_server"),)
        ),
        ["capability restaurant.search instantiated more than once"],
    ),
    "cycle": (
        lambda g: g.replace(edges=g.edges + (Edge(0, 1, "booking_confirmation"),)),
        [
            "cycle through restaurant.reserve, restaurant.search",
            "edge slot 'booking_confirmation' is not an input of restaurant.search",
        ],
    ),
    "ineligible-agent": (
        lambda g: _node(g, 0, agent_id="GhostAgent"),
        ["node 0 agent 'GhostAgent' is not eligible for restaurant.reserve"],
    ),
    "not-the-provider": (
        lambda g: _node(g, 0, server_id="mcp_map_server"),
        ["node 0 server 'mcp_map_server' is not the provider of restaurant.reserve"],
    ),
    "missing-node": (
        lambda g: g.replace(edges=g.edges + (Edge(1, 7, "restaurant_list"),)),
        ["edge references a missing node: {'from_node': 1, 'to_node': 7, 'slot': 'restaurant_list'}"],
    ),
    "slot-not-an-output": (
        lambda g: g.replace(edges=(Edge(1, 0, "date"),)),
        [
            "edge slot 'date' is not an output of restaurant.search",
            "slot 'restaurant_list' of node 0 has 0 producers "
            "(expected exactly one or a source binding)",
            "slot 'date' of node 0 is both source-bound and edge-produced",
        ],
    ),
    "slot-neither-output-nor-input": (
        lambda g: g.replace(edges=g.edges + (Edge(1, 0, "location"),)),
        [
            "edge slot 'location' is not an output of restaurant.search",
            "edge slot 'location' is not an input of restaurant.reserve",
        ],
    ),
    "source-bound-and-edge-produced": (
        lambda g: g.replace(source_bindings=g.source_bindings + ("restaurant_list",)),
        ["slot 'restaurant_list' of node 0 is both source-bound and edge-produced"],
    ),
    "two-producers": (
        lambda g: g.replace(edges=g.edges + (DEMO_EDGE,)),
        [
            "slot 'restaurant_list' of node 0 has 2 producers "
            "(expected exactly one or a source binding)"
        ],
    ),
}


@pytest.mark.parametrize(
    "tamper, expected", list(_TAMPERED_GRAPHS.values()), ids=list(_TAMPERED_GRAPHS)
)
def test_validate_graph_lists_exactly_the_defects_of_a_tampered_demo_graph(
    demo_graph, scenario_context, scenario_goal, tamper, expected
):
    report = validate_graph(tamper(demo_graph), scenario_goal, scenario_context)
    assert report.violations == expected


def test_execute_fails_the_step_whose_source_binding_the_goal_leaves_unbound(
    demo_graph, scenario_context
):
    bindings = {slot: value for slot, value in scenario.SCENARIO_INPUTS.items() if slot != "date"}
    goal = Goal(intent="book_restaurant", bindings=bindings)
    trace = execute(demo_graph, goal, scenario_context, build_invoker(scenario_context))
    assert trace.outcome == OUTCOME_ABORTED
    search, reserve = trace.steps
    assert (search.node_id, search.status, search.error) == (
        1,
        STATUS_FAILED,
        "input slot 'date' is not bound",
    )
    assert search.inputs_used == {"location": "city centre"}
    assert search.outputs_received == {}
    assert reserve.status == STATUS_SKIPPED
    assert trace.final_bindings == bindings
    assert replay_check(trace, demo_graph).ok


# -- forged traces ----------------------------------------------------------------


@pytest.fixture
def demo_trace(demo_graph, scenario_context, scenario_goal):
    trace = execute(demo_graph, scenario_goal, scenario_context, build_invoker(scenario_context))
    assert trace.outcome == OUTCOME_COMPLETED
    assert [step.node_id for step in trace.steps] == [1, 0]
    assert replay_check(trace, demo_graph).ok
    return trace


def _steps(trace, search: dict, reserve: dict | None = None):
    """``trace`` with its search and reserve steps changed."""
    steps = tuple(
        step.replace(**change) for step, change in zip(trace.steps, (search, reserve or {}))
    )
    return trace.replace(steps=steps)


def _aborted_at_search(trace):
    """The demo trace as if the search step had failed: well formed."""
    return _steps(
        trace,
        {"status": STATUS_FAILED, "outputs_received": {}, "error": "boom"},
        {"status": STATUS_SKIPPED, "inputs_used": {}, "outputs_received": {}},
    ).replace(outcome=OUTCOME_ABORTED, final_bindings=dict(scenario.SCENARIO_INPUTS))


def _without_final(trace, slot):
    return trace.replace(
        final_bindings={k: v for k, v in trace.final_bindings.items() if k != slot}
    )


_FORGED_TRACES = {
    "fingerprint": (
        lambda t: t.replace(graph_fingerprint="0" * 64),
        ["trace fingerprint does not match the graph"],
    ),
    "order": (
        lambda t: t.replace(steps=t.steps[::-1]),
        ["step order does not equal the canonical topological order"],
    ),
    "completed-with-a-skipped-step": (
        lambda t: _steps(t, {}, {"status": STATUS_SKIPPED}),
        [
            "completed trace contains non-succeeded steps",
            "final binding 'booking_confirmation' is neither a source binding nor "
            "an output of a succeeded step",
        ],
    ),
    "aborted-without-a-failed-step": (
        lambda t: t.replace(outcome=OUTCOME_ABORTED),
        ["aborted trace must contain exactly one failed step, found 0"],
    ),
    "aborted-with-two-failed-steps": (
        lambda t: _steps(_aborted_at_search(t), {}, {"status": STATUS_FAILED, "error": "boom"}),
        ["aborted trace must contain exactly one failed step, found 2"],
    ),
    "skipped-before-the-failed-step": (
        lambda t: _steps(
            _aborted_at_search(t),
            {"status": STATUS_SKIPPED, "inputs_used": {}, "error": None},
            {"status": STATUS_FAILED, "error": "boom"},
        ),
        ["steps before the failed step must all be succeeded"],
    ),
    "succeeded-after-the-failed-step": (
        lambda t: _steps(_aborted_at_search(t), {}, {"status": STATUS_SUCCEEDED}),
        [
            "steps after the failed step must all be skipped",
            "input 'restaurant_list' of step 0 is fed by an edge but was not used",
        ],
    ),
    "failed-step-without-an-error": (
        lambda t: _steps(_aborted_at_search(t), {"error": None}),
        ["failed step carries no error"],
    ),
    "skipped-step-with-inputs": (
        lambda t: _steps(_aborted_at_search(t), {}, {"inputs_used": {"date": "tomorrow"}}),
        ["skipped step 0 carries inputs or outputs"],
    ),
    "output-missing-from-final-bindings": (
        lambda t: _without_final(t, "booking_confirmation"),
        ["output slot 'booking_confirmation' missing from final bindings"],
    ),
    "final-binding-differs": (
        lambda t: t.replace(
            final_bindings=dict(t.final_bindings, booking_confirmation="forged")
        ),
        ["final binding of 'booking_confirmation' differs from the step output"],
    ),
    "input-differs-from-its-producer": (
        lambda t: _steps(
            t, {}, {"inputs_used": dict(t.steps[1].inputs_used, restaurant_list=["forged"])}
        ),
        ["input 'restaurant_list' of step 0 does not equal its producer's output"],
    ),
    "input-differs-from-the-goal-binding": (
        lambda t: _steps(t, {"inputs_used": dict(t.steps[0].inputs_used, date="yesterday")}),
        ["input 'date' of step 1 does not equal the goal binding"],
    ),
    "input-without-a-source": (
        lambda t: _steps(t, {}, {"inputs_used": dict(t.steps[1].inputs_used, smuggled="x")}),
        ["input 'smuggled' of step 0 has neither a producer edge nor a source binding"],
    ),
    "another-nodes-capability": (
        lambda t: _steps(t, {"capability_id": scenario.RESERVE_ID}),
        ["step 1 names capability restaurant.reserve, not its node's restaurant.search"],
    ),
    "another-agent": (
        lambda t: _steps(t, {}, {"agent_id": "GhostAgent"}),
        ["step 0 names agent 'GhostAgent', not its node's 'RestaurantAgent'"],
    ),
    "edge-fed-input-unused": (
        lambda t: _steps(t, {}, {"inputs_used": {"date": "tomorrow", "party_size": "4"}}),
        ["input 'restaurant_list' of step 0 is fed by an edge but was not used"],
    ),
    "source-bound-input-missing-from-final-bindings": (
        lambda t: _without_final(t, "location"),
        ["input 'location' of step 1 is source-bound but missing from final bindings"],
    ),
}


@pytest.mark.parametrize(
    "forge, expected", list(_FORGED_TRACES.values()), ids=list(_FORGED_TRACES)
)
def test_replay_check_lists_exactly_the_defects_of_a_forged_demo_trace(
    demo_graph, demo_trace, forge, expected
):
    assert replay_check(_aborted_at_search(demo_trace), demo_graph).ok
    assert replay_check(forge(demo_trace), demo_graph).violations == expected


def test_replay_check_stops_at_a_cyclic_graph(demo_graph, demo_trace):
    cyclic = demo_graph.replace(
        edges=demo_graph.edges + (Edge(0, 1, "booking_confirmation"),)
    )
    forged = demo_trace.replace(steps=demo_trace.steps[::-1])
    assert replay_check(forged, cyclic).violations == [
        "trace fingerprint does not match the graph",
        "graph is cyclic",
    ]


def test_replay_check_names_both_steps_that_bind_one_slot(demo_graph, demo_trace):
    search, reserve = demo_trace.steps
    forged = _steps(
        demo_trace,
        {},
        {"outputs_received": dict(reserve.outputs_received, restaurant_list=["again"])},
    )
    assert replay_check(forged, demo_graph).violations == [
        "slot 'restaurant_list' bound by two steps (1 and 0): write-once violated",
        "final binding of 'restaurant_list' differs from the step output",
    ]
