"""Acceptance suite.

One test per acceptance criterion. Each prints a [PASS]/[FAIL] line with its
elapsed time (run pytest with -s to see them inline) and enforces the
criterion's time budget.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from random import Random

import pytest

from oracles import (
    brute_force_feasibility,
    enumerate_valid_graphs,
    minimal_graph,
    random_instance,
)

import scenario
from counting import CountingClient
from dalia.canonical import canonical_bytes
from dalia.capabilities import CapabilityId
from dalia.cli import main as cli_main
from dalia.directory import (
    AgentRecord,
    bind_server_capabilities,
    empty_snapshot,
    executable_capabilities,
    merge,
    register_agent,
    resolve_capability,
    save_snapshot,
)
from dalia.discovery import build_invoker, discover, feasibility
from dalia.errors import ConfigInvalid, PlanningError, WireError
from dalia.executor import (
    OUTCOME_ABORTED,
    STATUS_FAILED,
    STATUS_SKIPPED,
    STATUS_SUCCEEDED,
    canonical_serialize_trace,
    execute,
)
from dalia.planner import (
    Goal,
    assign_agents,
    canonical_serialize_graph,
    plan,
    synthesize_graph,
)
from dalia.wire import (
    METHOD_NOT_FOUND,
    DirectoryService,
    LocalClient,
    WireServer,
    parse_server_config,
)

from test_wire import assert_codec_identity, random_message


@contextlib.contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[FAIL] criterion {number}: {description} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
    )
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def _scenario_context(fail_on=None, scripts=None):
    server = LocalClient(
        WireServer(scenario.food_server_config(fail_on=fail_on, scripts=scripts)),
        endpoint="food",
    )
    directory = LocalClient(DirectoryService(scenario.scenario_directory()), endpoint="dir")
    return discover([server], directory, set(scenario.SCENARIO_INPUTS))


def _scenario_goal() -> Goal:
    return Goal(intent="book_restaurant", bindings=dict(scenario.SCENARIO_INPUTS))


def _write_scenario_configs(tmp_path, fail_on=None):
    server_doc = scenario.food_server_doc(fail_on=fail_on)
    (tmp_path / "food_server.json").write_bytes(canonical_bytes(server_doc))
    (tmp_path / "directory.json").write_bytes(save_snapshot(scenario.scenario_directory()))
    path = tmp_path / "orchestrator.json"
    path.write_text(
        json.dumps(
            {"servers": ["local:food_server.json"], "directory": "local:directory.json"}
        )
    )
    return path


def test_criterion_1_scenario_reproduction(tmp_path):
    with criterion(1, "scenario reproduction via the CLI", 1.0):
        config = _write_scenario_configs(tmp_path)
        out = io.StringIO()
        code = cli_main(
            [
                "plan",
                "--config",
                str(config),
                "--intent",
                "book_restaurant",
                "--inputs",
                "location=city centre",
                "date=tomorrow",
                "party_size=4",
            ],
            out=out,
        )
        assert code == 0
        graph = json.loads(out.getvalue())
        assert len(graph["nodes"]) == 2
        assert len(graph["edges"]) == 1

        by_id = {node["node_id"]: node for node in graph["nodes"]}
        edge = graph["edges"][0]
        assert edge["slot"] == "restaurant_list"
        # the single data dependency runs search -> reserve: search precedes
        assert by_id[edge["from_node"]]["capability_id"] == "restaurant.search"
        assert by_id[edge["to_node"]]["capability_id"] == "restaurant.reserve"
        assert all(node["agent_id"] == "RestaurantAgent" for node in graph["nodes"])


def test_criterion_2_determinism():
    with criterion(2, "100 byte-identical plans and 100 field-identical traces", 30.0):
        goal = _scenario_goal()

        plans = set()
        for _ in range(100):
            ctx = _scenario_context()
            plans.add(canonical_serialize_graph(plan(goal, ctx)))
        assert len(plans) == 1

        traces = set()
        first_trace = None
        for _ in range(100):
            ctx = _scenario_context()
            graph = plan(goal, ctx)
            trace = execute(graph, goal, ctx, build_invoker(ctx))
            if first_trace is None:
                first_trace = trace
            assert trace == first_trace  # field-identical
            traces.add(canonical_serialize_trace(trace))
        assert len(traces) == 1


def test_criterion_3_groundedness_fuzzing():
    with criterion(3, "0 grounding violations over 1000 random contexts", 60.0):
        rng = Random(31_337)
        violations = 0
        emitted = 0
        contexts = 0
        while contexts < 1000:
            ctx = random_instance(rng)
            contexts += 1
            for task_decl in ctx.tasks.values():
                goal = Goal(
                    intent=task_decl.intent,
                    bindings={s: f"v_{s}" for s in sorted(ctx.provided_inputs)},
                )
                try:
                    graph = assign_agents(synthesize_graph(task_decl, goal, ctx), ctx)
                except PlanningError:
                    continue
                emitted += 1
                source = set(graph.source_bindings)
                for node in graph.nodes:
                    if node.capability_id not in ctx.capabilities:
                        violations += 1
                    elif node.agent_id not in resolve_capability(
                        ctx.directory, node.capability_id
                    ):
                        violations += 1
                    else:
                        for slot in ctx.capability(node.capability_id).inputs:
                            incoming = [
                                e
                                for e in graph.edges
                                if e.to_node == node.node_id and e.slot == slot
                            ]
                            if slot in source:
                                if incoming:
                                    violations += 1
                            elif len(incoming) != 1:
                                violations += 1
        assert emitted >= 300, "fuzz corpus produced too few plans to be meaningful"
        assert violations == 0


def test_criterion_4_oracle_equivalence():
    with criterion(4, "planner equals brute-force minimum; feasibility matches closure", 120.0):
        rng = Random(424_242)
        plan_mismatches = 0
        feasibility_mismatches = 0
        compared_plans = 0
        compared_feasibility = 0
        for _ in range(1000):
            ctx = random_instance(rng)
            catalog = [cap for cap, _ in ctx.capabilities.values()]
            reports = feasibility(ctx)
            for task_decl in ctx.tasks.values():
                if len(task_decl.capabilities) > 5:
                    continue

                expected = brute_force_feasibility(
                    task_decl, catalog, set(ctx.provided_inputs)
                )
                report = reports[task_decl.task_id]
                compared_feasibility += 1
                if (
                    report.feasible,
                    list(report.missing_capabilities),
                    list(report.uncovered_outputs),
                    list(report.unreachable_inputs),
                ) != expected:
                    feasibility_mismatches += 1

                pool = [
                    ctx.capability(cid)
                    for cid in task_decl.capabilities
                    if cid in ctx.capabilities
                ]
                valid = enumerate_valid_graphs(
                    pool, set(ctx.provided_inputs), task_decl.outputs
                )
                goal = Goal(
                    intent=task_decl.intent,
                    bindings={s: f"v_{s}" for s in sorted(ctx.provided_inputs)},
                )
                try:
                    graph = synthesize_graph(task_decl, goal, ctx)
                except PlanningError:
                    if not valid:
                        compared_plans += 1  # agreed refusal
                    continue
                compared_plans += 1
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
                if not valid:
                    plan_mismatches += 1
                    continue
                best = minimal_graph(valid)
                if description != (best[0], best[1]):
                    plan_mismatches += 1
        assert compared_plans >= 500
        assert compared_feasibility >= 500
        assert plan_mismatches == 0
        assert feasibility_mismatches == 0


def test_criterion_5_closed_world_execution():
    with criterion(5, "exactly 0 discovery-class calls during plan and execute", 5.0):
        server = CountingClient(
            LocalClient(WireServer(scenario.food_server_config()), endpoint="food")
        )
        directory = CountingClient(
            LocalClient(DirectoryService(scenario.scenario_directory()), endpoint="dir")
        )
        ctx = discover([server], directory, set(scenario.SCENARIO_INPUTS))
        assert server.discovery_call_count() > 0  # discovery itself used the wire

        before = server.discovery_call_count() + directory.discovery_call_count()
        goal = _scenario_goal()
        graph = plan(goal, ctx)
        trace = execute(graph, goal, ctx, build_invoker(ctx))
        after = server.discovery_call_count() + directory.discovery_call_count()
        assert trace.outcome == "completed"
        assert after - before == 0


def _abort_shape(trace) -> tuple:
    statuses = tuple(step.status for step in trace.steps)
    assert trace.outcome == OUTCOME_ABORTED
    pivot = statuses.index(STATUS_FAILED)
    assert all(s == STATUS_SUCCEEDED for s in statuses[:pivot])
    assert all(s == STATUS_SKIPPED for s in statuses[pivot + 1 :])
    return statuses


def test_criterion_6_deterministic_failure_handling():
    with criterion(6, "fault-injected runs abort identically across 20 repetitions", 10.0):
        goal = _scenario_goal()

        def run_fault(fail_on=None, scripts=None, runtime_goal=None):
            ctx = _scenario_context(fail_on=fail_on, scripts=scripts)
            graph = plan(goal, ctx)
            trace = execute(graph, runtime_goal or goal, ctx, build_invoker(ctx))
            return trace

        # (a) fail on the k-th invocation, at each position in the pipeline
        for failing in (scenario.SEARCH_ID, scenario.RESERVE_ID):
            reference_trace = None
            for _ in range(20):
                trace = run_fault(fail_on={failing: (1,)})
                _abort_shape(trace)
                if reference_trace is None:
                    reference_trace = trace
                assert trace == reference_trace

        # (b) missing declared output
        scripts = {
            scenario.SEARCH_ID: ({"wrong_slot": "x"},),
            scenario.RESERVE_ID: ({"booking_confirmation": "ok"},),
        }
        reference_trace = None
        for _ in range(20):
            trace = run_fault(scripts=scripts)
            _abort_shape(trace)
            assert "missing declared output" in trace.steps[0].error
            if reference_trace is None:
                reference_trace = trace
            assert trace == reference_trace

        # (c) unsatisfiable precondition at runtime: planned with the fact
        # asserted, executed without it
        strict_goal = Goal(
            intent="book_restaurant",
            bindings=dict(scenario.SCENARIO_INPUTS),
            initial_facts=frozenset({"payment_on_file"}),
        )
        scripts = None
        reference_trace = None
        for _ in range(20):
            ctx = _scenario_context()
            patched = dict(ctx.capabilities)
            reserve = patched[scenario.RESERVE_ID][0]
            strict_reserve = type(reserve)(
                capability_id=reserve.capability_id,
                role=reserve.role,
                domain=reserve.domain,
                inputs=reserve.inputs,
                outputs=reserve.outputs,
                preconditions=("payment_on_file",) + reserve.preconditions,
                postconditions=reserve.postconditions,
            )
            patched[scenario.RESERVE_ID] = (strict_reserve, scenario.FOOD_SERVER_ID)
            strict_ctx = type(ctx)(
                capabilities=patched,
                tasks=ctx.tasks,
                directory=ctx.directory,
                provided_inputs=ctx.provided_inputs,
                server_routes=ctx.server_routes,
            )
            graph = plan(strict_goal, strict_ctx)
            trace = execute(graph, goal, strict_ctx, build_invoker(strict_ctx))
            _abort_shape(trace)
            assert "precondition not satisfied" in trace.steps[-1].error
            if reference_trace is None:
                reference_trace = trace
            assert trace == reference_trace


def test_criterion_7_directory_federation_properties():
    with criterion(7, "directory persistence, derived views, and merge laws", 30.0):
        # no capability bodies in the persisted form
        payload = save_snapshot(scenario.scenario_directory()).decode("utf-8")
        for marker in ('"inputs"', '"outputs"', '"preconditions"', '"postconditions"'):
            assert marker not in payload

        ids = [
            CapabilityId(ns, name)
            for ns in ("alpha", "beta")
            for name in ("one", "two", "three")
        ]
        rng = Random(7_007)
        for _ in range(1000):
            snapshot = empty_snapshot("fuzz")
            servers = [f"srv_{chr(ord('a') + i)}" for i in range(rng.randint(1, 3))]
            for server_id in servers:
                snapshot = bind_server_capabilities(
                    snapshot, server_id, sorted(rng.sample(ids, rng.randint(0, 4)))
                )
            for index in range(rng.randint(0, 3)):
                accessible = tuple(s for s in servers if rng.random() < 0.6) or (
                    servers[0],
                )
                snapshot = register_agent(
                    snapshot,
                    AgentRecord(f"Agent{index}", "task_executor", (), accessible),
                )

            # derived-view consistency
            for agent_id in snapshot.agents:
                executables = set(executable_capabilities(snapshot, agent_id))
                for cid in ids:
                    assert (agent_id in resolve_capability(snapshot, cid)) == (
                        cid in executables
                    )

            # merge([S, S]) resolves identically to S
            doubled = merge([snapshot, snapshot])
            for cid in ids:
                assert resolve_capability(doubled, cid) == resolve_capability(
                    snapshot, cid
                )

            # persisted form stays body-free and deterministic
            saved = save_snapshot(snapshot)
            assert saved == save_snapshot(snapshot)
            assert b'"inputs"' not in saved

        # merge precedence: earliest snapshot wins on agent collision
        first = register_agent(
            empty_snapshot("one"), AgentRecord("A", "first_role", (), ("srv_x",))
        )
        second = register_agent(
            empty_snapshot("two"), AgentRecord("A", "second_role", (), ("srv_y",))
        )
        assert merge([first, second]).agents["A"].role == "first_role"
        assert merge([second, first]).agents["A"].role == "second_role"


def test_criterion_8_protocol_conformance():
    with criterion(8, "codec round-trip, unknown-method error, config rejection", 30.0):
        rng = Random(80_808)
        for _ in range(10_000):
            assert_codec_identity(random_message(rng))

        client = LocalClient(WireServer(scenario.food_server_config()))
        with pytest.raises(WireError) as excinfo:
            client.call("no/such_method")
        assert excinfo.value.code == METHOD_NOT_FOUND

        doc = scenario.food_server_doc()
        doc["tasks"][0]["capabilities"].append("ghost.capability")
        with pytest.raises(ConfigInvalid):
            parse_server_config(doc)
