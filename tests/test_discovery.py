from __future__ import annotations

import socket

import pytest

import scenario
from counting import CountingClient
from dalia import discovery
from dalia.atdp import TaskDeclaration
from dalia.canonical import canonical_bytes
from dalia.capabilities import Capability, CapabilityId
from dalia.discovery import build_invoker, context_fingerprint, discover, feasibility
from dalia.directory import snapshot_to_json
from dalia.errors import (
    DuplicateCapabilityId,
    EndpointUnreachable,
    NoSuchTask,
    ProtocolError,
    WireError,
)
from dalia.executor import execute
from dalia.planner import Goal, plan, resolve_goal
from dalia.serve import TcpServerHandle
from dalia.wire import (
    DirectoryService,
    LocalClient,
    ServerConfig,
    TcpClient,
    WireServer,
    connect_server,
    parse_tcp_address,
)

BOOKING = CapabilityId("restaurant", "booking")


def _scenario_clients():
    server = LocalClient(WireServer(scenario.food_server_config()), endpoint="food")
    directory = LocalClient(DirectoryService(scenario.scenario_directory()), endpoint="dir")
    return server, directory


def test_discover_scenario_builds_sealed_context():
    server, directory = _scenario_clients()
    ctx = discover([server], directory, set(scenario.SCENARIO_INPUTS))
    assert len(ctx.capabilities) == 2
    assert len(ctx.tasks) == 1
    assert feasibility(ctx)[BOOKING].feasible
    assert ctx.provider(scenario.SEARCH_ID) == scenario.FOOD_SERVER_ID
    assert "RestaurantAgent" in ctx.directory.agents
    assert ctx.server_routes[scenario.FOOD_SERVER_ID] is server


def test_feasibility_is_computed_only_on_request(monkeypatch, scenario_goal):
    reports = []
    original = discovery.check_feasibility

    def counting(task, catalog, provided):
        reports.append(original(task, catalog, provided))
        return reports[-1]

    monkeypatch.setattr(discovery, "check_feasibility", counting)
    server, directory = _scenario_clients()
    ctx = discover([server], directory, set(scenario.SCENARIO_INPUTS))
    trace = execute(plan(scenario_goal, ctx), scenario_goal, ctx, build_invoker(ctx))
    assert trace.outcome == "completed"
    assert reports == []
    assert feasibility(ctx) == {BOOKING: reports[0]}
    assert reports[0].feasible


def test_discover_zero_servers_empty_directory():
    directory = LocalClient(DirectoryService())
    ctx = discover([], directory, set())
    assert ctx.capabilities == {}
    assert ctx.tasks == {}
    with pytest.raises(NoSuchTask):
        resolve_goal(Goal(intent="book_restaurant", bindings={}), ctx)


def test_repeated_discovery_is_deterministic():
    server, directory = _scenario_clients()
    first = discover([server], directory, set(scenario.SCENARIO_INPUTS))
    second = discover([server], directory, set(scenario.SCENARIO_INPUTS))
    assert first.capabilities == second.capabilities
    assert first.tasks == second.tasks
    assert first.directory == second.directory
    assert feasibility(first) == feasibility(second)
    assert context_fingerprint(first) == context_fingerprint(second)


def test_fingerprint_changes_when_a_capability_is_added():
    server, directory = _scenario_clients()
    base = discover([server], directory, set(scenario.SCENARIO_INPUTS))

    extra = ServerConfig(
        server_id="extra_server",
        capabilities=(
            Capability(
                capability_id=CapabilityId("maps", "lookup"),
                role="information_retrieval",
                domain="maps",
                inputs=("location",),
                outputs=("coordinates",),
            ),
        ),
        tasks=(),
    )
    enlarged = discover(
        [server, LocalClient(WireServer(extra), endpoint="extra")],
        directory,
        set(scenario.SCENARIO_INPUTS),
    )
    assert context_fingerprint(base) != context_fingerprint(enlarged)


def test_empty_context_fingerprint_is_fixed():
    first = discover([], LocalClient(DirectoryService()), set())
    second = discover([], LocalClient(DirectoryService()), set())
    assert context_fingerprint(first) == context_fingerprint(second)


def test_unreachable_endpoint_fails_atomically():
    _, directory = _scenario_clients()
    with pytest.raises(EndpointUnreachable):
        discover(["local:/nonexistent/server.json"], directory, set())
    with pytest.raises(EndpointUnreachable):
        discover([], "local:/nonexistent/directory.json", set())


def test_duplicate_capability_id_across_servers_is_an_error():
    server_a, directory = _scenario_clients()
    clone = scenario.food_server_config()
    clone_b = ServerConfig(
        server_id="mcp_food_clone",
        capabilities=clone.capabilities,
        tasks=(),
        handlers=clone.handlers,
    )
    server_b = LocalClient(WireServer(clone_b), endpoint="clone")
    with pytest.raises(DuplicateCapabilityId) as excinfo:
        discover([server_a, server_b], directory, set())
    assert excinfo.value.capability_id in ("restaurant.search", "restaurant.reserve")


def test_duplicate_task_id_across_servers_is_an_error():
    server_a, directory = _scenario_clients()
    other = ServerConfig(
        server_id="other_food_server",
        capabilities=(
            Capability(
                capability_id=CapabilityId("bistro", "search"),
                role="information_retrieval",
                domain="food",
                inputs=("location",),
                outputs=("bistro_list",),
            ),
        ),
        tasks=(
            TaskDeclaration(
                task_id=BOOKING,
                intent="book_bistro",
                inputs=("location",),
                outputs=("bistro_list",),
                capabilities=(CapabilityId("bistro", "search"),),
            ),
        ),
    )
    server_b = LocalClient(WireServer(other), endpoint="other")
    with pytest.raises(ProtocolError):
        discover([server_a, server_b], directory, set())


def test_closed_world_no_discovery_calls_during_plan_and_execute(scenario_goal):
    server, directory = _scenario_clients()
    counting_server = CountingClient(server)
    counting_directory = CountingClient(directory)
    ctx = discover(
        [counting_server], counting_directory, set(scenario.SCENARIO_INPUTS)
    )
    assert counting_server.discovery_call_count() > 0

    before = (
        counting_server.discovery_call_count()
        + counting_directory.discovery_call_count()
    )
    graph = plan(scenario_goal, ctx)
    trace = execute(graph, scenario_goal, ctx, build_invoker(ctx))
    after = (
        counting_server.discovery_call_count()
        + counting_directory.discovery_call_count()
    )
    assert trace.outcome == "completed"
    assert after - before == 0
    # the only wire traffic during execution is invocation itself
    assert counting_server.calls.get("dalia/invoke") == 2


def test_context_invariant_task_refs_resolve_or_flag_infeasible():
    server, directory = _scenario_clients()
    ctx = discover([server], directory, set(scenario.SCENARIO_INPUTS))
    reports = feasibility(ctx)
    for task_id, task in ctx.tasks.items():
        for cid in task.capabilities:
            assert cid in ctx.capabilities or not reports[task_id].feasible


def test_invoker_serves_the_local_server_discovery_sealed(tmp_path, scenario_goal):
    path = tmp_path / "food.json"
    path.write_bytes(canonical_bytes(scenario.food_server_doc()))
    _, directory = _scenario_clients()
    ctx = discover([f"local:{path}"], directory, set(scenario.SCENARIO_INPUTS))
    rewritten = scenario.food_server_doc(
        fail_on={scenario.RESERVE_ID: (1,)},
        scripts={scenario.SEARCH_ID: ({"restaurant_list": ["rewritten"]},)},
    )
    path.write_bytes(canonical_bytes(rewritten))

    trace = execute(plan(scenario_goal, ctx), scenario_goal, ctx, build_invoker(ctx))
    assert trace.outcome == "completed"
    assert trace.final_bindings["restaurant_list"] == scenario.RESTAURANT_LIST
    assert trace.final_bindings["booking_confirmation"] == scenario.BOOKING_CONFIRMATION


def test_goal_over_tcp_opens_each_endpoint_once(monkeypatch, scenario_goal):
    food = TcpServerHandle(WireServer(scenario.food_server_config()), "127.0.0.1:0")
    directory = TcpServerHandle(DirectoryService(scenario.scenario_directory()), "127.0.0.1:0")
    opened = []
    original = socket.create_connection

    def counting(address, *args, **kwargs):
        opened.append(address)
        return original(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    ctx = None
    try:
        ctx = discover(
            [f"tcp:{food.address}"], f"tcp:{directory.address}", set(scenario.SCENARIO_INPUTS)
        )
        trace = execute(plan(scenario_goal, ctx), scenario_goal, ctx, build_invoker(ctx))
        assert trace.outcome == "completed"
        assert sorted(opened) == sorted(
            [parse_tcp_address(food.address), parse_tcp_address(directory.address)]
        )
    finally:
        if ctx is not None:
            for client in ctx.server_routes.values():
                client.close()
        food.shutdown()
        directory.shutdown()


def test_failed_discovery_closes_the_clients_it_connected(monkeypatch):
    food = TcpServerHandle(WireServer(scenario.food_server_config()), "127.0.0.1:0")
    with socket.create_server(("127.0.0.1", 0)) as listener:
        dead = "tcp:%s:%d" % listener.getsockname()[:2]  # nothing listens once closed
    connected = []

    def recording(endpoint):
        connected.append(connect_server(endpoint))
        return connected[-1]

    monkeypatch.setattr(discovery, "connect_server", recording)
    own = TcpClient(food.address)
    _, directory = _scenario_clients()
    try:
        with pytest.raises(EndpointUnreachable):
            discover([f"tcp:{food.address}", dead], directory, set())
        with pytest.raises(EndpointUnreachable):
            discover([own, dead], directory, set())
        assert connected[0]._sock is None  # connected by discovery: closed
        assert own._sock is not None  # built by the caller: still open
    finally:
        own.close()
        food.shutdown()


class _StubClient:
    """Answers each method from ``answers``; an exception there is raised."""

    def __init__(self, endpoint: str, answers: dict | None = None):
        self.endpoint = endpoint
        self._answers = {
            "dalia/server_info": {"server_id": endpoint},
            "dalia/list_capabilities": [],
            "atdp/list_tasks": [],
            "directory/snapshot": snapshot_to_json(scenario.scenario_directory()),
            **(answers or {}),
        }
        self.closed = False

    def call(self, method, params=None):
        answer = self._answers[method]
        if isinstance(answer, Exception):
            raise answer
        return answer

    def close(self):
        self.closed = True


_REFUSED = WireError(-32005, "refused")


@pytest.mark.parametrize(
    "servers, directory, message",
    [
        ([_StubClient("s1", {"dalia/server_info": _REFUSED})], _StubClient("dir"),
         "s1: wire error -32005: refused"),
        ([_StubClient("s1", {"dalia/server_info": {"id": "s1"}})], _StubClient("dir"),
         "s1: bad server_info response"),
        ([_StubClient("s1", {"dalia/server_info": ["s1"]})], _StubClient("dir"),
         "s1: bad server_info response"),
        ([_StubClient("s1"), _StubClient("s2", {"dalia/server_info": {"server_id": "s1"}})],
         _StubClient("dir"), "two endpoints report the same server id 's1'"),
        ([_StubClient("s1", {"dalia/list_capabilities": {}})], _StubClient("dir"),
         "s1: list responses must be arrays"),
        ([_StubClient("s1", {"atdp/list_tasks": "none"})], _StubClient("dir"),
         "s1: list responses must be arrays"),
        ([_StubClient("s1")], _StubClient("dir", {"directory/snapshot": _REFUSED}),
         "directory: wire error -32005: refused"),
    ],
    ids=[
        "server-info-error", "server-info-without-id", "server-info-not-an-object",
        "one-server-id-twice", "capabilities-not-an-array", "tasks-not-an-array",
        "snapshot-error",
    ],
)
def test_discover_refuses_a_bad_answer(servers, directory, message):
    with pytest.raises(ProtocolError) as excinfo:
        discover(servers, directory, set())
    assert str(excinfo.value) == message
    assert not any(client.closed for client in [*servers, directory])  # the caller's
