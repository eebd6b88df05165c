"""``_Dispatcher.answer``, the byte-level entry point of both byte transports.

``answer(obj)`` must equal ``canonical_bytes(handle(obj))`` for every
request, well formed or not, although the results of the discovery methods
whose answer changes only with the dispatcher's state are encoded once per
state: per ``WireServer``, and per ``DirectorySnapshot`` value.
"""

from __future__ import annotations

import json
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenario
from dalia.canonical import canonical_bytes
from dalia.directory import snapshot_to_json
from dalia.serve import TcpServerHandle
from dalia.wire import (
    DirectoryService,
    LocalClient,
    ServerConfig,
    TcpClient,
    WireServer,
    make_request,
)
from oracles import random_instance

# 0, negative, and past the 2**53 a double holds exactly.
_IDS = st.one_of(st.sampled_from([0, -1, -(2**63), 2**53 + 1, 2**64 + 3]), st.integers())

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _without_params(obj: dict) -> dict:
    return {key: value for key, value in obj.items() if key != "params"}


# Each turns a well-formed request into another request: one still valid
# (missing params), or one ``decode_request`` refuses.
_REWRITES = [
    lambda obj: obj,
    _without_params,
    lambda obj: {**obj, "extra": 1},
    lambda obj: {**obj, "id": str(obj["id"])},
    lambda obj: {**obj, "id": True},
    lambda obj: {**obj, "id": None},
    lambda obj: {key: value for key, value in obj.items() if key != "id"},
    lambda obj: {**obj, "jsonrpc": "1.0"},
    lambda obj: {**obj, "params": [obj["params"]]},
    lambda obj: {**obj, "method": 7},
    lambda obj: {**obj, "method": [obj["method"]]},
    lambda obj: {**obj, "id": [obj["id"]]},
    lambda obj: [obj],
    lambda obj: obj["id"],
]


def _requests(methods: list[str], params: st.SearchStrategy) -> st.SearchStrategy:
    request = st.builds(make_request, _IDS, st.sampled_from([*methods, "no/such"]), params)
    return st.builds(lambda rewrite, obj: rewrite(obj), st.sampled_from(_REWRITES), request)


# -- dispatchers -----------------------------------------------------------------------


def _random_server(seed: int) -> WireServer:
    ctx = random_instance(Random(seed))
    capabilities = tuple(cap for cap, _ in ctx.capabilities.values())
    return WireServer(ServerConfig(f"server_{seed}", capabilities, tuple(ctx.tasks.values())))


def _random_directory(seed: int) -> DirectoryService:
    return DirectoryService(random_instance(Random(seed)).directory)


_SERVERS = {
    "food_server": lambda: WireServer(scenario.food_server_config()),
    **{f"random_server_{seed}": lambda seed=seed: _random_server(seed) for seed in (1, 2, 3)},
}
_DIRECTORIES = {
    "directory": lambda: DirectoryService(scenario.scenario_directory()),
    **{f"random_directory_{seed}": lambda seed=seed: _random_directory(seed) for seed in (1, 2)},
}

_CAPABILITY_IDS = st.sampled_from(
    ["restaurant.search", "restaurant.reserve", "alpha.one", "beta.two", "No.such", 5]
)
_SERVER_PARAMS = st.one_of(
    st.just({}),
    st.fixed_dictionaries(
        {
            "capability_id": _CAPABILITY_IDS,
            "inputs": st.dictionaries(
                st.sampled_from(["location", "date", "party_size", "restaurant_list", "a", "b"]),
                st.text(max_size=3),
            ),
        }
    ),
    st.dictionaries(st.text(max_size=3), _JSON, max_size=3),
)
_SERVER_IDS = st.sampled_from(["mcp_food_server", "server_a", "server_b", "new_server", "Bad"])
_RECORDS = st.fixed_dictionaries(
    {
        "agent_id": st.sampled_from(["RestaurantAgent", "Agent0", "Agent1", "NewAgent", ""]),
        "role": st.just("task_executor"),
        "domains": st.lists(st.sampled_from(["food", "fuzz"]), max_size=2),
        "accessible_servers": st.lists(_SERVER_IDS, max_size=2),
    }
)
_DIRECTORY_PARAMS = st.one_of(
    st.just({}),
    st.fixed_dictionaries({"record": _RECORDS}),
    st.fixed_dictionaries({"agent_id": st.sampled_from(["RestaurantAgent", "Agent0", "Ghost", 3])}),
    st.fixed_dictionaries(
        {"server_id": _SERVER_IDS, "capability_ids": st.lists(_CAPABILITY_IDS, max_size=3)}
    ),
    st.fixed_dictionaries({"capability_id": _CAPABILITY_IDS}),
    st.dictionaries(st.text(max_size=3), _JSON, max_size=3),
)


def _methods(make) -> list[str]:
    return sorted(make()._methods)


def _assert_same_bytes(make, requests: list) -> None:
    """Two dispatchers from ``make`` take the same requests, one through
    ``answer`` and one through ``handle``, and give the same bytes, writes
    and invocation counts included."""
    by_answer, by_handle = make(), make()
    for obj in requests:
        assert by_answer.answer(obj) == canonical_bytes(by_handle.handle(obj))


@pytest.mark.parametrize("make", list(_SERVERS.values()), ids=list(_SERVERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_server_answers_the_encoded_response_of_every_request(make, data):
    requests = data.draw(st.lists(_requests(_methods(make), _SERVER_PARAMS), max_size=12))
    _assert_same_bytes(make, requests)


@pytest.mark.parametrize("make", list(_DIRECTORIES.values()), ids=list(_DIRECTORIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_directory_answers_the_encoded_response_of_every_request(make, data):
    requests = data.draw(st.lists(_requests(_methods(make), _DIRECTORY_PARAMS), max_size=12))
    _assert_same_bytes(make, requests)


_SNAPSHOT = make_request(1, "directory/snapshot", {})
_NEW_AGENT = {
    "agent_id": "NewAgent",
    "role": "task_executor",
    "domains": ["food"],
    "accessible_servers": ["mcp_food_server"],
}
_WRITES = {
    "register": ("directory/register_agent", {"record": _NEW_AGENT}),
    "replace": (
        "directory/register_agent",
        {"record": {**_NEW_AGENT, "agent_id": "RestaurantAgent", "domains": ["other"]}},
    ),
    "remove": ("directory/remove_agent", {"agent_id": "RestaurantAgent"}),
    "remove_absent": ("directory/remove_agent", {"agent_id": "Ghost"}),
    "bind": (
        "directory/bind_server",
        {"server_id": "mcp_food_server", "capability_ids": ["restaurant.search"]},
    ),
    "refused": ("directory/bind_server", {"server_id": "Bad", "capability_ids": []}),
}


@pytest.mark.parametrize("write", list(_WRITES))
def test_a_snapshot_answer_follows_each_kind_of_write(write):
    service = DirectoryService(scenario.scenario_directory())
    before = service.answer(_SNAPSHOT)
    assert before == canonical_bytes(service.handle(_SNAPSHOT))
    method, params = _WRITES[write]
    service.answer(make_request(2, method, params))
    after = service.answer(make_request(3, "directory/snapshot", {}))
    assert after == canonical_bytes(service.handle(make_request(3, "directory/snapshot", {})))
    assert json.loads(after)["result"] == snapshot_to_json(service.snapshot)
    unchanged = write in ("remove_absent", "refused")
    assert (json.loads(after)["result"] == json.loads(before)["result"]) is unchanged


# -- state ------------------------------------------------------------------------------


def test_two_servers_in_one_process_each_answer_their_own_over_tcp():
    configs = [scenario.food_server_config(), ServerConfig("second_server", (), ())]
    handles = [TcpServerHandle(WireServer(config), "127.0.0.1:0") for config in configs]
    clients = [TcpClient(handle.address) for handle in handles]
    try:
        for _ in range(3):  # the first round encodes, the later ones splice
            for client, config in zip(clients, configs):
                assert client.call("dalia/server_info") == {"server_id": config.server_id}
                assert client.call("dalia/list_capabilities") == [
                    cap.to_json() for cap in config.capabilities
                ]
                assert client.call("atdp/list_tasks") == [task.to_json() for task in config.tasks]
    finally:
        for client in clients:
            client.close()
        for handle in handles:
            handle.shutdown()


def test_a_write_on_one_connection_shows_in_the_next_snapshot_on_another():
    service = DirectoryService(scenario.scenario_directory())
    handle = TcpServerHandle(service, "127.0.0.1:0")
    reader, writer = TcpClient(handle.address), TcpClient(handle.address)
    try:
        before = reader.call("directory/snapshot")
        assert "NewAgent" not in before["agents"]
        writer.call("directory/register_agent", {"record": _NEW_AGENT})
        after = reader.call("directory/snapshot")
        assert after["agents"]["NewAgent"] == _NEW_AGENT
        assert after == snapshot_to_json(service.snapshot)
        writer.call("directory/remove_agent", {"agent_id": "NewAgent"})
        assert reader.call("directory/snapshot") == before
    finally:
        reader.close()
        writer.close()
        handle.shutdown()


def _mutate(value) -> None:
    """Change every list and object in ``value`` in place."""
    if isinstance(value, (list, dict)):
        for item in list(value.values() if isinstance(value, dict) else value):
            _mutate(item)
    if isinstance(value, list):
        value.append("added")
    elif isinstance(value, dict):
        value["added"] = "added"


@pytest.mark.parametrize(
    "make, method",
    [
        (_SERVERS["food_server"], "dalia/list_capabilities"),
        (_SERVERS["food_server"], "atdp/list_tasks"),
        (_SERVERS["food_server"], "dalia/server_info"),
        (_DIRECTORIES["directory"], "directory/snapshot"),
        (_DIRECTORIES["directory"], "directory/list_agents"),
    ],
)
def test_local_client_answers_are_fresh_objects(make, method):
    dispatcher = make()
    request = make_request(1, method, {})
    encoded = dispatcher.answer(request)
    client = LocalClient(dispatcher)
    first = client.call(method)
    expected = json.loads(json.dumps(first))
    _mutate(first)
    assert first != expected
    assert client.call(method) == expected
    assert canonical_bytes(dispatcher.handle(request)) == dispatcher.answer(request) == encoded
