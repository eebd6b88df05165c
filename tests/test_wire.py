from __future__ import annotations

import contextlib
import io
import json
import socket
import socketserver
import sys
import threading
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenario
from dalia import wire
from dalia.canonical import canonical_bytes
from dalia.capabilities import CapabilityId
from dalia.errors import (
    BindFailure,
    ConfigInvalid,
    EndpointUnreachable,
    NoSuchTask,
    ProtocolError,
    WireError,
)
from dalia.discovery import build_invoker, discover
from dalia.executor import OUTCOME_ABORTED, STATUS_FAILED, STATUS_SKIPPED, execute
from dalia.planner import Goal, plan
from dalia.serve import TcpServerHandle, _ThreadingTcpServer, serve_stdio
from dalia.wire import (
    HANDLER_FAULT,
    METHOD_NOT_FOUND,
    MISSING_INPUT,
    PARSE_ERROR,
    UNKNOWN_CAPABILITY,
    DirectoryService,
    LocalClient,
    ServerConfig,
    TcpClient,
    WireServer,
    connect_server,
    decode_request,
    frame_block,
    make_request,
    parse_server_config,
    parse_tcp_address,
    read_block,
    response_result,
)


def _food_server() -> WireServer:
    return WireServer(scenario.food_server_config())


def _client(server=None) -> LocalClient:
    return LocalClient(server or _food_server())


# -- codec ----------------------------------------------------------------------


def _random_value(rng: Random, depth: int = 0):
    choices = ["str", "int", "bool", "null", "float"]
    if depth < 2:
        choices += ["list", "dict"]
    kind = rng.choice(choices)
    if kind == "str":
        return rng.choice(["", "plain", "üñïçødé", "line\nbreak", '"quoted"'])
    if kind == "int":
        return rng.randint(-(10**9), 10**9)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "null":
        return None
    if kind == "float":
        return rng.choice([0.0, 1.5, -2.25, 3.125e8])
    if kind == "list":
        return [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {
        f"k{i}": _random_value(rng, depth + 1) for i in range(rng.randint(0, 3))
    }


def random_message(rng: Random) -> dict:
    if rng.random() < 0.5:
        return make_request(
            rng.randint(0, 10**6),
            rng.choice(["dalia/invoke", "atdp/list_tasks", "x/y", "ping"]),
            {f"p{i}": _random_value(rng) for i in range(rng.randint(0, 3))},
        )
    if rng.random() < 0.5:
        return {"jsonrpc": "2.0", "id": rng.randint(0, 10**6), "result": _random_value(rng)}
    return {
        "jsonrpc": "2.0",
        "id": rng.choice([None, rng.randint(0, 10**6)]),
        "error": {"code": rng.randint(-32099, -32000), "message": "boom"},
    }


def assert_codec_identity(message: dict) -> None:
    """A request rebuilds from what decode_request returns, and a response
    from its result or from the WireError it raises, to the same bytes."""
    if "method" in message:
        rebuilt = make_request(*decode_request(message))
    else:
        rebuilt = {"jsonrpc": "2.0", "id": message["id"]}
        try:
            rebuilt["result"] = response_result(message, message["id"])
        except WireError as exc:
            rebuilt["error"] = {"code": exc.code, "message": exc.message}
    assert canonical_bytes(rebuilt) == canonical_bytes(message)


def assert_well_formed_response(response) -> None:
    """``response`` is one a client accepts: a result, or an error it raises
    as WireError."""
    try:
        response_result(response, response["id"])
    except WireError:
        pass


def test_codec_identity_random_messages():
    rng = Random(2026)
    for _ in range(2000):
        assert_codec_identity(random_message(rng))


def test_codec_rejects_malformed_messages():
    with pytest.raises(ProtocolError):
        decode_request({"jsonrpc": "2.0", "id": "one", "method": "m", "params": {}})
    with pytest.raises(ProtocolError):
        decode_request({"jsonrpc": "1.0", "id": 1, "method": "m", "params": {}})
    with pytest.raises(ProtocolError):
        response_result({"jsonrpc": "2.0", "id": 1}, 1)
    with pytest.raises(ProtocolError):
        response_result({"jsonrpc": "2.0", "id": 1, "result": 1, "error": {"code": 1, "message": ""}}, 1)
    with pytest.raises(ProtocolError):
        response_result({"jsonrpc": "2.0", "id": 1, "error": {"code": "x", "message": ""}}, 1)


def test_frame_block_round_trip():
    rng = Random(3)
    for _ in range(200):
        obj = random_message(rng)
        reader = io.BytesIO(frame_block(obj))
        assert read_block(reader) == obj
    assert read_block(io.BytesIO(b"")) is None


def _json_body(length: int) -> bytes:
    """A JSON object exactly ``length`` (>= 8) bytes long."""
    return b'{"k":"' + b"x" * (length - 8) + b'"}'


@pytest.mark.parametrize(
    "header, body",
    [
        (b"-1", b"{}"),  # int() would mean read to EOF
        (b" 12", _json_body(12)),
        (b"12 ", _json_body(12)),
        (b"1_0", _json_body(10)),
        (b"+12", _json_body(12)),
        ("\u0661\u0662".encode(), _json_body(12)),  # Arabic-Indic digits
        (b"0x0c", _json_body(12)),
        (b"", b"{}"),
    ],
)
def test_read_block_accepts_only_unsigned_ascii_decimal_lengths(header, body):
    with pytest.raises(ProtocolError):
        read_block(io.BytesIO(header + b"\r\n\r\n" + body))


def test_read_block_refuses_a_header_over_32_bytes():
    with pytest.raises(ProtocolError) as excinfo:
        read_block(io.BytesIO(b"0" * 33 + b"2\r\n\r\n{}"))
    assert str(excinfo.value) == "oversized frame header"


def test_read_block_refuses_an_oversized_length_before_reading_the_body(monkeypatch):
    reader = io.BytesIO(b"99999999999\r\n\r\n{}")
    with pytest.raises(ProtocolError):
        read_block(reader)
    assert reader.read() == b"{}"  # the body is still unread
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 12)
    assert read_block(io.BytesIO(b"12\r\n\r\n" + _json_body(12))) == {"k": "xxxx"}
    with pytest.raises(ProtocolError):
        read_block(io.BytesIO(b"13\r\n\r\n" + _json_body(13)))


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_decoders_reject_non_finite_numbers(constant):
    body = f'{{"jsonrpc":"2.0","id":1,"method":"dalia/server_info","params":{{"x":{constant}}}}}'
    with pytest.raises(ProtocolError):
        read_block(io.BytesIO(str(len(body)).encode() + b"\r\n\r\n" + body.encode()))
    stdout = io.BytesIO()
    serve_stdio(_food_server(), stdin=io.BytesIO(body.encode() + b"\n"), stdout=stdout)
    response = json.loads(stdout.getvalue())
    assert response["id"] is None
    assert response["error"]["code"] == PARSE_ERROR


def test_deep_nesting_is_a_parse_error_on_both_transports():
    deep = "[" * 100_000
    with pytest.raises(ProtocolError):
        read_block(io.BytesIO(b"100000\r\n\r\n" + deep.encode()))
    request = canonical_bytes(make_request(5, "dalia/server_info", {}))
    stdout = io.BytesIO()
    serve_stdio(_food_server(), stdin=io.BytesIO(deep.encode() + b"\n" + request + b"\n"), stdout=stdout)
    first, second = (json.loads(line) for line in stdout.getvalue().split(b"\n") if line)
    assert first["id"] is None and first["error"]["code"] == PARSE_ERROR
    assert second == {"jsonrpc": "2.0", "id": 5, "result": {"server_id": "mcp_food_server"}}


# -- server methods ---------------------------------------------------------------


def test_list_capabilities_in_configuration_order():
    result = _client().call("dalia/list_capabilities")
    assert [doc["capability_id"] for doc in result] == [
        "restaurant.search",
        "restaurant.reserve",
    ]


def test_list_capabilities_response_round_trips_bit_exactly():
    server = _food_server()
    raw = canonical_bytes(server.handle(make_request(7, "dalia/list_capabilities", {})))
    result = response_result(json.loads(raw), 7)
    assert canonical_bytes({"jsonrpc": "2.0", "id": 7, "result": result}) == raw


def test_empty_server_lists_nothing():
    server = WireServer(ServerConfig(server_id="bare_server", capabilities=(), tasks=()))
    client = LocalClient(server)
    assert client.call("dalia/list_capabilities") == []
    assert client.call("atdp/list_tasks") == []


def test_list_tasks_configuration_order():
    assert [doc["task_id"] for doc in _client().call("atdp/list_tasks")] == [
        "restaurant.booking"
    ]


def test_server_info_reports_id():
    assert _client().call("dalia/server_info") == {"server_id": "mcp_food_server"}


def test_invoke_scenario_search():
    result = _client().call(
        "dalia/invoke",
        {
            "capability_id": "restaurant.search",
            "inputs": {"location": "city centre", "date": "tomorrow", "party_size": "4"},
        },
    )
    assert result == {"restaurant_list": scenario.RESTAURANT_LIST}


def test_invoke_missing_input_slot():
    with pytest.raises(WireError) as excinfo:
        _client().call(
            "dalia/invoke",
            {"capability_id": "restaurant.search", "inputs": {"location": "x"}},
        )
    assert excinfo.value.code == MISSING_INPUT


def test_invoke_undeclared_capability():
    with pytest.raises(WireError) as excinfo:
        _client().call("dalia/invoke", {"capability_id": "no.such", "inputs": {}})
    assert excinfo.value.code == UNKNOWN_CAPABILITY


def test_unknown_method_gives_32601_without_side_effects():
    server = _food_server()
    client = LocalClient(server)
    with pytest.raises(WireError) as excinfo:
        client.call("dalia/explode", {})
    assert excinfo.value.code == METHOD_NOT_FOUND
    # invocation counters untouched: the next scripted call is still the first
    result = client.call(
        "dalia/invoke",
        {
            "capability_id": "restaurant.search",
            "inputs": {"location": "a", "date": "b", "party_size": "c"},
        },
    )
    assert result == {"restaurant_list": scenario.RESTAURANT_LIST}


def test_fault_injector_fails_exactly_on_kth_invocation():
    for _ in range(3):  # fresh server each run: identical behavior
        config = scenario.food_server_config(
            fail_on={scenario.SEARCH_ID: (2,)},
        )
        client = LocalClient(WireServer(config))
        params = {
            "capability_id": "restaurant.search",
            "inputs": {"location": "a", "date": "b", "party_size": "c"},
        }
        assert client.call("dalia/invoke", params)  # first invocation succeeds
        with pytest.raises(WireError) as excinfo:
            client.call("dalia/invoke", params)  # second faults
        assert excinfo.value.code == HANDLER_FAULT
        assert client.call("dalia/invoke", params)  # third succeeds again


def test_handler_script_repeats_last_entry():
    config = scenario.food_server_config(
        scripts={
            scenario.SEARCH_ID: ({"restaurant_list": ["one"]}, {"restaurant_list": ["two"]}),
            scenario.RESERVE_ID: ({"booking_confirmation": "ok"},),
        }
    )
    client = LocalClient(WireServer(config))
    params = {
        "capability_id": "restaurant.search",
        "inputs": {"location": "a", "date": "b", "party_size": "c"},
    }
    assert client.call("dalia/invoke", params) == {"restaurant_list": ["one"]}
    assert client.call("dalia/invoke", params) == {"restaurant_list": ["two"]}
    assert client.call("dalia/invoke", params) == {"restaurant_list": ["two"]}


def test_default_handler_synthesizes_declared_outputs():
    config = ServerConfig(
        server_id="plain_server",
        capabilities=scenario.food_server_config().capabilities[:1],  # restaurant.search
        tasks=(),
    )
    client = LocalClient(WireServer(config))
    result = client.call(
        "dalia/invoke",
        {
            "capability_id": "restaurant.search",
            "inputs": {"location": "a", "date": "b", "party_size": "c"},
        },
    )
    assert set(result) == {"restaurant_list"}


# -- configuration validation ------------------------------------------------------


def test_parse_server_config_round_trip():
    doc = scenario.food_server_doc()
    config = parse_server_config(doc)
    assert parse_server_config(canonical_bytes(doc)) == config
    assert parse_server_config(json.dumps(doc, indent=2)) == config


def test_config_rejects_task_referencing_undeclared_capability():
    doc = scenario.food_server_doc()
    doc["tasks"][0]["capabilities"].append("ghost.capability")
    with pytest.raises(ConfigInvalid) as excinfo:
        parse_server_config(doc)
    assert any("ghost.capability" in v for v in excinfo.value.violations)


def test_config_rejects_duplicate_capability_ids():
    doc = scenario.food_server_doc()
    doc["capabilities"].append(doc["capabilities"][0])
    with pytest.raises(ConfigInvalid):
        parse_server_config(doc)


def test_config_rejects_handler_for_undeclared_capability():
    doc = scenario.food_server_doc()
    doc["handlers"]["ghost.capability"] = {"script": [{"x": 1}]}
    with pytest.raises(ConfigInvalid):
        parse_server_config(doc)


def test_config_aggregates_problems():
    with pytest.raises(ConfigInvalid) as excinfo:
        parse_server_config(
            {
                "server_id": "Bad Server",
                "capabilities": [{"capability_id": "broken"}],
                "tasks": [],
            }
        )
    assert len(excinfo.value.violations) >= 2


# -- directory service over the wire ------------------------------------------------


def test_directory_register_then_resolve():
    client = LocalClient(DirectoryService())
    client.call(
        "directory/bind_server",
        {
            "server_id": "restaurant_mcp",
            "capability_ids": ["restaurant.search", "restaurant.reserve"],
        },
    )
    client.call(
        "directory/register_agent",
        {
            "record": {
                "agent_id": "RestaurantAgent",
                "role": "task_executor",
                "domains": ["food"],
                "accessible_servers": ["restaurant_mcp"],
            }
        },
    )
    assert client.call("directory/resolve", {"capability_id": "restaurant.search"}) == [
        "RestaurantAgent"
    ]
    agents = client.call("directory/list_agents")
    assert [record["agent_id"] for record in agents] == ["RestaurantAgent"]


def test_directory_resolve_on_empty_directory():
    client = LocalClient(DirectoryService())
    assert client.call("directory/resolve", {"capability_id": "restaurant.search"}) == []


def test_directory_register_remove_register_equals_single_register():
    record = {
        "agent_id": "RestaurantAgent",
        "role": "task_executor",
        "domains": ["food"],
        "accessible_servers": ["restaurant_mcp"],
    }
    churned = LocalClient(DirectoryService())
    churned.call("directory/register_agent", {"record": record})
    churned.call("directory/remove_agent", {"agent_id": "RestaurantAgent"})
    churned.call("directory/register_agent", {"record": record})

    single = LocalClient(DirectoryService())
    single.call("directory/register_agent", {"record": record})

    churned_bytes = canonical_bytes(churned.call("directory/snapshot"))
    single_bytes = canonical_bytes(single.call("directory/snapshot"))
    assert churned_bytes == single_bytes


def test_directory_error_codes():
    client = LocalClient(DirectoryService())
    with pytest.raises(WireError) as excinfo:
        client.call("directory/register_agent", {"record": {"agent_id": ""}})
    assert excinfo.value.code == -32010
    with pytest.raises(WireError) as excinfo:
        client.call("directory/resolve", {"capability_id": "Broken!"})
    assert excinfo.value.code == -32012
    with pytest.raises(WireError) as excinfo:
        client.call(
            "directory/bind_server",
            {"server_id": "Bad Server", "capability_ids": []},
        )
    assert excinfo.value.code == -32013


def test_directory_bind_server_refuses_a_non_string_server_id():
    with pytest.raises(WireError) as excinfo:
        LocalClient(DirectoryService()).call(
            "directory/bind_server", {"server_id": 5, "capability_ids": []}
        )
    assert (excinfo.value.code, excinfo.value.message) == (-32013, "not a valid server id: 5")


@pytest.mark.parametrize(
    "error", [NoSuchTask("x"), KeyError("k")], ids=["dalia-error", "other-error"]
)
def test_an_error_without_a_code_is_an_internal_error(error):
    def failing(params):
        raise error

    dispatcher = wire._Dispatcher()
    dispatcher._methods = {"test/fail": failing}
    with pytest.raises(WireError) as excinfo:
        LocalClient(dispatcher).call("test/fail")
    assert (excinfo.value.code, excinfo.value.message) == (-32603, str(error))


# -- transports ---------------------------------------------------------------------


def test_stdio_serve_answers_and_survives_junk():
    server = _food_server()
    request = make_request(1, "dalia/list_capabilities", {})
    stdin = io.BytesIO(json.dumps(request).encode() + b"\n\n{broken json\n")
    stdout = io.BytesIO()
    serve_stdio(server, stdin=stdin, stdout=stdout)
    lines = [line for line in stdout.getvalue().splitlines() if line]
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["id"] == 1
    assert [doc["capability_id"] for doc in first["result"]] == [
        "restaurant.search",
        "restaurant.reserve",
    ]
    second = json.loads(lines[1])
    assert second["error"]["code"] == -32700


def test_tcp_round_trip_and_independent_servers():
    handle_a = TcpServerHandle(_food_server(), "127.0.0.1:0")
    config_b = ServerConfig(server_id="second_server", capabilities=(), tasks=())
    handle_b = TcpServerHandle(WireServer(config_b), "127.0.0.1:0")
    try:
        client_a = TcpClient(handle_a.address)
        client_b = TcpClient(handle_b.address)
        assert client_a.call("dalia/server_info") == {"server_id": "mcp_food_server"}
        assert client_b.call("dalia/server_info") == {"server_id": "second_server"}
        assert client_b.call("dalia/list_capabilities") == []
        client_a.close()
        client_b.close()
    finally:
        handle_a.shutdown()
        handle_b.shutdown()


def test_tcp_client_unreachable_endpoint():
    client = TcpClient("127.0.0.1:9")  # discard port: nothing listens there
    with pytest.raises(EndpointUnreachable):
        client.call("dalia/server_info")


SEARCH_PARAMS = {
    "capability_id": "restaurant.search",
    "inputs": {"location": "a", "date": "b", "party_size": "c"},
}


def _count_connects(monkeypatch) -> list:
    """Record the address of every socket.create_connection from now on."""
    opened = []
    original = socket.create_connection

    def counting(address, *args, **kwargs):
        opened.append(address)
        return original(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    return opened


def test_tcp_client_keeps_one_connection_across_calls(monkeypatch):
    handle = TcpServerHandle(_food_server(), "127.0.0.1:0")
    client = TcpClient(handle.address)
    opened = _count_connects(monkeypatch)
    try:
        for _ in range(25):
            assert client.call("dalia/server_info") == {"server_id": "mcp_food_server"}
            assert client.call("dalia/invoke", SEARCH_PARAMS) == {
                "restaurant_list": scenario.RESTAURANT_LIST
            }
        assert len(opened) == 1
    finally:
        client.close()
        handle.shutdown()


def test_tcp_client_shared_by_threads_keeps_calls_apart(monkeypatch):
    handle = TcpServerHandle(_food_server(), "127.0.0.1:0")
    client = TcpClient(handle.address)
    opened = _count_connects(monkeypatch)
    errors = []

    def worker(index):
        try:
            for _ in range(40):
                # a crossed response would fail response_result's id check or this one
                if index % 2:
                    assert client.call("dalia/server_info") == {"server_id": "mcp_food_server"}
                else:
                    assert client.call("dalia/invoke", SEARCH_PARAMS) == {
                        "restaurant_list": scenario.RESTAURANT_LIST
                    }
        except Exception as exc:  # collected and asserted on the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        client.close()
        handle.shutdown()
    assert errors == []
    assert len(opened) == 1


def test_tcp_client_reconnects_once_after_a_server_restart(monkeypatch):
    handle = TcpServerHandle(_food_server(), "127.0.0.1:0")
    address = handle.address
    client = TcpClient(address)
    opened = _count_connects(monkeypatch)
    try:
        assert client.call("dalia/invoke", SEARCH_PARAMS)
        handle.shutdown()
        scripted = scenario.food_server_config(
            scripts={
                scenario.SEARCH_ID: (
                    {"restaurant_list": ["first"]},
                    {"restaurant_list": ["second"]},
                )
            }
        )
        handle = TcpServerHandle(WireServer(scripted), address)
        # The new server's first invocation answers, so it saw the call once.
        assert client.call("dalia/invoke", SEARCH_PARAMS) == {"restaurant_list": ["first"]}
        assert client.call("dalia/invoke", SEARCH_PARAMS) == {"restaurant_list": ["second"]}
        assert len(opened) == 2
    finally:
        client.close()
        handle.shutdown()


def test_tcp_client_never_retries_a_fresh_connection(monkeypatch):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        host, port = listener.getsockname()[:2]
        client = TcpClient(f"{host}:{port}")
        opened = _count_connects(monkeypatch)

        def accept_and_close():
            conn, _ = listener.accept()
            conn.close()

        closer = threading.Thread(target=accept_and_close)
        closer.start()
        with pytest.raises((ProtocolError, EndpointUnreachable)):
            client.call("dalia/server_info")
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert len(opened) == 1


def test_tcp_client_keeps_its_connection_across_error_responses(monkeypatch):
    handle = TcpServerHandle(_food_server(), "127.0.0.1:0")
    client = TcpClient(handle.address)
    opened = _count_connects(monkeypatch)
    unknown = {"capability_id": "cafe.x", "inputs": {}}
    try:
        for _ in range(3):
            assert client.call("dalia/invoke", SEARCH_PARAMS)
            with pytest.raises(WireError) as excinfo:
                client.call("dalia/invoke", unknown)
            assert excinfo.value.code == UNKNOWN_CAPABILITY
        assert len(opened) == 1
    finally:
        client.close()
        handle.shutdown()


@pytest.mark.parametrize(
    "value", ["\udcff", float("nan"), object()], ids=["lone-surrogate", "nan", "not-json"]
)
def test_tcp_client_refuses_a_request_it_cannot_encode_and_keeps_its_connection(
    monkeypatch, value
):
    handle = TcpServerHandle(_food_server(), "127.0.0.1:0")
    client = TcpClient(handle.address)
    opened = _count_connects(monkeypatch)
    unencodable = {"capability_id": "restaurant.search", "inputs": {"location": value}}
    try:
        assert client.call("dalia/invoke", SEARCH_PARAMS)
        with pytest.raises(ProtocolError, match="cannot encode the request"):
            client.call("dalia/invoke", unencodable)
        assert client.call("dalia/invoke", SEARCH_PARAMS) == {
            "restaurant_list": scenario.RESTAURANT_LIST
        }
        assert len(opened) == 1
    finally:
        client.close()
        handle.shutdown()


def test_an_input_no_encoding_can_send_fails_its_step_over_tcp(directory_client):
    handle = TcpServerHandle(_food_server(), "127.0.0.1:0")
    goal = Goal("book_restaurant", dict(scenario.SCENARIO_INPUTS, location="\udcff"))
    try:
        ctx = discover([f"tcp:{handle.address}"], directory_client, set(goal.bindings))
        try:
            graph = plan(goal, ctx)
            trace = execute(graph, goal, ctx, build_invoker(ctx))
        finally:
            for client in ctx.server_routes.values():
                client.close()
    finally:
        handle.shutdown()
    assert trace.outcome == OUTCOME_ABORTED
    search, reserve = trace.steps
    assert search.status == STATUS_FAILED
    assert search.error.startswith(
        f"invocation failed: {handle.address}: cannot encode the request: "
    )
    assert reserve.status == STATUS_SKIPPED


@contextlib.contextmanager
def _scripted_tcp_server(replies: list):
    """A TCP server that answers request frames with ``replies`` in turn
    (None: no answer, the connection stays open), then with ``{}`` results;
    yields its address."""
    replies = list(replies)

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            with contextlib.suppress(OSError):
                while (request := read_block(self.rfile)) is not None:
                    reply = replies.pop(0) if replies else frame_block(
                        {"jsonrpc": "2.0", "id": request["id"], "result": {}}
                    )
                    if reply is not None:
                        self.wfile.write(reply)

    server = _ThreadingTcpServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,))
    thread.start()
    try:
        yield "%s:%d" % server.server_address[:2]
    finally:
        server.shutdown()
        server.close_connections()
        server.server_close()
        thread.join(timeout=10)


@pytest.mark.parametrize(
    "reply, error",
    [
        (frame_block({"jsonrpc": "2.0", "id": 1, "result": {}, "extra": 1}), ProtocolError),
        (b"x\r\n\r\n{}", ProtocolError),
        (None, EndpointUnreachable),
    ],
    ids=["response-refused", "frame-refused", "read-timeout"],
)
def test_tcp_client_drops_its_connection_after_a_failed_exchange(monkeypatch, reply, error):
    monkeypatch.setattr(wire, "CLIENT_TIMEOUT_SECONDS", 0.5)
    with _scripted_tcp_server([reply]) as address:
        client = TcpClient(address)
        opened = _count_connects(monkeypatch)
        try:
            with pytest.raises(error):
                client.call("dalia/server_info")
            # the first connection would still answer; the client opens another
            assert client.call("dalia/server_info") == {}
            assert client.call("dalia/server_info") == {}
        finally:
            client.close()
    assert len(opened) == 2


def test_tcp_shutdown_closes_live_connections():
    handle = TcpServerHandle(_food_server(), "127.0.0.1:0")
    client = TcpClient(handle.address)
    try:
        assert client.call("dalia/server_info") == {"server_id": "mcp_food_server"}
    finally:
        handle.shutdown()
    with pytest.raises(EndpointUnreachable):
        client.call("dalia/server_info")


def test_tcp_shutdown_waits_for_running_handlers():
    started, finished = threading.Event(), threading.Event()

    def slow(params):
        started.set()
        time.sleep(0.5)  # ten times serve_forever's poll, which shutdown() waits out
        finished.set()
        return {}

    dispatcher = wire._Dispatcher()
    dispatcher._methods = {"test/slow": slow}
    handle = TcpServerHandle(dispatcher, "127.0.0.1:0")
    client = TcpClient(handle.address)

    def call():
        with pytest.raises((ProtocolError, EndpointUnreachable)):
            client.call("test/slow")  # the connection is shut down mid-call

    caller = threading.Thread(target=call)
    caller.start()
    try:
        assert started.wait(timeout=10)
        handle.shutdown()
        assert finished.is_set()
    finally:
        caller.join(timeout=10)
        client.close()
    assert not caller.is_alive()


def test_idle_tcp_server_shuts_down_promptly():
    handle = TcpServerHandle(WireServer(scenario.food_server_config()), "127.0.0.1:0")
    client = TcpClient(handle.address)
    assert client.call("dalia/server_info") == {"server_id": scenario.FOOD_SERVER_ID}
    client.close()
    started = time.perf_counter()
    handle.shutdown()
    assert time.perf_counter() - started < 0.2


def _send_raw(address: str, data: bytes) -> list[dict]:
    """Send ``data`` on a new connection, half-close it, and read response
    frames until the server closes the connection."""
    frames = []
    with socket.create_connection(wire.parse_tcp_address(address), timeout=10) as conn:
        try:
            conn.sendall(data)
            conn.shutdown(socket.SHUT_WR)
            with conn.makefile("rb") as reader:
                while (obj := read_block(reader)) is not None:
                    frames.append(obj)
        except ConnectionError:
            pass  # the server closed with part of ``data`` unread
    return frames


def test_tcp_oversized_frame_gets_a_parse_error_and_the_server_keeps_serving():
    handle = TcpServerHandle(_food_server(), "127.0.0.1:0")
    client = TcpClient(handle.address)
    try:
        [response] = _send_raw(handle.address, b"99999999999\r\n\r\n")
        assert response["id"] is None
        assert response["error"]["code"] == PARSE_ERROR
        assert client.call("dalia/server_info") == {"server_id": "mcp_food_server"}
    finally:
        client.close()
        handle.shutdown()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_REQUESTS = st.fixed_dictionaries(
    {
        "jsonrpc": st.sampled_from(["2.0", "1.0"]),
        "id": st.none() | st.integers() | st.text(max_size=4),
        "method": st.sampled_from(
            ["dalia/server_info", "dalia/list_capabilities", "dalia/invoke", "atdp/list_tasks", "x/y"]
        ),
        "params": _JSON_VALUES,
    }
).map(lambda obj: json.dumps(obj).encode())
_BODIES = st.binary(max_size=200) | _REQUESTS | _JSON_VALUES.map(lambda v: json.dumps(v).encode())


def _framed(body: bytes) -> bytes:
    return str(len(body)).encode() + b"\r\n\r\n" + body


_TCP_JUNK = st.one_of(
    st.binary(max_size=200),
    _BODIES.map(_framed),
    st.lists(_BODIES.map(_framed), min_size=1, max_size=3).map(b"".join),
    st.tuples(st.integers(0, 10**12), st.binary(max_size=64)).map(
        lambda t: str(t[0]).encode() + b"\r\n\r\n" + t[1]
    ),
)


def test_tcp_server_answers_or_closes_on_random_bytes_then_serves_a_fresh_client():
    handle = TcpServerHandle(_food_server(), "127.0.0.1:0")

    @settings(max_examples=150, deadline=None)
    @given(data=_TCP_JUNK)
    def check(data):
        for frame in _send_raw(handle.address, data):
            assert_well_formed_response(frame)
        client = TcpClient(handle.address)
        try:
            assert client.call("dalia/server_info") == {"server_id": "mcp_food_server"}
        finally:
            client.close()

    try:
        check()
    finally:
        handle.shutdown()


@settings(max_examples=150, deadline=None)
@given(data=st.lists(st.binary(max_size=80) | _BODIES, max_size=4).map(b"\n".join))
def test_stdio_server_answers_every_line_of_random_bytes_then_the_next_request(data):
    request = canonical_bytes(make_request(9, "dalia/server_info", {}))
    stdout = io.BytesIO()
    serve_stdio(_food_server(), stdin=io.BytesIO(data + b"\n" + request + b"\n"), stdout=stdout)
    responses = [json.loads(line) for line in stdout.getvalue().split(b"\n") if line]
    for response in responses:
        assert_well_formed_response(response)
    assert len(responses) == sum(1 for line in data.split(b"\n") if line.strip()) + 1
    assert responses[-1] == {"jsonrpc": "2.0", "id": 9, "result": {"server_id": "mcp_food_server"}}


def test_stdio_line_longer_than_the_limit_gets_a_parse_error_and_the_next_line_is_served(
    monkeypatch,
):
    request = canonical_bytes(make_request(3, "dalia/server_info", {}))
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", len(request))
    stdin = io.BytesIO(request + b"\n" + request + b" \n" + b"x" * 100 + b"\n" + request)
    stdout = io.BytesIO()
    serve_stdio(_food_server(), stdin=stdin, stdout=stdout)
    served = {"jsonrpc": "2.0", "id": 3, "result": {"server_id": "mcp_food_server"}}
    responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert responses[0] == responses[3] == served
    for response in responses[1:3]:
        assert response["id"] is None and response["error"]["code"] == PARSE_ERROR
    assert len(responses) == 4


def test_bind_failure_on_bad_address():
    with pytest.raises(BindFailure):
        TcpServerHandle(_food_server(), "not-an-address")


@pytest.mark.parametrize(
    "port",
    ["65536", "99999", "1" * 5000, "²", "٣"],
    ids=["65536", "99999", "5000-digits", "superscript-two", "arabic-indic-three"],
)
def test_a_port_that_is_not_0_to_65535_is_a_bind_failure(port):
    with pytest.raises(BindFailure):
        TcpServerHandle(_food_server(), f"127.0.0.1:{port}")
    with pytest.raises(BindFailure):
        TcpClient(f"127.0.0.1:{port}")
    assert parse_tcp_address("h:0") == ("h", 0) and parse_tcp_address("h:065535") == ("h", 65535)


def test_connect_server_local_endpoint(tmp_path):
    path = tmp_path / "food.json"
    path.write_bytes(canonical_bytes(scenario.food_server_doc()))
    client = connect_server(f"local:{path}")
    assert client.call("dalia/server_info") == {"server_id": "mcp_food_server"}
    with pytest.raises(EndpointUnreachable):
        connect_server(f"local:{tmp_path / 'missing.json'}")


@pytest.mark.parametrize(
    "endpoint, reason",
    [(42, "42 (not an endpoint)"), ("udp:127.0.0.1:9", "udp:127.0.0.1:9 (unknown endpoint scheme)")],
    ids=["not-a-string", "unknown-scheme"],
)
def test_connectors_refuse_what_is_not_an_endpoint(endpoint, reason):
    for connect in (connect_server, wire.connect_directory):
        with pytest.raises(EndpointUnreachable) as excinfo:
            connect(endpoint)
        assert str(excinfo.value) == f"endpoint unreachable: {reason}"


# -- the wire transcript -------------------------------------------------------------

_TRANSCRIPT = Path(__file__).with_name("wire_transcript.txt")


def _transcript(section: str) -> tuple[list[bytes], dict[str, list[bytes]]]:
    """The requests of one ``[section]`` of wire_transcript.txt, and the
    response lines each transport must answer them with."""
    requests: list[bytes] = []
    responses: dict[str, list[bytes]] = {"stdio": [], "tcp": []}
    current = None
    for line in _TRANSCRIPT.read_bytes().splitlines():
        if line.startswith(b"["):
            current = line[1:-1].decode()
        elif current == section and not line.startswith(b"#"):
            tag, _, body = line.partition(b" ")
            if tag == b">":
                requests.append(body)
            for transport, lines in responses.items():
                if tag in (b"<", b"<" + transport.encode()):
                    lines.append(body)
    return requests, responses


_TRANSCRIPT_DISPATCHERS = {
    "food_server": lambda: WireServer(scenario.food_server_config()),
    "directory": lambda: DirectoryService(scenario.scenario_directory()),
}


@pytest.mark.parametrize("section", list(_TRANSCRIPT_DISPATCHERS))
def test_wire_transcript_bytes_over_stdio(section):
    requests, responses = _transcript(section)
    assert len(requests) == len(responses["stdio"]) > 10
    stdout = io.BytesIO()
    serve_stdio(
        _TRANSCRIPT_DISPATCHERS[section](),
        stdin=io.BytesIO(b"".join(request + b"\n" for request in requests)),
        stdout=stdout,
    )
    assert stdout.getvalue() == b"".join(line + b"\n" for line in responses["stdio"])


@pytest.mark.parametrize("section", list(_TRANSCRIPT_DISPATCHERS))
def test_wire_transcript_bytes_over_tcp(section):
    requests, responses = _transcript(section)
    assert len(requests) == len(responses["tcp"]) > 10
    handle = TcpServerHandle(_TRANSCRIPT_DISPATCHERS[section](), "127.0.0.1:0")
    try:
        address = wire.parse_tcp_address(handle.address)
        with socket.create_connection(address, timeout=10) as conn:
            conn.sendall(b"".join(map(_framed, requests)))
            conn.shutdown(socket.SHUT_WR)
            with conn.makefile("rb") as reader:
                received = reader.read()
    finally:
        handle.shutdown()
    assert received == b"".join(map(_framed, responses["tcp"]))


# -- client-side response checks ----------------------------------------------------


class _StubDispatcher:
    """Answers every request with ``reply(request_id)``."""

    def __init__(self, reply):
        self._reply = reply

    def handle(self, obj: dict) -> dict:
        return self._reply(obj["id"])


@pytest.mark.parametrize(
    "reply",
    [
        lambda rid: {"jsonrpc": "2.0", "id": rid + 1, "result": {}},
        lambda rid: {"jsonrpc": "2.0", "id": None, "result": {}},
        lambda rid: {"jsonrpc": "2.0", "id": rid, "result": {}, "extra": 1},
        lambda rid: {"jsonrpc": "2.0", "id": rid},
        lambda rid: {"jsonrpc": "2.0", "id": rid, "error": {"code": -32001}},
        lambda rid: {"jsonrpc": "1.0", "id": rid, "result": {}},
        lambda rid: {"jsonrpc": "2.0", "id": str(rid), "error": {"code": -32005, "message": "x"}},
        lambda rid: [rid],
    ],
    ids=[
        "other-id", "null-id", "extra-member", "no-result", "bad-error", "version",
        "string-id-error", "array",
    ],
)
def test_local_client_refuses_a_malformed_or_mismatched_response(reply):
    with pytest.raises(ProtocolError):
        LocalClient(_StubDispatcher(reply)).call("dalia/server_info")


@pytest.mark.parametrize("response_id", [None, 1, 999])
def test_local_client_raises_an_error_response_whatever_its_id(response_id):
    client = LocalClient(
        _StubDispatcher(
            lambda rid: {
                "jsonrpc": "2.0",
                "id": response_id,
                "error": {"code": -32005, "message": "refused"},
            }
        )
    )
    with pytest.raises(WireError) as excinfo:
        client.call("dalia/server_info")
    assert (excinfo.value.code, excinfo.value.message) == (-32005, "refused")
