"""Exact violation lists, wording and order, for broken declarations.

Every validation error carries every rule an input breaks. These tests pin
the whole list for broken capability and task documents, server configs
(parsed, and hand-built ones refused at ``WireServer`` start-up), directory
snapshots, directory bindings, and documents a server returns during
discovery, so a change to where or how often a declaration is checked
cannot change what an operator reads.
"""

from __future__ import annotations

import copy
import io
import json

import pytest

import scenario
from dalia.atdp import parse_task
from dalia.canonical import canonical_bytes
from dalia.capabilities import Capability, CapabilityId, parse_capability
from dalia.cli import main
from dalia.directory import (
    bind_server_capabilities,
    empty_snapshot,
    load_snapshot,
    parse_agent_record,
    save_snapshot,
)
from dalia.discovery import discover
from dalia.errors import (
    ConfigInvalid,
    InvalidCapabilityId,
    InvalidRecord,
    InvariantViolation,
    MalformedDocument,
    ProtocolError,
    SchemaViolation,
    WireError,
)
from dalia.wire import (
    DirectoryService,
    LocalClient,
    ServerConfig,
    WireServer,
    parse_server_config,
)


def _violations(error_type, fn, *args) -> list[str]:
    with pytest.raises(error_type) as caught:
        fn(*args)
    assert type(caught.value) is error_type
    return caught.value.violations


# -- capability documents ---------------------------------------------------------


def test_capability_schema_and_invariant_problems_in_one_list():
    doc = {
        "capability_id": "Rest.x.y",
        "role": 3,
        "inputs": ["a", "A", 5, "a"],
        "outputs": "x",
        "preconditions": [],
        "postconditions": [],
        "extra": 1,
        "another": 2,
    }
    assert _violations(SchemaViolation, parse_capability, doc) == [
        "missing required field 'domain'",
        "unexpected field 'another' in capability document",
        "unexpected field 'extra' in capability document",
        "role must be a string, got int",
        "inputs[2] must be a string",
        "outputs must be a list, got str",
        "capability_id must have exactly two dot-separated segments: 'Rest.x.y'",
        "inputs[1] is not a lowercase identifier: 'A'",
        "duplicate entry 'a' in inputs",
        "no observable effect: outputs and postconditions both empty",
    ]


def test_capability_invariant_problems():
    doc = {
        "capability_id": "Rest.Search",
        "role": "r",
        "domain": "d",
        "inputs": ["a", "b", "Bad"],
        "outputs": ["b", "b"],
        "preconditions": ["Up"],
        "postconditions": [],
    }
    assert _violations(InvariantViolation, parse_capability, doc) == [
        "capability_id namespace is not a lowercase identifier: 'Rest'",
        "capability_id name is not a lowercase identifier: 'Search'",
        "inputs[2] is not a lowercase identifier: 'Bad'",
        "duplicate entry 'b' in outputs",
        "preconditions[0] is not a lowercase identifier: 'Up'",
        "slot 'b' appears in both inputs and outputs",
    ]


def test_capability_id_that_is_not_a_string():
    doc = {
        "capability_id": 7,
        "role": "r",
        "domain": "d",
        "inputs": [],
        "outputs": [],
        "preconditions": [],
        "postconditions": [],
    }
    assert _violations(InvariantViolation, parse_capability, doc) == [
        "capability_id must be a string, got int",
        "no observable effect: outputs and postconditions both empty",
    ]


@pytest.mark.parametrize(
    "text, expected",
    [
        (b'{"capability_id": NaN}', "capability document is not strict JSON: NaN is not a finite number"),
        ("[1]", "capability document root must be an object, got list"),
    ],
)
def test_capability_document_that_does_not_decode(text, expected):
    assert _violations(MalformedDocument, parse_capability, text) == [expected]


# -- task documents -----------------------------------------------------------------


def test_task_invariant_problems():
    doc = {
        "task_id": "t",
        "intent": "Book",
        "inputs": ["a", "a"],
        "outputs": [],
        "capabilities": ["x.y", "Bad", 3, "x.y", "a.B"],
    }
    assert _violations(InvariantViolation, parse_task, doc) == [
        "task_id must have exactly two dot-separated segments: 't'",
        "intent is not a lowercase identifier: 'Book'",
        "duplicate entry 'a' in inputs",
        "outputs must be non-empty",
        "capabilities[1] must have exactly two dot-separated segments: 'Bad'",
        "capabilities[2] must be a string, got int",
        "capabilities[4] name is not a lowercase identifier: 'B'",
        "duplicate capability x.y in capabilities",
    ]


def test_task_schema_problems_come_before_invariant_problems():
    doc = {"task_id": 1, "intent": 2, "inputs": "a", "outputs": ["o"], "capabilities": {}, "x": 0}
    assert _violations(SchemaViolation, parse_task, doc) == [
        "unexpected field 'x' in task document",
        "intent must be a string, got int",
        "inputs must be a list, got str",
        "capabilities must be a list, got dict",
        "task_id must be a string, got int",
    ]


def test_task_with_an_empty_pool():
    doc = {"task_id": "t.u", "intent": "i", "inputs": [], "outputs": ["o"], "capabilities": []}
    assert _violations(InvariantViolation, parse_task, doc) == [
        "empty capability set: a task must name at least one capability"
    ]


# -- server configurations ----------------------------------------------------------


def test_server_config_problems_from_every_part_in_order():
    doc = scenario.food_server_doc()
    doc["server_id"] = 5
    doc["colour"] = "red"
    doc["capabilities"].append(dict(doc["capabilities"][0]))
    doc["capabilities"].append(
        {
            "capability_id": "x.Y",
            "role": "r",
            "domain": "d",
            "inputs": ["Q"],
            "outputs": [],
            "preconditions": [],
            "postconditions": [],
        }
    )
    doc["tasks"].append(
        {"task_id": "t.u", "intent": "i", "inputs": [], "outputs": ["o"], "capabilities": ["no.such"]}
    )
    doc["tasks"].append(
        {"task_id": "T", "intent": "i", "inputs": [], "outputs": ["o"], "capabilities": ["a.b"]}
    )
    doc["handlers"]["Bad.key"] = {}
    doc["handlers"]["a.b.c"] = {}
    doc["handlers"]["no.such"] = {"script": {}, "fail_on": 3}
    doc["handlers"]["restaurant.search"] = {"script": [1], "fail_on": [0, "x"]}
    doc["handlers"]["restaurant.reserve"] = {"bogus": 1}
    assert _violations(ConfigInvalid, parse_server_config, doc) == [
        "unexpected config fields: ['colour']",
        "capabilities[3]: capability_id name is not a lowercase identifier: 'Y'",
        "capabilities[3]: inputs[0] is not a lowercase identifier: 'Q'",
        "capabilities[3]: no observable effect: outputs and postconditions both empty",
        "tasks[2]: task_id must have exactly two dot-separated segments: 'T'",
        "handler for restaurant.reserve must be {script?, fail_on?}",
        "handler key namespace is not a lowercase identifier: 'Bad'",
        "handler key must have exactly two dot-separated segments: 'a.b.c'",
        "handler script for no.such must be a list of output maps",
        "handler fail_on for no.such must be a list of integers",
        "server_id must be a string",
        "duplicate capability ids declared by this server",
        "task t.u references undeclared capability no.such",
        "handler script for restaurant.search must be a list of output maps",
        "handler fail_on for restaurant.search must be positive integers",
        "handler for undeclared capability no.such",
    ]


@pytest.mark.parametrize(
    "document, expected",
    [
        ({"server_id": "s", "capabilities": [], "tasks": [], "handlers": []}, "handlers must be an object"),
        ({"server_id": 5}, "server_id must be a string"),
        ({}, "server_id must be a string"),
        (
            b"\xff",
            "server config document is not strict JSON: 'utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte",
        ),
    ],
)
def test_server_config_that_cannot_be_read(document, expected):
    assert _violations(ConfigInvalid, parse_server_config, document) == [expected]


def _bad_slot() -> Capability:
    return Capability(
        CapabilityId("restaurant", "search"), "r", "d", ("location", "Not-A-Slot"), ("out",)
    )


def test_wire_server_refuses_a_hand_built_capability_with_a_bad_slot():
    config = ServerConfig("mcp_food_server", (_bad_slot(),), ())
    assert _violations(ConfigInvalid, WireServer, config) == [
        "capability restaurant.search: inputs[1] is not a lowercase identifier: 'Not-A-Slot'"
    ]


def test_wire_server_lists_every_problem_of_a_hand_built_config():
    bad_id = Capability(CapabilityId("Rest", "x.y"), "r", "d", ("a", "a"), ("a",))
    task = scenario.food_server_config().tasks[0]
    config = ServerConfig("Bad Server", (_bad_slot(), bad_id, _bad_slot()), (task,))
    assert _violations(ConfigInvalid, WireServer, config) == [
        "server_id is not a lowercase identifier: 'Bad Server'",
        "duplicate capability ids declared by this server",
        "capability restaurant.search: inputs[1] is not a lowercase identifier: 'Not-A-Slot'",
        "capability Rest.x.y: capability_id must have exactly two dot-separated segments: 'Rest.x.y'",
        "capability Rest.x.y: duplicate entry 'a' in inputs",
        "capability Rest.x.y: slot 'a' appears in both inputs and outputs",
        "task restaurant.booking references undeclared capability restaurant.reserve",
    ]


def test_wire_server_lists_a_broken_task_and_its_undeclared_capability():
    task = scenario.food_server_config().tasks[0].replace(intent="Not An Intent")
    search = _bad_slot().replace(inputs=("location",))
    config = ServerConfig("mcp_food_server", (search,), (task,))
    assert _violations(ConfigInvalid, WireServer, config) == [
        "task restaurant.booking: intent is not a lowercase identifier: 'Not An Intent'",
        "task restaurant.booking references undeclared capability restaurant.reserve",
    ]


# -- directory snapshots and bindings ---------------------------------------------


def _snapshot_doc() -> dict:
    return json.loads(save_snapshot(scenario.scenario_directory()))


def _drop_origin_and_agents(doc):
    del doc["origin"], doc["agents"]


@pytest.mark.parametrize(
    "mutate, expected",
    [
        (_drop_origin_and_agents, ["missing field 'origin'", "missing field 'agents'"]),
        (lambda doc: doc.update(origin=1), ["origin must be a string"]),
        (lambda doc: doc.update(agents=[]), ["agents and server_capabilities must be objects"]),
        (
            lambda doc: doc["agents"]["RestaurantAgent"].update(
                accessible_servers=["Bad", "Bad"], role=1, extra=1
            ),
            [
                "agent 'RestaurantAgent': unexpected field 'extra'",
                "agent 'RestaurantAgent': role must be a string",
                "agent 'RestaurantAgent': not a valid server id: 'Bad'",
                "agent 'RestaurantAgent': not a valid server id: 'Bad'",
                "agent 'RestaurantAgent': duplicate accessible server 'Bad'",
            ],
        ),
        (
            lambda doc: doc["agents"]["RestaurantAgent"].update(accessible_servers="x"),
            ["agent 'RestaurantAgent': accessible_servers must be a list of strings"],
        ),
        (
            lambda doc: doc["agents"]["RestaurantAgent"].update(agent_id="Other"),
            ["agent key 'RestaurantAgent' does not match record id 'Other'"],
        ),
        (lambda doc: doc["server_capabilities"].update(Bad=[]), ["not a valid server id: 'Bad'"]),
        (lambda doc: doc["server_capabilities"].update(s="x"), ["binding for 's' must be a list"]),
        (
            lambda doc: doc["server_capabilities"].update(s=["a.b", "Bad.C"]),
            [
                "server 's': capability_id namespace is not a lowercase identifier: 'Bad'",
                "server 's': capability_id name is not a lowercase identifier: 'C'",
            ],
        ),
        (
            lambda doc: doc["server_capabilities"].update(s=["a.b", 4]),
            ["server 's': capability_id must be a string, got int"],
        ),
        (
            lambda doc: doc["server_capabilities"].update(s=["a.b", "a.b"]),
            ["duplicate capability ids bound to 's'"],
        ),
        (
            lambda doc: doc["server_capabilities"].pop("mcp_food_server"),
            ["agent 'RestaurantAgent' references unknown server 'mcp_food_server'"],
        ),
    ],
)
def test_snapshot_problems(mutate, expected):
    doc = _snapshot_doc()
    mutate(doc)
    assert _violations(MalformedDocument, load_snapshot, json.dumps(doc)) == expected


@pytest.mark.parametrize(
    "document, expected",
    [
        (
            {"agent_id": "a", "role": 5, "domains": [], "accessible_servers": ["Bad", "Bad"],
             "extra": 1},
            [
                "unexpected field 'extra'",
                "role must be a string",
                "not a valid server id: 'Bad'",
                "not a valid server id: 'Bad'",
                "duplicate accessible server 'Bad'",
            ],
        ),
        # A missing field or a list of non-strings leaves no record to check.
        (
            {"agent_id": "a", "domains": [], "accessible_servers": ["Bad"], "extra": 1},
            ["missing field 'role'", "unexpected field 'extra'"],
        ),
        (
            {"agent_id": "", "role": 5, "domains": [1], "accessible_servers": ["Bad"]},
            ["domains must be a list of strings"],
        ),
    ],
)
def test_agent_record_problems(document, expected):
    assert _violations(InvalidRecord, parse_agent_record, document) == expected


def test_snapshot_that_does_not_decode():
    assert _violations(MalformedDocument, load_snapshot, "nope") == [
        "snapshot document is not strict JSON: Expecting value: line 1 column 1 (char 0)"
    ]


@pytest.mark.parametrize(
    "capability_ids, message",
    [
        (["a.b", "X.y"], "capability_id namespace is not a lowercase identifier: 'X'"),
        (["a.b", 3], "capability_id must be a string, got int"),
        (["a.b", "a.b"], "duplicate capability ids in binding for 's'"),
    ],
)
def test_binding_problems_directly_and_over_the_wire(capability_ids, message):
    with pytest.raises(InvalidCapabilityId) as caught:
        bind_server_capabilities(empty_snapshot(), "s", capability_ids)
    assert str(caught.value) == message
    client = LocalClient(DirectoryService(scenario.scenario_directory()))
    with pytest.raises(WireError) as over_wire:
        client.call("directory/bind_server", {"server_id": "s", "capability_ids": capability_ids})
    assert (over_wire.value.code, over_wire.value.message) == (-32012, message)


@pytest.mark.parametrize(
    "raw_id, message",
    [
        (
            "Bad.X",
            "capability_id namespace is not a lowercase identifier: 'Bad'; "
            "capability_id name is not a lowercase identifier: 'X'",
        ),
        ("a", "capability_id must have exactly two dot-separated segments: 'a'"),
        (5, "capability_id must be a string, got int"),
        (None, "capability_id must be a string, got NoneType"),
    ],
)
def test_resolve_of_a_bad_id_names_every_problem(raw_id, message):
    client = LocalClient(DirectoryService(scenario.scenario_directory()))
    with pytest.raises(WireError) as caught:
        client.call("directory/resolve", {"capability_id": raw_id})
    assert (caught.value.code, caught.value.message) == (-32012, message)


@pytest.mark.parametrize(
    "raw_id, message",
    [
        ("Bad.X", "unknown capability: 'Bad.X'"),
        (5, "unknown capability: 5"),
        (None, "unknown capability: None"),
        ("no.such", "unknown capability: no.such"),
    ],
)
def test_invoke_of_a_bad_or_unknown_id(raw_id, message):
    client = LocalClient(WireServer(scenario.food_server_config()))
    with pytest.raises(WireError) as caught:
        client.call("dalia/invoke", {"capability_id": raw_id, "inputs": {}})
    assert (caught.value.code, caught.value.message) == (-32001, message)


# -- documents a server returns during discovery ----------------------------------

BROKEN_SEARCH = {
    "capability_id": "restaurant.Search",
    "role": "information_retrieval",
    "domain": "food",
    "inputs": ["location", "location"],
    "outputs": ["restaurant_list"],
    "preconditions": [],
    "postconditions": [],
}
BROKEN_SEARCH_MESSAGE = (
    "mcp_food_server: bad capability document: "
    "capability_id name is not a lowercase identifier: 'Search'; "
    "duplicate entry 'location' in inputs"
)


class _ReturnsBrokenCapability(WireServer):
    def _list_capabilities(self, params: dict) -> list[dict]:
        return [*super()._list_capabilities(params), copy.deepcopy(BROKEN_SEARCH)]


def test_discover_refuses_a_bad_capability_document_from_a_server():
    server = LocalClient(_ReturnsBrokenCapability(scenario.food_server_config()))
    directory = LocalClient(DirectoryService(scenario.scenario_directory()))
    with pytest.raises(ProtocolError) as caught:
        discover([server], directory, set())
    assert str(caught.value) == BROKEN_SEARCH_MESSAGE


def test_discover_refuses_a_bad_task_document_from_a_server():
    class ReturnsBrokenTask(WireServer):
        def _list_tasks(self, params: dict) -> list[dict]:
            return [{"task_id": "t", "intent": "i", "inputs": [], "outputs": ["o"], "capabilities": ["a.b"]}]

    server = LocalClient(ReturnsBrokenTask(scenario.food_server_config()))
    directory = LocalClient(DirectoryService(scenario.scenario_directory()))
    with pytest.raises(ProtocolError) as caught:
        discover([server], directory, set())
    assert str(caught.value) == (
        "mcp_food_server: bad task document: "
        "task_id must have exactly two dot-separated segments: 't'"
    )


def test_discover_refuses_a_bad_snapshot_from_the_directory():
    class ReturnsBrokenSnapshot(DirectoryService):
        def _snapshot_doc(self, params: dict) -> dict:
            doc = super()._snapshot_doc(params)
            doc["server_capabilities"]["s"] = ["a.b", "a.B"]
            return doc

    server = LocalClient(WireServer(scenario.food_server_config()))
    directory = LocalClient(ReturnsBrokenSnapshot(scenario.scenario_directory()))
    with pytest.raises(ProtocolError) as caught:
        discover([server], directory, set())
    assert str(caught.value) == (
        "directory returned a bad snapshot: "
        "server 's': capability_id name is not a lowercase identifier: 'B'"
    )


def test_cli_exits_2_on_a_bad_capability_document_from_a_server(tmp_path, monkeypatch, capsys):
    server_doc = scenario.food_server_doc()
    (tmp_path / "food_server.json").write_bytes(canonical_bytes(server_doc))
    (tmp_path / "directory.json").write_bytes(save_snapshot(scenario.scenario_directory()))
    config = tmp_path / "orchestrator.json"
    config.write_text(
        json.dumps({"servers": ["local:food_server.json"], "directory": "local:directory.json"})
    )
    listed = WireServer._list_capabilities
    monkeypatch.setattr(
        WireServer,
        "_list_capabilities",
        lambda self, params: [*listed(self, params), copy.deepcopy(BROKEN_SEARCH)],
    )
    out = io.StringIO()
    for command in (["discover"], ["run", "--intent", "book_restaurant"]):
        assert main([*command, "--config", str(config), "--inputs"], out=out) == 2
        assert capsys.readouterr().err == f"ProtocolError: {BROKEN_SEARCH_MESSAGE}\n"
    assert out.getvalue() == ""
