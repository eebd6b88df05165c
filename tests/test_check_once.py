"""Each declaration is checked once per process, each graph once per
context, and the memos stay bounded.

On the ``local:`` path a capability is parsed from its server's file, checked
once for the server's start-up, and parsed again at the wire boundary when
discovery reads what the server returns. Capability-id text and identifiers
are memoised per distinct string, under a fixed bound, because a directory
server reads ids from its peers for as long as it runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenario
from dalia import capabilities, discovery, planner, wire
from dalia.canonical import canonical_bytes
from dalia.capabilities import (
    MEMO_DOCUMENT_TEXT_LIMIT,
    MEMO_SIZE,
    MEMO_TEXT_LIMIT,
    CapabilityId,
    parse_capability,
)
from dalia.cli import main
from dalia.directory import (
    AgentRecord,
    bind_server_capabilities,
    empty_snapshot,
    register_agent,
    save_snapshot,
)
from dalia.discovery import build_invoker, discover
from dalia.errors import InvalidGraph, InvariantViolation, ValidationError, WireError
from dalia.executor import OUTCOME_COMPLETED, execute
from dalia.planner import plan, structural_violations, validate_graph
from dalia.wire import DirectoryService, LocalClient

LINKS = 12


def _chain_server(server_id: str) -> dict:
    """A server with one task: a chain of LINKS capabilities from req to res."""
    slots = ["req", *(f"{server_id}_s{i}" for i in range(1, LINKS)), "res"]
    caps = [
        {
            "capability_id": f"{server_id}.link{i}",
            "role": "step",
            "domain": "chain",
            "inputs": [slots[i]],
            "outputs": [slots[i + 1]],
            "preconditions": [],
            "postconditions": [],
        }
        for i in range(LINKS)
    ]
    task = {
        "task_id": f"{server_id}.task",
        "intent": f"run_{server_id}",
        "inputs": ["req"],
        "outputs": ["res"],
        "capabilities": [cap["capability_id"] for cap in caps],
    }
    return {"server_id": server_id, "capabilities": caps, "tasks": [task], "handlers": {}}


def _write_local_config(tmp_path, server_ids) -> str:
    snapshot = empty_snapshot()
    for server_id in server_ids:
        doc = _chain_server(server_id)
        (tmp_path / f"{server_id}.json").write_bytes(canonical_bytes(doc))
        ids = [cap["capability_id"] for cap in doc["capabilities"]]
        snapshot = bind_server_capabilities(snapshot, server_id, ids)
    agent = AgentRecord("ChainAgent", "task_executor", ("chain",), tuple(server_ids))
    snapshot = register_agent(snapshot, agent)
    (tmp_path / "directory.json").write_bytes(save_snapshot(snapshot))
    config = tmp_path / "orchestrator.json"
    config.write_text(
        json.dumps(
            {
                "servers": [f"local:{server_id}.json" for server_id in server_ids],
                "directory": "local:directory.json",
            }
        )
    )
    return str(config)


def _counting(monkeypatch, module, name: str, key) -> Counter:
    counts: Counter = Counter()
    original = getattr(module, name)

    def counted(*args):
        result = original(*args)
        counts[key(args, result)] += 1
        return result

    monkeypatch.setattr(module, name, counted)
    return counts


def test_a_local_run_checks_each_capability_once_per_check(tmp_path, monkeypatch):
    server_ids = ["alpha", "beta", "gamma"]
    config = _write_local_config(tmp_path, server_ids)
    validated = _counting(
        monkeypatch, wire, "validate_capability", lambda args, _: args[0].capability_id
    )
    parsed_from_file = _counting(
        monkeypatch, wire, "parse_capability", lambda _, cap: cap.capability_id
    )
    parsed_at_boundary = _counting(
        monkeypatch, discovery, "parse_capability", lambda _, cap: cap.capability_id
    )
    out = io.StringIO()
    args = ["run", "--config", config, "--intent", "run_beta", "--inputs", "req=x"]
    assert main(args, out=out) == 0
    assert json.loads(out.getvalue())["outcome"] == "completed"

    declared = {
        capabilities.CapabilityId(server_id, f"link{i}")
        for server_id in server_ids
        for i in range(LINKS)
    }
    # the server start-up check runs once per capability, not once per caller
    assert validated == Counter(dict.fromkeys(declared, 1))
    assert parsed_from_file == Counter(dict.fromkeys(declared, 1))
    # the wire boundary stays: discovery parses every document a server returns
    assert parsed_at_boundary == Counter(dict.fromkeys(declared, 1))


def test_memos_stay_bounded_under_more_distinct_ids_than_they_hold():
    client = LocalClient(DirectoryService(scenario.scenario_directory()))
    sent = MEMO_SIZE + 500
    for i in range(sent):
        assert client.call("directory/resolve", {"capability_id": f"peer{i}.cap{i}"}) == []
        with pytest.raises(WireError) as caught:
            client.call("directory/resolve", {"capability_id": f"Peer{i}.cap"})
        assert (caught.value.code, caught.value.message) == (
            -32012,
            f"capability_id namespace is not a lowercase identifier: 'Peer{i}'",
        )
        if i % 1000 == 0:
            # a bound id resolves the same however much the memos churn
            assert client.call(
                "directory/resolve", {"capability_id": "restaurant.search"}
            ) == ["RestaurantAgent"]
    for memo in (capabilities._parse_id_text, capabilities._matches_identifier):
        info = memo.cache_info()
        assert info.misses > MEMO_SIZE  # more distinct strings than the memo holds
        assert info.maxsize == MEMO_SIZE
        assert info.currsize <= MEMO_SIZE
    assert client.call("directory/resolve", {"capability_id": "restaurant.reserve"}) == [
        "RestaurantAgent"
    ]


def test_strings_longer_than_the_limit_are_checked_but_not_kept():
    client = LocalClient(DirectoryService(scenario.scenario_directory()))
    memos = (capabilities._parse_id_text, capabilities._matches_identifier)
    for memo in memos:
        memo.cache_clear()
    segment = "x" * (MEMO_TEXT_LIMIT + 1)
    for i in range(100):
        long_id = f"{segment}{i}.{segment}"
        assert client.call("directory/resolve", {"capability_id": long_id}) == []
        with pytest.raises(WireError) as caught:
            client.call("directory/resolve", {"capability_id": f"{long_id}.x"})
        assert caught.value.message == (
            f"capability_id must have exactly two dot-separated segments: '{long_id}.x'"
        )
    assert [memo.cache_info().currsize for memo in memos] == [0, 0]


# -- the capability-document memo ----------------------------------------------

_TOKEN_FIELDS = ("inputs", "outputs", "preconditions", "postconditions")
_IDENTIFIERS = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
_SCALARS = st.one_of(st.integers(-2, 2), st.booleans(), st.floats(-1, 1), st.none())


def _capability_doc(i: int, inputs=("req",), outputs=("res",)) -> dict:
    return {
        "capability_id": f"memo{i}.cap",
        "role": "step",
        "domain": "memo",
        "inputs": list(inputs),
        "outputs": list(outputs),
        "preconditions": [],
        "postconditions": [],
    }


def _outcome(parse, document):
    """The parse result, or the type and message of what it raised."""
    try:
        return parse(document)
    except ValidationError as exc:
        return type(exc), str(exc)


@st.composite
def _near_miss_documents(draw) -> tuple[dict, list[dict]]:
    """(document, documents that warm the memo first). The document is valid
    or differs from a valid one in one way a memo key could miss."""
    doc = {
        "capability_id": draw(_IDENTIFIERS) + "." + draw(_IDENTIFIERS),
        "role": draw(st.text(max_size=8)),
        "domain": draw(st.text(max_size=8)),
        **{
            name: draw(st.lists(_IDENTIFIERS, max_size=4, unique=True))
            for name in _TOKEN_FIELDS
        },
    }
    warm = [json.loads(json.dumps(doc))]
    field = draw(st.sampled_from(_TOKEN_FIELDS))
    entries = doc[field]
    kind = draw(
        st.sampled_from(
            ["valid", "string", "reordered", "repeated", "scalar", "long_string",
             "over_bound", "scalar_field", "missing", "extra", "tuple"]
        )
    )
    if kind == "string":  # a string the memoised list of its characters would match
        text = draw(st.text(alphabet="abcdef", min_size=1, max_size=4))
        warm.append(dict(doc, **{field: list(text)}))
        doc[field] = text
    elif kind == "reordered" and len(entries) > 1:
        doc[field] = entries[::-1]
    elif kind == "repeated" and entries:
        doc[field] = entries + [entries[0]]
    elif kind == "scalar":
        doc[field] = entries + [draw(_SCALARS)]
    elif kind == "long_string":
        long_token = "a" * (MEMO_TEXT_LIMIT + draw(st.integers(1, 3)))
        doc[field] = entries + [long_token]
    elif kind == "over_bound":
        doc[field] = entries + [f"t{i}" for i in range(MEMO_DOCUMENT_TEXT_LIMIT // 2)]
    elif kind == "scalar_field":
        doc[draw(st.sampled_from(["capability_id", "role", "domain"]))] = draw(_SCALARS)
    elif kind == "missing":
        del doc[field]
    elif kind == "extra":
        doc["extra"] = entries
    elif kind == "tuple":  # a tuple is not a JSON list, however equal its entries
        doc[field] = tuple(entries)
    return doc, warm


@settings(max_examples=400, deadline=None)
@given(case=_near_miss_documents())
def test_a_warm_memo_parses_as_the_unmemoised_parser_does(case):
    doc, warm = case
    for document in warm:
        with contextlib.suppress(ValidationError):
            parse_capability(document)
    expected = _outcome(capabilities._parse_fields, doc)
    assert _outcome(parse_capability, doc) == expected
    assert _outcome(parse_capability, doc) == expected  # and again, once kept


def test_the_document_memo_keeps_at_most_memo_size_valid_documents():
    memo = capabilities._parse_memoised
    memo.cache_clear()
    for i in range(MEMO_SIZE + 500):
        assert parse_capability(_capability_doc(i)).capability_id == CapabilityId(f"memo{i}", "cap")
        with pytest.raises(InvariantViolation):  # a slot that is an input and an output
            parse_capability(_capability_doc(i, inputs=("res",)))
    info = memo.cache_info()
    assert info.maxsize == MEMO_SIZE
    assert info.misses > MEMO_SIZE
    assert info.currsize == MEMO_SIZE
    memo.cache_clear()
    for i in range(100):
        with pytest.raises(InvariantViolation):
            parse_capability(_capability_doc(i, inputs=("res",)))
    assert memo.cache_info().currsize == 0  # an invalid document is never kept


def test_documents_over_the_text_bound_are_parsed_but_not_kept():
    memo = capabilities._parse_memoised
    memo.cache_clear()
    many = [f"in{i}" for i in range(MEMO_DOCUMENT_TEXT_LIMIT // 3)]
    for i in range(100):
        doc = _capability_doc(i, inputs=many)
        assert parse_capability(doc).inputs == tuple(many)
        with pytest.raises(InvariantViolation):
            parse_capability(dict(doc, outputs=many[:1]))
    assert memo.cache_info().currsize == 0
    fits = _capability_doc(0, inputs=many[: len(many) // 2])
    parse_capability(fits)
    assert memo.cache_info().currsize == 1


# -- CapabilityId's hash ---------------------------------------------------------


@given(namespace=st.text(), name=st.text())
def test_a_capability_id_hashes_as_its_field_tuple(namespace, name):
    assert hash(CapabilityId(namespace, name)) == hash((namespace, name))


def test_a_capability_id_keeps_its_fields_equality_order_and_repr():
    cid = CapabilityId("restaurant", "search")
    assert cid != ("restaurant", "search")
    assert cid == CapabilityId("restaurant", "search")
    assert sorted([CapabilityId("b", "a"), CapabilityId("a", "b"), CapabilityId("a", "a")]) == [
        CapabilityId("a", "a"), CapabilityId("a", "b"), CapabilityId("b", "a"),
    ]
    assert repr(cid) == "CapabilityId(namespace='restaurant', name='search')"
    assert [f.name for f in dataclasses.fields(cid)] == ["namespace", "name"]
    assert dataclasses.replace(cid, name="reserve") == CapabilityId("restaurant", "reserve")


def test_a_capability_id_computes_its_hash_once():
    cid = CapabilityId("restaurant", "search")
    before = hash(cid)
    object.__setattr__(cid, "name", "reserve")  # behind the frozen guard
    assert hash(cid) == before != hash(("restaurant", "reserve"))


def test_an_unpickled_capability_id_hashes_with_its_own_process_seed():
    script = (
        "import pickle, sys; from dalia.capabilities import CapabilityId\n"
        "if sys.argv[1] == 'dump':\n"
        "    sys.stdout.buffer.write(pickle.dumps(CapabilityId('restaurant', 'search')))\n"
        "else:\n"
        "    cid = pickle.loads(sys.stdin.buffer.read())\n"
        "    assert hash(cid) == hash(('restaurant', 'search'))\n"
        "    assert cid in {CapabilityId('restaurant', 'search')}\n"
    )
    dumped = subprocess.run(
        [sys.executable, "-c", script, "dump"],
        capture_output=True, check=True, timeout=30,
        env={**os.environ, "PYTHONHASHSEED": "1"},
    )
    loaded = subprocess.run(
        [sys.executable, "-c", script, "load"],
        input=dumped.stdout, capture_output=True, timeout=30,
        env={**os.environ, "PYTHONHASHSEED": "2"},
    )
    assert (loaded.returncode, loaded.stderr) == (0, b"")


# -- one structural check per (graph, context) --------------------------------------


def test_the_structural_check_runs_once_per_graph_and_context(
    monkeypatch, food_client, directory_client, scenario_goal
):
    contexts = [
        discover([food_client], directory_client, set(scenario_goal.bindings)) for _ in range(2)
    ]
    checked = _counting(monkeypatch, planner, "_structural_defects", lambda args, _: id(args[1]))
    graph = plan(scenario_goal, contexts[0])
    assert validate_graph(graph, scenario_goal, contexts[0]).ok
    trace = execute(graph, scenario_goal, contexts[0], build_invoker(contexts[0]))
    assert trace.outcome == OUTCOME_COMPLETED
    assert checked == Counter({id(contexts[0]): 1})

    # another context, however equal, is checked afresh, and then kept instead
    assert structural_violations(graph, contexts[1]) == []
    assert structural_violations(graph, contexts[1]) == []
    assert checked == Counter({id(contexts[0]): 1, id(contexts[1]): 1})


def test_each_caller_gets_its_own_list_of_structural_defects(scenario_context, scenario_goal):
    graph = plan(scenario_goal, scenario_context)
    tampered = dataclasses.replace(graph, edges=graph.edges[:1] * 2)
    first = structural_violations(tampered, scenario_context)
    assert first  # the repeated edge gives the consumer's slot two producers
    report = validate_graph(tampered, scenario_goal, scenario_context)
    assert report.violations == first
    first.append("appended by a caller")
    report.violations.clear()
    with pytest.raises(InvalidGraph) as caught:
        execute(tampered, scenario_goal, scenario_context, build_invoker(scenario_context))
    assert caught.value.violations == structural_violations(tampered, scenario_context)
    assert "appended by a caller" not in caught.value.violations
    assert caught.value.violations == validate_graph(
        tampered, scenario_goal, scenario_context
    ).violations
