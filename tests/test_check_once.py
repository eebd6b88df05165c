"""Each declaration is checked once per process, each graph once per
context, and the memos stay bounded.

On the ``local:`` path a capability is parsed from its server's file, checked
once for the server's start-up, and parsed again at the wire boundary when
discovery reads what the server returns. Capability-id text and identifiers
are checked afresh each time, so a directory server that reads ids from its
peers for as long as it runs keeps none of them. Capability, task and
snapshot documents share one memo, which must parse exactly as the
unmemoised parsers do.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import string
import subprocess
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenario
from dalia import atdp, capabilities, directory, discovery, planner, wire
from dalia.atdp import parse_task
from dalia.canonical import canonical_bytes
from dalia.capabilities import (
    DOCUMENT_MEMO,
    MEMO_SIZE,
    MEMO_TEXT_BUDGET,
    Capability,
    CapabilityId,
    DocumentMemo,
    parse_capability,
)
from dalia.cli import main
from dalia.directory import (
    AgentRecord,
    DirectorySnapshot,
    bind_server_capabilities,
    empty_snapshot,
    executable_capabilities,
    load_snapshot,
    register_agent,
    save_snapshot,
    snapshot_to_json,
)
from dalia.discovery import build_invoker, context_fingerprint, discover
from dalia.errors import (
    InvalidGraph,
    InvariantViolation,
    MalformedDocument,
    ValidationError,
    WireError,
)
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
    # parsing checked each capability; the server start-up check does not again
    assert validated == Counter()
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
    assert client.call("directory/resolve", {"capability_id": "restaurant.reserve"}) == [
        "RestaurantAgent"
    ]


def test_strings_longer_than_the_limit_are_checked_but_not_kept():
    client = LocalClient(DirectoryService(scenario.scenario_directory()))
    segment = "x" * 129
    for i in range(100):
        long_id = f"{segment}{i}.{segment}"
        assert client.call("directory/resolve", {"capability_id": long_id}) == []
        with pytest.raises(WireError) as caught:
            client.call("directory/resolve", {"capability_id": f"{long_id}.x"})
        assert caught.value.message == (
            f"capability_id must have exactly two dot-separated segments: '{long_id}.x'"
        )


# -- the document memo ------------------------------------------------------------

_TOKEN_FIELDS = ("inputs", "outputs", "preconditions", "postconditions")
_IDENTIFIERS = st.builds(
    str.__add__,
    st.sampled_from(string.ascii_lowercase),
    st.text(string.ascii_lowercase + string.digits + "_", max_size=5),
)
_CAPABILITY_IDS = st.builds("{}.{}".format, _IDENTIFIERS, _IDENTIFIERS)
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


def _json_copy(document):
    return json.loads(json.dumps(document))


def _reversed_keys(document: dict) -> dict:
    return dict(reversed(document.items()))


@st.composite
def _capability_cases(draw) -> tuple[dict, list[dict]]:
    """(document, documents that warm the memo first). The document is valid
    or differs from a valid one in one way a memo could miss."""
    doc = {
        "capability_id": draw(_CAPABILITY_IDS),
        "role": draw(st.text(max_size=8)),
        "domain": draw(st.text(max_size=8)),
        **{
            name: draw(st.lists(_IDENTIFIERS, max_size=4, unique=True))
            for name in _TOKEN_FIELDS
        },
    }
    warm = [_json_copy(doc)]
    field = draw(st.sampled_from(_TOKEN_FIELDS))
    entries = doc[field]
    kind = draw(
        st.sampled_from(
            ["valid", "string", "reordered", "repeated", "scalar", "long_string",
             "long_list", "scalar_field", "list_field", "missing", "extra", "tuple",
             "reordered_keys"]
        )
    )
    if kind == "string":  # a string the kept list of its characters would equal
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
        long_token = "a" * draw(st.integers(129, 131))
        doc[field] = entries + [long_token]
    elif kind == "long_list":
        doc[field] = entries + [f"t{i}" for i in range(200)]
    elif kind == "scalar_field":
        doc[draw(st.sampled_from(["capability_id", "role", "domain"]))] = draw(_SCALARS)
    elif kind == "list_field":  # a list where a string was
        name = draw(st.sampled_from(["role", "domain"]))
        doc[name] = [doc[name]]
    elif kind == "missing":
        del doc[field]
    elif kind == "extra":
        doc["extra"] = entries
    elif kind == "tuple":  # a tuple is not a JSON list, however equal its entries
        doc[field] = tuple(entries)
    elif kind == "reordered_keys":
        doc = _reversed_keys(doc)
    return doc, warm


@st.composite
def _task_cases(draw) -> tuple[dict, list[dict]]:
    doc = {
        "task_id": draw(_CAPABILITY_IDS),
        "intent": draw(_IDENTIFIERS),
        "inputs": draw(st.lists(_IDENTIFIERS, max_size=3, unique=True)),
        "outputs": draw(st.lists(_IDENTIFIERS, min_size=1, max_size=3, unique=True)),
        "capabilities": draw(st.lists(_CAPABILITY_IDS, min_size=1, max_size=3, unique=True)),
    }
    warm = [_json_copy(doc)]
    field = draw(st.sampled_from(["inputs", "outputs", "capabilities"]))
    entries = doc[field]
    kind = draw(
        st.sampled_from(
            ["valid", "reordered_keys", "list_field", "tuple", "reordered", "repeated",
             "scalar", "extra", "missing", "empty"]
        )
    )
    if kind == "reordered_keys":
        doc = _reversed_keys(doc)
    elif kind == "list_field":  # a list where a string was
        name = draw(st.sampled_from(["task_id", "intent"]))
        warm.append(dict(doc, **{name: list(doc[name])}))
        doc[name] = [doc[name]]
    elif kind == "tuple":
        doc[field] = tuple(entries)
    elif kind == "reordered" and len(entries) > 1:
        doc[field] = entries[::-1]
    elif kind == "repeated":
        doc[field] = entries + [entries[0]] if entries else ["x.y", "x.y"]
    elif kind == "scalar":
        doc[field] = entries + [draw(_SCALARS)]
    elif kind == "extra":
        doc["extra"] = entries
    elif kind == "missing":
        del doc[field]
    elif kind == "empty":
        doc[field] = []
    return doc, warm


@st.composite
def _snapshot_cases(draw) -> tuple[dict, list[dict]]:
    servers = draw(st.lists(_IDENTIFIERS, min_size=1, max_size=3, unique=True))
    bindings = {
        server_id: draw(st.lists(_CAPABILITY_IDS, max_size=3, unique=True))
        for server_id in servers
    }
    agent_ids = draw(st.lists(st.text("ABC", min_size=1, max_size=2), max_size=3, unique=True))
    agents = {
        agent_id: {
            "agent_id": agent_id,
            "role": draw(st.text(max_size=3)),
            "domains": draw(st.lists(st.text(max_size=3), max_size=2)),
            "accessible_servers": draw(st.lists(st.sampled_from(servers), unique=True)),
        }
        for agent_id in agent_ids
    }
    doc = {"origin": draw(st.text(max_size=4)), "agents": agents, "server_capabilities": bindings}
    warm = [_json_copy(doc)]
    kind = draw(
        st.sampled_from(
            ["valid", "reordered_keys", "extra_field", "derived_field", "reordered_binding",
             "agent_key", "tuple", "list_field", "missing", "extra_agent_field",
             "repeated_binding", "unknown_server", "bad_id"]
        )
    )
    server_id = draw(st.sampled_from(servers))
    binding = bindings[server_id]
    if kind == "reordered_keys":
        doc = _reversed_keys(doc)
        doc["agents"] = _reversed_keys(agents)
        doc["server_capabilities"] = _reversed_keys(bindings)
    elif kind == "extra_field":  # ignored on load, so not compared
        doc["extra"] = draw(_SCALARS)
    elif kind == "derived_field":
        doc["derived_executable_capabilities"] = {"Nobody": ["no.such"]}
    elif kind == "reordered_binding" and len(binding) > 1:
        bindings[server_id] = binding[::-1]
    elif kind == "agent_key" and agents:
        agent_id = draw(st.sampled_from(agent_ids))
        agents[agent_id + "x"] = agents.pop(agent_id)
    elif kind == "tuple":  # a tuple where a list was
        bindings[server_id] = tuple(binding)
    elif kind == "list_field":  # a list where a string was
        warm.append(dict(doc, origin=list(doc["origin"])))
        doc["origin"] = [doc["origin"]]
    elif kind == "missing":
        del doc[draw(st.sampled_from(["origin", "agents", "server_capabilities"]))]
    elif kind == "extra_agent_field" and agents:
        agents[draw(st.sampled_from(agent_ids))]["extra"] = 1
    elif kind == "repeated_binding" and binding:
        bindings[server_id] = binding + binding[:1]
    elif kind == "unknown_server" and agents:
        agents[draw(st.sampled_from(agent_ids))]["accessible_servers"] = ["nowhere"]
    elif kind == "bad_id":
        bindings[server_id] = binding + ["Not.an_id"]
    return doc, warm


_MEMO_CASES = st.one_of(
    st.tuples(st.just((parse_capability, capabilities._parse_fields)), _capability_cases()),
    st.tuples(st.just((parse_task, atdp._parse_fields)), _task_cases()),
    st.tuples(st.just((load_snapshot, directory._load_fields)), _snapshot_cases()),
)


@settings(max_examples=600, deadline=None)
@given(case=_MEMO_CASES)
def test_a_warm_memo_parses_as_the_unmemoised_parser_does(case):
    (parse, unmemoised), (doc, warm) = case
    for document in warm:
        with contextlib.suppress(ValidationError):
            parse(document)
    expected = _outcome(unmemoised, doc)
    assert _outcome(parse, doc) == expected
    assert _outcome(parse, doc) == expected  # and again, once kept
    if isinstance(expected, DirectorySnapshot):  # the persisted form, in its order too
        assert save_snapshot(parse(doc)) == save_snapshot(expected)


def test_a_caller_that_mutates_its_document_gets_the_change():
    cap_doc = _capability_doc(0)
    first = parse_capability(cap_doc)
    assert parse_capability(cap_doc) is first  # a hit returns the kept value
    cap_doc["inputs"].append("more")
    assert parse_capability(cap_doc).inputs == ("req", "more")
    cap_doc["inputs"].append("res")
    with pytest.raises(InvariantViolation):
        parse_capability(cap_doc)

    task_doc = scenario.food_server_doc()["tasks"][0]
    task = parse_task(task_doc)
    task_doc["capabilities"].reverse()
    assert parse_task(task_doc).capabilities == task.capabilities[::-1]

    snapshot_doc = snapshot_to_json(scenario.scenario_directory())
    snapshot = load_snapshot(snapshot_doc)
    assert load_snapshot(snapshot_doc) is snapshot
    snapshot_doc["agents"]["RestaurantAgent"]["domains"].append("drinks")
    changed = load_snapshot(snapshot_doc)
    assert changed.agents["RestaurantAgent"].domains == ("food", "drinks")
    snapshot_doc["server_capabilities"]["mcp_food_server"].pop()
    assert load_snapshot(snapshot_doc).server_capabilities["mcp_food_server"] == (
        snapshot.server_capabilities["mcp_food_server"][:-1]
    )


def test_a_snapshot_hits_the_memo_with_or_without_its_derived_view(monkeypatch):
    saved = snapshot_to_json(scenario.scenario_directory())
    without = {name: saved[name] for name in directory.SNAPSHOT_FIELDS}  # as the benchmarks send
    stale = dict(saved, derived_executable_capabilities={"Nobody": ["no.such"]})

    def unbuilt(snapshot):
        raise AssertionError("a load built the derived view")

    monkeypatch.setattr(directory, "snapshot_to_json", unbuilt)
    for document in (without, stale):
        DOCUMENT_MEMO.clear()
        kept = load_snapshot(document)  # a miss keeps and charges the stored fields only
        [(stored, _, charge)] = DOCUMENT_MEMO._entries.values()
        assert stored == without
        assert charge == DOCUMENT_MEMO.text == capabilities._text_length(without)
        assert load_snapshot(document) is kept
        assert load_snapshot(without) is kept and load_snapshot(stale) is kept
        assert "_executable" not in vars(kept)


def test_snapshot_to_json_returns_fresh_containers():
    snapshot = scenario.scenario_directory()
    saved = save_snapshot(snapshot)
    first = snapshot_to_json(snapshot)
    for section in ("agents", "server_capabilities", "derived_executable_capabilities"):
        for value in first[section].values():
            (value["domains"] if section == "agents" else value).append("changed.by_caller")
        first[section]["added"] = []
    executable_capabilities(snapshot, "RestaurantAgent").clear()
    assert save_snapshot(snapshot) == saved
    assert snapshot_to_json(snapshot) == json.loads(saved)
    assert executable_capabilities(snapshot, "RestaurantAgent") == [
        CapabilityId("restaurant", "reserve"), CapabilityId("restaurant", "search")
    ]


def test_the_document_memo_keeps_at_most_memo_size_valid_documents():
    DOCUMENT_MEMO.clear()
    for i in range(MEMO_SIZE + 500):
        assert parse_capability(_capability_doc(i)).capability_id == CapabilityId(f"memo{i}", "cap")
        with pytest.raises(InvariantViolation):  # a slot that is an input and an output
            parse_capability(_capability_doc(i, inputs=("res",)))
    assert len(DOCUMENT_MEMO) == MEMO_SIZE
    assert DOCUMENT_MEMO.text <= MEMO_TEXT_BUDGET
    # the oldest kept went first; the latest are still kept
    latest = parse_capability(_capability_doc(MEMO_SIZE + 499))
    assert parse_capability(_capability_doc(MEMO_SIZE + 499)) is latest
    DOCUMENT_MEMO.clear()
    for i in range(100):
        with pytest.raises(InvariantViolation):
            parse_capability(_capability_doc(i, inputs=("res",)))
        with pytest.raises(MalformedDocument):
            load_snapshot({"origin": f"o{i}", "agents": [], "server_capabilities": {}})
    assert len(DOCUMENT_MEMO) == 0  # an invalid document is never kept


def test_documents_over_the_text_bound_are_parsed_but_not_kept():
    DOCUMENT_MEMO.clear()
    small = parse_capability(_capability_doc(0))
    kept = len(DOCUMENT_MEMO), DOCUMENT_MEMO.text
    huge = "a" * MEMO_TEXT_BUDGET
    for i in range(3):
        doc = _capability_doc(i, inputs=[huge])
        assert parse_capability(doc).inputs == (huge,)
        with pytest.raises(InvariantViolation):
            parse_capability(dict(doc, outputs=[huge]))
    # nothing was kept, and nothing kept was dropped to make room
    assert (len(DOCUMENT_MEMO), DOCUMENT_MEMO.text) == kept == (1, kept[1])
    assert parse_capability(_capability_doc(0)) is small


def test_the_memo_drops_the_oldest_kept_to_stay_within_its_budget():
    docs = [_capability_doc(i) for i in range(4)]
    charge = capabilities._text_length(docs[0])
    assert all(capabilities._text_length(doc) == charge for doc in docs)
    memo = DocumentMemo(size=MEMO_SIZE, budget=3 * charge)

    def parse(doc):
        return memo.parse(
            "capability", doc["capability_id"], doc,
            lambda: capabilities._parse_fields(doc), Capability.to_json,
        )

    kept = [parse(doc) for doc in docs[:3]]
    assert parse(docs[0]) is kept[0]  # a hit, which leaves docs[0] the oldest kept
    parse(docs[3])
    assert (len(memo), memo.text) == (3, 3 * charge)
    assert parse(docs[1]) is kept[1] and parse(docs[2]) is kept[2]
    assert parse(docs[0]) is not kept[0]  # dropped, so parsed afresh
    assert parse(docs[0]) == kept[0]


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
    assert CapabilityId._fields == ("namespace", "name")
    assert cid.replace(name="reserve") == CapabilityId("restaurant", "reserve")


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
    tampered = graph.replace(edges=graph.edges[:1] * 2)
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


# -- one eligibility read and one precondition simulation per node and goal ----------


def test_a_goal_resolves_each_node_once_and_simulates_its_order_once(
    monkeypatch, scenario_context, scenario_goal
):
    resolved = _counting(monkeypatch, planner, "resolve_capability", lambda args, _: args[1])
    simulated = _counting(
        monkeypatch, planner, "_first_precondition_defect", lambda args, _: (id(args[1]), id(args[2]))
    )
    graph = plan(scenario_goal, scenario_context)
    assert validate_graph(graph, scenario_goal, scenario_context).ok
    trace = execute(graph, scenario_goal, scenario_context, build_invoker(scenario_context))
    assert trace.outcome == OUTCOME_COMPLETED
    assert resolved == Counter(node.capability_id for node in graph.nodes)
    assert all(count == 1 for count in resolved.values())
    assert list(simulated.values()) == [1]

    # another goal, however equal, and a parsed or tampered graph are simulated afresh
    equal_goal = planner.Goal(scenario_goal.intent, dict(scenario_goal.bindings))
    assert validate_graph(graph, equal_goal, scenario_context).ok
    parsed = planner.parse_graph(planner.canonical_serialize_graph(graph))
    assert validate_graph(parsed, scenario_goal, scenario_context).ok
    tampered = graph.replace(source_bindings=())
    assert not validate_graph(tampered, scenario_goal, scenario_context).ok
    assert sum(simulated.values()) == 4
    assert resolved == Counter(node.capability_id for node in graph.nodes)


# -- the memo under threads ---------------------------------------------------------


def _in_threads(work, count: int = 8) -> list[BaseException]:
    """Run ``work(i)`` in ``count`` threads with a short switch interval;
    the exceptions they raised."""
    errors: list[BaseException] = []

    def run(i):
        try:
            work(i)
        except BaseException as exc:  # reported to the test thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def test_concurrent_discovery_rounds_agree(food_client, directory_client):
    inputs = set(scenario.SCENARIO_INPUTS)
    expected = context_fingerprint(discover([food_client], directory_client, inputs))
    DOCUMENT_MEMO.clear()
    fingerprints: list[str] = []

    def discover_rounds(_):
        for _ in range(25):
            ctx = discover([food_client], directory_client, inputs)
            fingerprints.append(context_fingerprint(ctx))

    assert _in_threads(discover_rounds) == []
    assert fingerprints == [expected] * 200
    assert DOCUMENT_MEMO.text == sum(text for _, _, text in DOCUMENT_MEMO._entries.values())


def test_a_memo_shared_by_threads_keeps_its_bounds_and_its_values():
    docs = [_capability_doc(i) for i in range(16)]
    memo = DocumentMemo(size=4, budget=3 * capabilities._text_length(docs[0]))

    def parse_in_turn(offset):
        for k in range(300):
            doc = docs[(k + offset) % len(docs)]
            cap = memo.parse(
                "capability", doc["capability_id"], doc,
                lambda: capabilities._parse_fields(doc), Capability.to_json,
            )
            assert cap.capability_id.render() == doc["capability_id"]

    assert _in_threads(parse_in_turn) == []
    assert len(memo) <= 3
    assert memo.text == sum(text for _, _, text in memo._entries.values()) <= memo.budget
