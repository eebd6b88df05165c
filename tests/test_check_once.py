"""Each declaration is checked once per process, and the memos stay bounded.

On the ``local:`` path a capability is parsed from its server's file, checked
once for the server's start-up, and parsed again at the wire boundary when
discovery reads what the server returns. Capability-id text and identifiers
are memoised per distinct string, under a fixed bound, because a directory
server reads ids from its peers for as long as it runs.
"""

from __future__ import annotations

import io
import json
from collections import Counter

import pytest

import scenario
from dalia import capabilities, discovery, wire
from dalia.canonical import canonical_bytes
from dalia.capabilities import MEMO_SIZE, MEMO_TEXT_LIMIT
from dalia.cli import main
from dalia.directory import (
    AgentRecord,
    bind_server_capabilities,
    empty_snapshot,
    register_agent,
    save_snapshot,
)
from dalia.errors import WireError
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
