from __future__ import annotations

import json
from random import Random

import pytest

from dalia.capabilities import CapabilityId
from dalia.directory import (
    AgentRecord,
    bind_server_capabilities,
    empty_snapshot,
    executable_capabilities,
    is_eligible,
    load_snapshot,
    merge,
    parse_agent_record,
    register_agent,
    remove_agent,
    resolve_capability,
    save_snapshot,
)
from dalia.errors import (
    InvalidCapabilityId,
    InvalidRecord,
    MalformedDocument,
    UnknownAgent,
)

RESTAURANT_AGENT = AgentRecord(
    agent_id="RestaurantAgent",
    role="task_executor",
    domains=("food",),
    accessible_servers=("mcp_food_server", "mcp_map_server"),
)

SEARCH = CapabilityId("restaurant", "search")
RESERVE = CapabilityId("restaurant", "reserve")


def scenario_snapshot():
    snapshot = register_agent(empty_snapshot("primary"), RESTAURANT_AGENT)
    return bind_server_capabilities(snapshot, "mcp_food_server", [SEARCH, RESERVE])


def test_register_agent_adds_record_and_server_keys():
    snapshot = register_agent(empty_snapshot(), RESTAURANT_AGENT)
    assert set(snapshot.agents) == {"RestaurantAgent"}
    assert set(snapshot.server_capabilities) == {"mcp_food_server", "mcp_map_server"}
    assert snapshot.server_capabilities["mcp_map_server"] == ()


def test_register_is_idempotent():
    once = register_agent(empty_snapshot(), RESTAURANT_AGENT)
    twice = register_agent(once, RESTAURANT_AGENT)
    assert once == twice


def test_register_replaces_record_wholesale():
    snapshot = register_agent(empty_snapshot(), RESTAURANT_AGENT)
    replacement = AgentRecord(
        agent_id="RestaurantAgent",
        role="booking_agent",
        domains=("food",),
        accessible_servers=("restaurant_mcp",),
    )
    snapshot = register_agent(snapshot, replacement)
    assert snapshot.agents["RestaurantAgent"] == replacement
    # old server keys survive (servers outlive agents)
    assert "mcp_food_server" in snapshot.server_capabilities


def test_register_two_agents_order_independent():
    other = AgentRecord("Atlas", "task_executor", ("maps",), ("mcp_map_server",))
    one = register_agent(register_agent(empty_snapshot(), RESTAURANT_AGENT), other)
    two = register_agent(register_agent(empty_snapshot(), other), RESTAURANT_AGENT)
    assert one == two


def test_register_rejects_invalid_record():
    with pytest.raises(InvalidRecord):
        register_agent(empty_snapshot(), AgentRecord("", "r", (), ()))
    with pytest.raises(InvalidRecord):
        register_agent(
            empty_snapshot(), AgentRecord("A", "r", (), ("dup_server", "dup_server"))
        )


def test_remove_agent_keeps_server_bindings():
    snapshot = remove_agent(scenario_snapshot(), "RestaurantAgent")
    assert snapshot.agents == {}
    assert snapshot.server_capabilities["mcp_food_server"] == (SEARCH, RESERVE)


def test_remove_absent_agent_is_noop():
    snapshot = empty_snapshot()
    assert remove_agent(snapshot, "Ghost") == snapshot


def test_register_register_remove_equals_single_register():
    a = AgentRecord("A", "r", (), ("server_a",))
    b = AgentRecord("B", "r", (), ("server_b",))
    combined = remove_agent(register_agent(register_agent(empty_snapshot(), a), b), "A")
    alone = register_agent(empty_snapshot(), b)
    assert combined.agents == alone.agents
    # server keys from A are retained in the combined snapshot
    assert set(combined.server_capabilities) == {"server_a", "server_b"}


def test_bind_server_capabilities():
    snapshot = bind_server_capabilities(empty_snapshot(), "restaurant_mcp", [SEARCH, RESERVE])
    assert snapshot.server_capabilities["restaurant_mcp"] == (SEARCH, RESERVE)


def test_bind_empty_list_resolves_nothing():
    snapshot = register_agent(empty_snapshot(), RESTAURANT_AGENT)
    snapshot = bind_server_capabilities(snapshot, "mcp_food_server", [])
    assert executable_capabilities(snapshot, "RestaurantAgent") == []
    assert resolve_capability(snapshot, SEARCH) == []


def test_rebind_overwrites():
    snapshot = bind_server_capabilities(empty_snapshot(), "s_one", [SEARCH])
    snapshot = bind_server_capabilities(snapshot, "s_one", [RESERVE])
    assert snapshot.server_capabilities["s_one"] == (RESERVE,)


def test_bind_rejects_duplicates_and_bad_ids():
    with pytest.raises(InvalidCapabilityId):
        bind_server_capabilities(empty_snapshot(), "s_one", ["restaurant.search"] * 2)
    with pytest.raises(InvalidCapabilityId):
        bind_server_capabilities(empty_snapshot(), "s_one", ["Not.Valid!"])
    with pytest.raises(InvalidCapabilityId):  # an id built in code is checked too
        bind_server_capabilities(empty_snapshot(), "s_one", [CapabilityId("Not", "valid")])


def test_executable_capabilities_sorted_lexicographically():
    snapshot = scenario_snapshot()
    assert executable_capabilities(snapshot, "RestaurantAgent") == [RESERVE, SEARCH]


def test_executable_capabilities_unknown_agent():
    with pytest.raises(UnknownAgent):
        executable_capabilities(empty_snapshot(), "Nobody")


def test_executable_capabilities_dedups_across_servers():
    agent = AgentRecord("A", "r", (), ("server_a", "server_b"))
    snapshot = register_agent(empty_snapshot(), agent)
    snapshot = bind_server_capabilities(snapshot, "server_a", [SEARCH])
    snapshot = bind_server_capabilities(snapshot, "server_b", [SEARCH])
    assert executable_capabilities(snapshot, "A") == [SEARCH]


def test_resolve_scenario():
    snapshot = scenario_snapshot()
    assert resolve_capability(snapshot, SEARCH) == ["RestaurantAgent"]
    assert resolve_capability(snapshot, CapabilityId("no", "body")) == []


def test_an_id_and_its_text_resolve_alike():
    parsed = scenario_snapshot()
    as_text = parsed.replace(
        server_capabilities={sid: tuple(map(str, ids)) for sid, ids in parsed.server_capabilities.items()}
    )
    for snapshot in (parsed, as_text):
        for cid in (SEARCH, "restaurant.search"):
            assert resolve_capability(snapshot, cid) == ["RestaurantAgent"]
            assert is_eligible(snapshot, "RestaurantAgent", cid)
        assert executable_capabilities(snapshot, "RestaurantAgent") == [RESERVE, SEARCH]
    assert save_snapshot(as_text) == save_snapshot(parsed)


def test_resolve_two_agents_sharing_a_server():
    snapshot = bind_server_capabilities(empty_snapshot(), "shared", [SEARCH])
    snapshot = register_agent(snapshot, AgentRecord("Zeta", "r", (), ("shared",)))
    snapshot = register_agent(snapshot, AgentRecord("Alpha", "r", (), ("shared",)))
    assert resolve_capability(snapshot, SEARCH) == ["Alpha", "Zeta"]


def test_merge_singleton_equal_modulo_origin():
    snapshot = scenario_snapshot()
    merged = merge([snapshot])
    assert merged.agents == snapshot.agents
    assert merged.server_capabilities == snapshot.server_capabilities
    assert merged.origin == "federation(primary)"


def test_merge_earliest_snapshot_wins_on_agent_collision():
    first = scenario_snapshot()
    redefined = AgentRecord("RestaurantAgent", "booking_agent", (), ("other_server",))
    second = register_agent(empty_snapshot("peer"), redefined)
    merged = merge([first, second])
    assert merged.agents["RestaurantAgent"] == RESTAURANT_AGENT
    # server keys union survives
    assert "other_server" in merged.server_capabilities


def test_merge_unions_server_bindings_sorted():
    one = bind_server_capabilities(empty_snapshot("a"), "shared", [SEARCH])
    two = bind_server_capabilities(empty_snapshot("b"), "shared", [RESERVE])
    merged = merge([one, two])
    assert merged.server_capabilities["shared"] == (RESERVE, SEARCH)


def _random_snapshot(rng: Random, origin: str, server_prefix: str = "server"):
    snapshot = empty_snapshot(origin)
    servers = [f"{server_prefix}_{chr(ord('a') + i)}" for i in range(rng.randint(1, 4))]
    ids = [
        CapabilityId(ns, name)
        for ns in ("alpha", "beta")
        for name in ("one", "two", "three")
    ]
    for server_id in servers:
        bound = sorted(rng.sample(ids, rng.randint(0, len(ids))))
        snapshot = bind_server_capabilities(snapshot, server_id, bound)
    for index in range(rng.randint(0, 4)):
        accessible = tuple(s for s in servers if rng.random() < 0.6) or (servers[0],)
        snapshot = register_agent(
            snapshot,
            AgentRecord(f"Agent{index}", "task_executor", ("d",), accessible),
        )
    return snapshot


def test_merge_resolution_equals_union_when_no_agent_collides():
    rng = Random(99)
    ids = [
        CapabilityId(ns, name)
        for ns in ("alpha", "beta")
        for name in ("one", "two", "three")
    ]
    for round_index in range(60):
        # disjoint agent ids and server ids: each federation member owns its own
        one = _random_snapshot(rng, "one", server_prefix="local")
        two = _random_snapshot(rng, "two", server_prefix="peer")
        renamed = empty_snapshot("two")
        for server_id, bound in two.server_capabilities.items():
            renamed = bind_server_capabilities(renamed, server_id, list(bound))
        for agent_id, record in two.agents.items():
            renamed = register_agent(
                renamed,
                AgentRecord("X" + agent_id, record.role, record.domains, record.accessible_servers),
            )
        merged = merge([one, renamed])
        for cid in ids:
            expected = sorted(
                set(resolve_capability(one, cid)) | set(resolve_capability(renamed, cid))
            )
            assert resolve_capability(merged, cid) == expected


def test_merge_with_duplicate_is_resolution_idempotent():
    rng = Random(5)
    ids = [
        CapabilityId(ns, name)
        for ns in ("alpha", "beta")
        for name in ("one", "two", "three")
    ]
    for _ in range(40):
        snapshot = _random_snapshot(rng, "solo")
        merged = merge([snapshot, snapshot])
        for cid in ids:
            assert resolve_capability(merged, cid) == resolve_capability(snapshot, cid)


def test_save_load_round_trip_scenario():
    snapshot = scenario_snapshot()
    payload = save_snapshot(snapshot)
    assert load_snapshot(payload) == snapshot
    assert payload == save_snapshot(snapshot)


def test_save_load_round_trip_empty():
    snapshot = empty_snapshot("fresh")
    assert load_snapshot(save_snapshot(snapshot)) == snapshot


def test_persisted_form_contains_no_capability_bodies():
    payload = save_snapshot(scenario_snapshot()).decode("utf-8")
    doc = json.loads(payload)
    # capability ids only: no capability definition keys anywhere
    assert '"inputs"' not in payload
    assert '"outputs"' not in payload
    assert '"preconditions"' not in payload
    assert '"postconditions"' not in payload
    for bound in doc["server_capabilities"].values():
        assert all(isinstance(entry, str) for entry in bound)


def test_load_rejects_malformed_snapshots():
    with pytest.raises(MalformedDocument):
        load_snapshot(b"{broken")
    with pytest.raises(MalformedDocument):
        load_snapshot({"origin": "x", "agents": {}})
    with pytest.raises(MalformedDocument):
        load_snapshot(
            {
                "origin": "x",
                "agents": {
                    "A": {
                        "agent_id": "A",
                        "role": "r",
                        "domains": [],
                        "accessible_servers": ["missing_server"],
                    }
                },
                "server_capabilities": {},
            }
        )


def test_derived_view_consistency_random_snapshots():
    rng = Random(123)
    ids = [
        CapabilityId(ns, name)
        for ns in ("alpha", "beta")
        for name in ("one", "two", "three")
    ]

    def brute_force_resolve(snapshot, cid):
        return sorted(
            agent_id
            for agent_id, record in snapshot.agents.items()
            if any(
                cid in snapshot.server_capabilities.get(server_id, ())
                for server_id in record.accessible_servers
            )
        )

    def derive(snapshot):
        servers = sorted(snapshot.server_capabilities)
        choice = rng.randrange(4)
        if choice == 0:
            # ids that sort before, between and after the existing AgentN ids
            agent_id = rng.choice(["Aaron", "Agent1", "Mid", "Zed"])
            accessible = tuple(s for s in servers if rng.random() < 0.6) or (servers[0],)
            record = AgentRecord(agent_id, "task_executor", ("d",), accessible)
            return register_agent(snapshot, record)
        if choice == 1:
            return remove_agent(snapshot, rng.choice(sorted(snapshot.agents) or ["Nobody"]))
        if choice == 2:
            bound = sorted(rng.sample(ids, rng.randint(0, len(ids))))
            return bind_server_capabilities(snapshot, rng.choice(servers), bound)
        return merge([_random_snapshot(rng, "peer", server_prefix="peer"), snapshot])

    for _ in range(200):
        snapshot = _random_snapshot(rng, "fuzz")
        unindexed = load_snapshot(save_snapshot(snapshot))
        for agent_id in snapshot.agents:
            executables = set(executable_capabilities(snapshot, agent_id))
            for cid in ids:
                resolved = resolve_capability(snapshot, cid)
                assert (agent_id in resolved) == (cid in executables)
        # brute-force scan agrees with resolve
        for cid in ids:
            expected = sorted(
                agent_id
                for agent_id in snapshot.agents
                if cid in executable_capabilities(snapshot, agent_id)
            )
            assert resolve_capability(snapshot, cid) == expected

        # a derived snapshot answers from its own state, the old one from its own
        derived = derive(snapshot)
        for cid in ids:
            assert resolve_capability(derived, cid) == brute_force_resolve(derived, cid)
            assert resolve_capability(snapshot, cid) == brute_force_resolve(snapshot, cid)

        # the resolution index never shows in equality or in the persisted form
        assert "_eligible_agents" in vars(snapshot)
        assert "_eligible_agents" not in vars(unindexed)
        assert snapshot == unindexed and unindexed == snapshot
        assert save_snapshot(snapshot) == save_snapshot(unindexed)


def test_parse_agent_record_round_trip():
    record = parse_agent_record(RESTAURANT_AGENT.to_json())
    assert record == RESTAURANT_AGENT
    with pytest.raises(InvalidRecord):
        parse_agent_record({"agent_id": "A"})
