"""One rule set per declaration kind: a capability, task or snapshot built in
code is refused exactly when its document parser refuses the same fields,
with the parser's messages.

Each case draws the fields once, builds the value from them directly and
writes them as the document a client would receive, then compares
``validate_capability``, ``WireServer`` start-up and ``DirectoryService``
start-up with ``parse_capability``, ``parse_task`` and ``load_snapshot``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dalia.atdp import TaskDeclaration, parse_task
from dalia.capabilities import (
    Capability,
    CapabilityId,
    is_checked,
    parse_capability,
    parse_capability_id,
    validate_capability,
)
from dalia.directory import AgentRecord, DirectorySnapshot, load_snapshot
from dalia.errors import ConfigInvalid, ValidationError
from dalia.wire import DirectoryService, ServerConfig, WireServer

# Small alphabets, so that valid identifiers, repeats and overlaps are common.
_TOKENS = st.text(alphabet="abA_1 ", max_size=3)
_FIELDS = st.one_of(_TOKENS, st.integers(-1, 1), st.lists(_TOKENS, max_size=4))
_SEGMENTS = st.text(alphabet="abA_.", max_size=3)
_IDS = st.builds(CapabilityId, _SEGMENTS, _SEGMENTS)
_SERVERS = st.sampled_from(["s", "t", "Bad"])


def _built(value, as_tuple=True):
    """A drawn field as a value built in code holds it: a list as a tuple, or
    as the list itself when ``as_tuple`` is false."""
    return tuple(value) if as_tuple and isinstance(value, list) else value


def _refusal(parse, document) -> list[str]:
    try:
        parse(document)
    except ValidationError as exc:
        return exc.violations
    return []


def _start_up(start, *args) -> list[str]:
    try:
        start(*args)
    except ConfigInvalid as exc:
        return exc.violations
    return []


def _prefixed(prefix: str, violations: list[str]) -> list[str]:
    """As ``ServerConfig.problems`` lists them: prefixed, each once."""
    return list(dict.fromkeys(f"{prefix}{v}" for v in violations))


@settings(max_examples=400, deadline=None)
@given(cid=_IDS, role=_FIELDS, domain=_FIELDS, lists=st.lists(_FIELDS, min_size=4, max_size=4))
def test_a_hand_built_capability_is_refused_as_its_document_is(cid, role, domain, lists):
    document = {
        "capability_id": str(cid),
        "role": role,
        "domain": domain,
        **dict(zip(("inputs", "outputs", "preconditions", "postconditions"), lists)),
    }
    expected = _refusal(parse_capability, document)
    try:
        cap = Capability(cid, role, domain, *map(_built, lists))
    except TypeError:  # its slots are no collection: it cannot be built at all
        assert expected
        return
    assert not is_checked(cap)
    assert validate_capability(cap).violations == expected
    config = ServerConfig("s", (cap,), ())
    assert _start_up(WireServer, config) == _prefixed(f"capability {cid}: ", expected)


@settings(max_examples=400, deadline=None)
@given(
    task_id=_IDS,
    intent=_FIELDS,
    inputs=_FIELDS,
    outputs=_FIELDS,
    pool=st.one_of(_TOKENS, st.integers(-1, 1), st.lists(_IDS, max_size=3)),
    as_tuple=st.booleans(),
)
def test_a_hand_built_task_is_refused_as_its_document_is(
    task_id, intent, inputs, outputs, pool, as_tuple
):
    rendered = [str(cid) for cid in pool] if isinstance(pool, list) else pool
    document = {
        "task_id": str(task_id),
        "intent": intent,
        "inputs": inputs,
        "outputs": outputs,
        "capabilities": rendered,
    }
    expected = _refusal(parse_task, document)
    fields = (_built(field, as_tuple) for field in (inputs, outputs, pool))
    task = TaskDeclaration(task_id, intent, *fields)
    # every pool id that is capability-id text is declared, so only an id the
    # parser refuses is also listed as undeclared
    ids = pool if isinstance(pool, list) else []
    declared = dict.fromkeys(cid for cid in ids if not parse_capability_id(str(cid))[1])
    undeclared = [f"references undeclared capability {cid}" for cid in ids if cid not in declared]
    capabilities = tuple(Capability(cid, "r", "d", (), ("done",)) for cid in declared)
    config = ServerConfig("s", capabilities, (task,))
    assert _start_up(WireServer, config) == (
        _prefixed(f"task {task_id}: ", expected) + _prefixed(f"task {task_id} ", undeclared)
    )


@st.composite
def _snapshot_fields(draw):
    """(origin, agent fields by key, bindings by server id), keys sorted as a
    saved snapshot's are."""
    origin = draw(_FIELDS)
    agents = {}
    for key in sorted(draw(st.sets(st.sampled_from(["A", "B", ""]), max_size=2))):
        agents[key] = {
            "agent_id": draw(st.one_of(st.just(key), _FIELDS)),
            "role": draw(_FIELDS),
            "domains": draw(_FIELDS),
            "accessible_servers": draw(st.one_of(_FIELDS, st.lists(_SERVERS, max_size=3))),
        }
    servers = sorted(draw(st.sets(_SERVERS, max_size=3)))
    bindings = {server_id: draw(st.lists(_IDS, max_size=3)) for server_id in servers}
    return origin, agents, bindings


@settings(max_examples=400, deadline=None)
@given(fields=_snapshot_fields())
def test_a_hand_built_snapshot_is_refused_as_its_document_is(fields):
    origin, agents, bindings = fields
    document = {
        "origin": origin,
        "agents": agents,
        "server_capabilities": {
            server_id: [str(cid) for cid in ids] for server_id, ids in bindings.items()
        },
    }
    expected = _refusal(load_snapshot, document)
    snapshot = DirectorySnapshot(
        {
            key: AgentRecord(*(_built(record[name]) for name in record))
            for key, record in agents.items()
        },
        {server_id: tuple(ids) for server_id, ids in bindings.items()},
        origin,
    )
    assert not is_checked(snapshot)
    assert _start_up(DirectoryService, snapshot) == expected


@pytest.mark.parametrize(
    ("start", "value", "expected"),
    [
        (
            lambda cap: WireServer(ServerConfig("s", (cap,), ())),
            Capability(CapabilityId("a", "b"), 5, ["d"], ("x",), ("y",)),
            [
                "capability a.b: role must be a string, got int",
                "capability a.b: domain must be a string, got list",
            ],
        ),
        (
            lambda task: WireServer(ServerConfig("s", (), (task,))),
            TaskDeclaration(CapabilityId("t", "u"), "Not An Intent", (), (), ()),
            [
                "task t.u: intent is not a lowercase identifier: 'Not An Intent'",
                "task t.u: outputs must be non-empty",
                "task t.u: empty capability set: a task must name at least one capability",
            ],
        ),
        (
            DirectoryService,
            DirectorySnapshot({"A": AgentRecord("A", "r", (), ("ghost",))}, {}, "o"),
            ["agent 'A' references unknown server 'ghost'"],
        ),
        (
            lambda cap: WireServer(ServerConfig("s", (cap,), ())),
            Capability("a.b", "r", "d", (), ("y",)),
            ["capability a.b: capability_id must be a CapabilityId, got str"],
        ),
        (
            lambda task: WireServer(ServerConfig("s", (), (task,))),
            TaskDeclaration("t.u", "i", (), ("y",), ("a.b", ["a"])),
            [
                "task t.u: task_id must be a CapabilityId, got str",
                "task t.u: capabilities[0] must be a CapabilityId, got str",
                "task t.u: capabilities[1] must be a CapabilityId, got list",
            ],
        ),
        (
            DirectoryService,
            DirectorySnapshot({}, {"s": ("a.b",)}, "o"),
            ["server 's': capability_id must be a CapabilityId, got str"],
        ),
        (
            DirectoryService,
            DirectorySnapshot({}, {"s": 5}, "o"),
            ["binding for 's' must be a list"],
        ),
    ],
    ids=["capability", "task", "snapshot", "str-capability-id", "str-task-ids", "str-bound-id",
         "int-binding"],
)
def test_start_up_refuses_what_a_client_would(start, value, expected):
    assert _start_up(start, value) == expected
