"""Oracles for the per-call and per-value costs cut from the codec, framing,
dispatch and node paths: each fast path against the code it replaced, kept
here as the reference."""

from __future__ import annotations

import io
import json
import math
import pickle
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scenario
from dalia import atdp, capabilities, directory, wire
from dalia.canonical import canonical_bytes, strict_loads
from dalia.capabilities import (
    DOCUMENT_MEMO,
    Capability,
    CapabilityId,
    parse_capability_id,
    slot_known_fact,
)
from dalia.directory import load_snapshot, save_snapshot
from dalia.errors import ConfigInvalid, ProtocolError, WireError
from dalia.executor import _run_node
from dalia.planner import Node
from dalia.wire import DirectoryService, WireServer, make_request, parse_server_config, read_block

# -- framing: the header read by line against the byte loop ---------------------------


def reference_read_block(reader: io.BufferedIOBase) -> dict | None:
    """``read_block`` as it was, reading the header one byte at a time."""
    header = bytearray()
    while not header.endswith(b"\r\n\r\n"):
        byte = reader.read(1)
        if not byte:
            if header:
                raise ProtocolError("connection closed mid-frame")
            return None
        header += byte
        if len(header) > 32:
            raise ProtocolError("oversized frame header")
    digits = bytes(header[:-4])
    if not digits.isdigit():
        raise ProtocolError(f"bad frame length: {digits!r}")
    length = int(digits)
    if length > wire.MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {wire.MAX_FRAME_BYTES} bytes")
    body = reader.read(length)
    if body is None or len(body) != length:
        raise ProtocolError("connection closed mid-frame")
    try:
        return strict_loads(body)
    except ValueError as exc:
        raise ProtocolError(f"frame body is not strict JSON: {exc}") from exc


def _outcome(read, data: bytes, buffered: bool):
    """(value or (exception type, message), position afterwards)."""
    stream = io.BytesIO(data)
    reader = io.BufferedReader(stream, buffer_size=8) if buffered else stream
    try:
        value = read(reader)
    except ProtocolError as exc:
        value = type(exc), str(exc)
    return value, reader.tell()


_HEADER_BYTES = st.lists(
    st.sampled_from([b"\r", b"\n", b"\r\n", b"\r\n\r\n", b"0", b"1", b"2", b"9", b" ", b"x"]),
    max_size=24,
).map(b"".join)


@st.composite
def _frames(draw) -> bytes:
    """A header of CR/LF and digit pieces, or one of 31-34 bytes, then a body."""
    if draw(st.booleans()):
        header = draw(_HEADER_BYTES)
    else:
        size = draw(st.integers(31, 34))
        header = b"0" * (size - 4 - 1) + b"2\r\n\r\n"
    body = draw(st.sampled_from([b"{}", b'{"k":1}', b"[1]", b"{", b"", b"\r\n\r\n"]))
    return header + body + draw(st.binary(max_size=4))


@settings(max_examples=300, deadline=None)
@given(data=_frames())
@example(data=b"2\r\n\r\n{}")
@example(data=b"0" * 28 + b"2\r\n\r\n{}")  # a 33-byte header
@example(data=b"0" * 27 + b"2\r\n\r\n{}")  # a 32-byte header
@example(data=b"\n\r\n\r\n\r\n")
def test_read_block_agrees_with_the_byte_loop_at_every_eof_offset(data):
    for end in range(len(data) + 1):
        for buffered in (False, True):
            assert _outcome(read_block, data[:end], buffered) == _outcome(
                reference_read_block, data[:end], buffered
            ), (data[:end], buffered)


# -- codec: one prebuilt encoder against json.dumps ---------------------------------


def reference_canonical_bytes(obj) -> bytes:
    text = json.dumps(obj, separators=(",", ":"), ensure_ascii=False, allow_nan=False)
    return text.encode("utf-8")


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(st.characters(codec="utf-8")),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


def _encoded(encode, obj):
    try:
        return encode(obj)
    except (ValueError, TypeError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(obj=_JSON)
@example(obj={"ü": ["日本", 1.5, -0.0, 1e300, {"a": None}]})
def test_canonical_bytes_agrees_with_json_dumps(obj):
    assert _encoded(canonical_bytes, obj) == _encoded(reference_canonical_bytes, obj)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_canonical_bytes_refuses_nan_and_infinities(value):
    with pytest.raises(ValueError):
        canonical_bytes({"x": [value]})


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", 1j])
def test_canonical_bytes_refuses_non_json_types(value):
    with pytest.raises(TypeError):
        canonical_bytes({"x": value})


# -- node path: output checks and cached facts ------------------------------------------


def reference_output_error(cap: Capability, outputs: dict, bindings: dict) -> str | None:
    """``_run_node``'s output checks as they were, each list built every time."""
    missing = [slot for slot in cap.outputs if slot not in outputs]
    if missing:
        return f"missing declared output slot(s): {', '.join(missing)}"
    extra = sorted(set(outputs) - set(cap.outputs))
    if extra:
        return f"undeclared output slot(s): {', '.join(extra)}"
    rebound = [slot for slot in cap.outputs if slot in bindings]
    if rebound:
        return f"slot {rebound[0]!r} is already bound"
    return None


class _Returns:
    def __init__(self, outputs: dict):
        self.outputs = outputs

    def invoke(self, server_id, capability_id, inputs):
        return self.outputs


_SLOTS = st.sampled_from(["a", "b", "c", "d", "e"])


@settings(max_examples=300, deadline=None)
@given(
    declared=st.lists(_SLOTS, min_size=1, unique=True),
    received=st.lists(_SLOTS, unique=True),
    bound=st.lists(_SLOTS, unique=True),
)
@example(declared=["a", "b"], received=["b"], bound=[])  # missing
@example(declared=["a"], received=["a", "c", "b"], bound=[])  # undeclared
@example(declared=["a", "b"], received=["b", "c"], bound=[])  # both
@example(declared=["c", "a", "b"], received=["b", "e", "d"], bound=[])  # both, several each
def test_run_node_reports_output_defects_as_before(declared, received, bound):
    cap = Capability(CapabilityId("ns", "step"), "r", "d", ("in",), tuple(declared), (), ("done",))
    node = Node(0, cap.capability_id, "agent", "server")
    bindings = {"in": 1, **{slot: 0 for slot in bound}}
    facts: set[str] = set()
    outputs = {slot: slot.upper() for slot in received}
    expected = reference_output_error(cap, outputs, bindings)
    before = dict(bindings)

    inputs, got, failure = _run_node(node, cap, bindings, facts, _Returns(outputs))

    assert inputs == {"in": 1}
    assert failure == expected
    if expected is None:
        assert got == outputs and bindings == {**before, **outputs}
        assert facts == {"done", *(slot_known_fact(slot) for slot in declared)}
    else:
        assert got == {} and bindings == before and facts == set()


def test_a_capability_id_renders_its_fields_after_pickling_and_replace():
    cid = CapabilityId("restaurant", "search")
    assert cid.render() == str(cid) == "restaurant.search"
    assert pickle.loads(pickle.dumps(cid)).render() == "restaurant.search"
    assert cid.replace(name="reserve").render() == "restaurant.reserve"
    assert cid.replace(namespace="bistro").render() == "bistro.search"


def _facts(cap: Capability) -> tuple:
    return cap.input_set, cap.output_set, cap.effects


def test_capability_facts_follow_its_fields_after_replace_and_pickling():
    cap = Capability(CapabilityId("ns", "step"), "r", "d", ("x", "y"), ("z",), ("p",), ("q",))
    assert _facts(cap) == ({"x", "y"}, {"z"}, {"q", "z_known"})
    changed = cap.replace(inputs=("w",), outputs=("u", "v"), postconditions=())
    assert _facts(changed) == ({"w"}, {"u", "v"}, {"u_known", "v_known"})
    assert _facts(pickle.loads(pickle.dumps(changed))) == _facts(changed)
    assert Capability._fields == (
        "capability_id", "role", "domain", "inputs", "outputs", "preconditions", "postconditions",
    )
    assert cap == cap.replace() and hash(cap) == hash(cap.replace())


# -- server configs and snapshots: each parsed value checked once by its parser -----------


def _counting_validations(monkeypatch) -> Counter:
    counts: Counter = Counter()
    original = wire.validate_capability

    def counted(cap):
        counts[cap.capability_id] += 1
        return original(cap)

    monkeypatch.setattr(wire, "validate_capability", counted)
    return counts


def _counting_parsers(monkeypatch) -> Counter:
    """Calls of the capability, task and snapshot field parsers, by kind."""
    counts: Counter = Counter()
    for kind, module, name in (
        ("capability", capabilities, "_parse_fields"),
        ("task", atdp, "_parse_fields"),
        ("snapshot", directory, "_load_fields"),
    ):
        def counted(data, kind=kind, original=getattr(module, name)):
            counts[kind] += 1
            return original(data)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_a_parsed_config_runs_no_second_validation(monkeypatch):
    validated = _counting_validations(monkeypatch)
    parsed = _counting_parsers(monkeypatch)
    for module in (capabilities, atdp, directory):  # a parser's ids need no type check
        monkeypatch.setattr(module, "id_type_problems", None)
    DOCUMENT_MEMO.clear()  # so that each document is parsed once, here
    config = parse_server_config(scenario.food_server_doc())
    WireServer(config)
    snapshot = load_snapshot(save_snapshot(scenario.scenario_directory()))
    DirectoryService(snapshot)
    assert config.capabilities and config.tasks and config.problems == []
    assert validated == Counter()
    assert parsed == Counter(
        capability=len(config.capabilities), task=len(config.tasks), snapshot=1
    )


def test_a_hand_built_task_or_snapshot_runs_its_parser_once(monkeypatch):
    config = parse_server_config(scenario.food_server_doc())
    snapshot = scenario.scenario_directory().replace()
    parsed = _counting_parsers(monkeypatch)
    config = config.replace(tasks=tuple(task.replace() for task in config.tasks))
    WireServer(config)
    WireServer(config)
    DirectoryService(snapshot)
    assert parsed == Counter(task=len(config.tasks), snapshot=1)


def test_a_hand_built_capability_in_a_parsed_config_is_still_refused(monkeypatch):
    validated = _counting_validations(monkeypatch)
    parsed = parse_server_config(scenario.food_server_doc())
    search, reserve = parsed.capabilities
    bad = search.replace(inputs=("Not-A-Slot",))
    config = parsed.replace(capabilities=(bad, reserve))
    with pytest.raises(ConfigInvalid) as excinfo:
        WireServer(config)
    assert excinfo.value.violations == [
        "capability restaurant.search: inputs[0] is not a lowercase identifier: 'Not-A-Slot'"
    ]
    assert validated == Counter({search.capability_id: 1})


# -- dispatch: the invoke lookup by rendered id against parse-then-lookup ------------------


class ReferenceServer(WireServer):
    """``WireServer`` with ``_invoke`` as it was: the id parsed, then looked
    up among the declared ``CapabilityId``s."""

    def __init__(self, config):
        super().__init__(config)
        self._by_id = {cap.capability_id: cap for cap in config.capabilities}
        self._methods["dalia/invoke"] = self._reference_invoke

    def _reference_invoke(self, params: dict) -> dict:
        raw_id = params.get("capability_id")
        cid, problems = parse_capability_id(raw_id)
        if problems:
            raise WireError(wire.UNKNOWN_CAPABILITY, f"unknown capability: {raw_id!r}")
        cap = self._by_id.get(cid)
        if cap is None:
            raise WireError(wire.UNKNOWN_CAPABILITY, f"unknown capability: {cid}")
        inputs = params.get("inputs", {})
        if not isinstance(inputs, dict):
            raise WireError(wire.INVALID_PARAMS, "inputs must be an object")
        for slot in cap.inputs:
            if slot not in inputs:
                raise WireError(wire.MISSING_INPUT, f"missing input slot: {slot}")
        with self._lock:
            self._invocations[cid] = self._invocations.get(cid, 0) + 1
            count = self._invocations[cid]
        spec = self.config.handlers.get(cid)
        if spec is not None and count in spec.fail_on:
            raise WireError(
                wire.HANDLER_FAULT, f"scripted fault on invocation {count} of {cid}"
            )
        if spec is not None and spec.script:
            return dict(spec.script[min(count - 1, len(spec.script) - 1)])
        return {slot: f"{slot} produced by {cid}" for slot in cap.outputs}


_SEARCH = CapabilityId("restaurant", "search")
_RESERVE = CapabilityId("restaurant", "reserve")
_SLOTS = ("location", "date", "party_size", "restaurant_list")
_SEGMENTS = st.text("abcrestaurnch_.A1", min_size=1, max_size=8)
_INVOKE_IDS = st.one_of(
    st.sampled_from([_SEARCH.render(), _RESERVE.render()]),  # declared
    st.builds("{}.{}".format, _SEGMENTS, _SEGMENTS),  # undeclared or malformed
    st.text(max_size=12),  # malformed
    st.integers(129, 131).map(lambda n: "r" * n + ".search"),  # over 128 characters
    st.integers(129, 131).map(lambda n: "restaurant." + "s" * n),
    st.integers(),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_INVOKE_INPUTS = st.one_of(
    st.dictionaries(st.sampled_from(_SLOTS), st.just("v")),
    st.just({slot: "v" for slot in _SLOTS}),
    st.integers(),
    st.lists(st.text(max_size=2), max_size=2),
)


@st.composite
def _invoke_params(draw) -> dict:
    params = {}
    if draw(st.integers(0, 9)):  # one call in ten carries no id at all
        params["capability_id"] = draw(_INVOKE_IDS)
    if draw(st.booleans()):
        params["inputs"] = draw(_INVOKE_INPUTS)
    return params


@settings(max_examples=300, deadline=None)
@given(st.lists(_invoke_params(), max_size=12))
def test_invoke_answers_as_parse_then_lookup_did(calls):
    config = scenario.food_server_config(
        fail_on={_SEARCH: (2,), _RESERVE: (1, 3)},
        scripts={_SEARCH: ({"restaurant_list": "first"}, {"restaurant_list": "later"})},
    )
    server, reference = WireServer(config), ReferenceServer(config)
    for request_id, params in enumerate(calls, 1):
        request = make_request(request_id, "dalia/invoke", params)
        assert server.handle(request) == reference.handle(request)
