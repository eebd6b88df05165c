from __future__ import annotations

import json
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dalia.canonical import canonical_bytes
from dalia.capabilities import (
    Capability,
    CapabilityId,
    load_document,
    parse_capability,
    validate_capability,
)
from dalia.errors import (
    InvariantViolation,
    MalformedDocument,
    SchemaViolation,
    ValidationError,
)
from scenario import RESERVE_DOC, SEARCH_DOC


def test_parse_restaurant_search_document():
    cap = parse_capability(SEARCH_DOC)
    assert cap.capability_id == CapabilityId("restaurant", "search")
    assert cap.role == "information_retrieval"
    assert cap.domain == "food"
    assert cap.inputs == ("location", "date", "party_size")
    assert cap.outputs == ("restaurant_list",)
    assert cap.preconditions == ("location_known",)
    assert cap.postconditions == ("results_available",)


def test_parse_accepts_source_capability_with_empty_inputs():
    doc = dict(SEARCH_DOC, inputs=[])
    cap = parse_capability(doc)
    assert cap.inputs == ()


def test_parse_rejects_slot_in_both_inputs_and_outputs():
    doc = dict(SEARCH_DOC, outputs=["location"])
    with pytest.raises(InvariantViolation) as excinfo:
        parse_capability(doc)
    assert any("location" in violation for violation in excinfo.value.violations)


def test_parse_accepts_json_text_and_bytes():
    text = json.dumps(SEARCH_DOC)
    assert parse_capability(text) == parse_capability(text.encode("utf-8"))


def test_parse_rejects_unparseable_text():
    with pytest.raises(MalformedDocument):
        parse_capability("{not json")
    with pytest.raises(MalformedDocument):
        parse_capability("[1, 2]")


# JSON text as json.dumps writes it, with NaN, Infinity and escaped lone
# surrogates among the values, which strict JSON must refuse.
_LOOSE_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(st.characters(), max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
).map(lambda value: json.dumps(value).encode())


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=64) | _LOOSE_JSON)
@example(b"[" * 100_000)
@example(b'{"x": NaN}')
@example(b'{"x": -1e999}')
@example(b'{"x": "\\ud800"}')
@example(b'{"x": "\xff"}')
def test_load_document_returns_a_re_encodable_dict_or_raises_malformed(data):
    try:
        document = load_document(data, "x")
    except MalformedDocument:
        return
    assert isinstance(document, dict)
    assert load_document(canonical_bytes(document), "x") == document


def test_parse_rejects_unknown_field():
    with pytest.raises(SchemaViolation):
        parse_capability(dict(SEARCH_DOC, version=2))


def test_validate_scenario_capability_is_clean():
    assert validate_capability(parse_capability(SEARCH_DOC)).ok


def test_validate_flags_unobservable_capability():
    cap = Capability(
        capability_id=CapabilityId("a", "noop"),
        role="r",
        domain="d",
        inputs=("x",),
        outputs=(),
        postconditions=(),
    )
    report = validate_capability(cap)
    assert any("no observable effect" in violation for violation in report.violations)


def test_empty_outputs_with_postconditions_is_observable():
    cap = Capability(
        capability_id=CapabilityId("a", "asserter"),
        role="r",
        domain="d",
        inputs=("x",),
        outputs=(),
        postconditions=("done",),
    )
    assert validate_capability(cap).ok


def test_validate_flags_uppercase_identifier():
    cap = Capability(
        capability_id=CapabilityId("Restaurant", "Search"),
        role="r",
        domain="d",
        inputs=(),
        outputs=("x",),
    )
    report = validate_capability(cap)
    assert any("not a lowercase identifier" in violation for violation in report.violations)


def test_capability_id_round_trip_and_ordering():
    cid = CapabilityId.parse("restaurant.search")
    assert cid.render() == "restaurant.search"
    assert CapabilityId.parse(cid.render()) == cid
    rendered = ["a.z", "a.b", "ab.a", "b.a", "a.b_c"]
    parsed = sorted(CapabilityId.parse(text) for text in rendered)
    assert [cid.render() for cid in parsed] == sorted(rendered)


@pytest.mark.parametrize("bad", ["restaurant", "a.b.c", "Restaurant.search", "a.", ".b", "9a.b", 7])
def test_capability_id_rejects_bad_shapes(bad):
    with pytest.raises(ValidationError):
        CapabilityId.parse(bad)


def test_canonical_serialize_is_deterministic():
    cap = parse_capability(SEARCH_DOC)
    first = canonical_bytes(cap.to_json())
    assert first == canonical_bytes(cap.to_json())
    assert b"\n" not in first
    assert first == canonical_bytes(parse_capability(SEARCH_DOC).to_json())


def test_canonical_serialize_distinguishes_different_capabilities():
    search = parse_capability(SEARCH_DOC)
    reserve = parse_capability(RESERVE_DOC)
    # field-wise inequality must imply byte inequality
    assert search != reserve
    assert canonical_bytes(search.to_json()) != canonical_bytes(reserve.to_json())


def test_canonical_field_order_is_fixed():
    keys = list(json.loads(canonical_bytes(parse_capability(SEARCH_DOC).to_json())))
    assert keys == [
        "capability_id",
        "role",
        "domain",
        "inputs",
        "outputs",
        "preconditions",
        "postconditions",
    ]


def _random_valid_capability(rng: Random) -> Capability:
    slots = [f"slot_{i}" for i in range(10)]
    rng.shuffle(slots)
    n_inputs = rng.randint(0, 4)
    n_outputs = rng.randint(1, 3)
    return Capability(
        capability_id=CapabilityId(
            rng.choice(["alpha", "beta", "g2"]), rng.choice(["x", "y_1", "zed"])
        ),
        role=rng.choice(["", "retrieval", "Paid Service", "multi\nline tag"]),
        domain=rng.choice(["food", "travel", "öps"]),
        inputs=tuple(slots[:n_inputs]),
        outputs=tuple(slots[n_inputs : n_inputs + n_outputs]),
        preconditions=tuple(sorted(rng.sample(["f_a", "f_b", "f_c"], rng.randint(0, 2)))),
        postconditions=tuple(sorted(rng.sample(["g_a", "g_b"], rng.randint(0, 2)))),
    )


def test_round_trip_property_over_random_capabilities():
    rng = Random(20_260_810)
    for _ in range(300):
        cap = _random_valid_capability(rng)
        assert validate_capability(cap).ok
        payload = canonical_bytes(cap.to_json())
        assert b"\n" not in payload  # single line even with newlines in tags
        assert parse_capability(payload) == cap


def test_rejection_completeness_single_field_corruptions():
    for field in SEARCH_DOC:
        corrupted = {k: v for k, v in SEARCH_DOC.items() if k != field}
        with pytest.raises(ValidationError):
            parse_capability(corrupted)
    with pytest.raises(ValidationError):
        parse_capability(dict(SEARCH_DOC, inputs=["location", "location", "date"]))
    with pytest.raises(ValidationError):
        parse_capability(dict(SEARCH_DOC, capability_id="Restaurant.search"))
    with pytest.raises(ValidationError):
        parse_capability(dict(SEARCH_DOC, inputs=["Location", "date", "party_size"]))


def test_error_aggregation_reports_every_violation():
    doc = dict(
        SEARCH_DOC,
        capability_id="Bad.Id",
        inputs=["dup", "dup"],
        outputs=["dup"],
    )
    del doc["role"]
    with pytest.raises(ValidationError) as excinfo:
        parse_capability(doc)
    violations = excinfo.value.violations
    # independent defects: missing role, bad id (x2 segments), duplicate slot,
    # inputs/outputs overlap
    assert len(violations) >= 4
    assert any("role" in v for v in violations)
    assert any("dup" in v for v in violations)
