from __future__ import annotations

import json
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_feasibility, random_instance
from scenario import BOOKING_DOC, RESERVE_DOC, SEARCH_DOC

from dalia.atdp import TaskDeclaration, check_feasibility, parse_task
from dalia.canonical import canonical_bytes
from dalia.capabilities import Capability, CapabilityId, parse_capability
from dalia.errors import InvariantViolation, ValidationError

SEARCH = parse_capability(SEARCH_DOC)
RESERVE = parse_capability(RESERVE_DOC)

PROVIDED = {"location", "date", "party_size"}


def test_parse_booking_task_document():
    task = parse_task(BOOKING_DOC)
    assert task.task_id == CapabilityId("restaurant", "booking")
    assert task.intent == "book_restaurant"
    assert task.inputs == ("location", "date", "party_size")
    assert task.outputs == ("booking_confirmation",)
    assert task.capabilities == (
        CapabilityId("restaurant", "search"),
        CapabilityId("restaurant", "reserve"),
    )


def test_parse_rejects_empty_capability_set():
    with pytest.raises(InvariantViolation) as excinfo:
        parse_task(dict(BOOKING_DOC, capabilities=[]))
    assert any("empty capability set" in v for v in excinfo.value.violations)


def test_parse_rejects_duplicate_capability():
    doc = dict(BOOKING_DOC, capabilities=["restaurant.search", "restaurant.search"])
    with pytest.raises(InvariantViolation):
        parse_task(doc)


def test_parse_rejects_missing_fields_and_aggregates():
    doc = dict(BOOKING_DOC, outputs=[])
    del doc["intent"]
    with pytest.raises(ValidationError) as excinfo:
        parse_task(doc)
    assert len(excinfo.value.violations) >= 2


def test_feasibility_of_scenario_task():
    # Hand-run closure: search fires from the provided inputs, adding
    # restaurant_list; reserve then fires, adding booking_confirmation.
    task = parse_task(BOOKING_DOC)
    report = check_feasibility(task, [SEARCH, RESERVE], PROVIDED)
    assert report.feasible
    assert report.missing_capabilities == ()
    assert report.uncovered_outputs == ()
    assert report.unreachable_inputs == ()
    assert report.diagnostics == ()
    expected = brute_force_feasibility(task, [SEARCH, RESERVE], PROVIDED)
    assert expected == (True, [], [], [])


def test_feasibility_missing_capability_forces_both_defects():
    task = parse_task(BOOKING_DOC)
    report = check_feasibility(task, [SEARCH], PROVIDED)
    assert not report.feasible
    assert report.missing_capabilities == (CapabilityId("restaurant", "reserve"),)
    assert report.uncovered_outputs == ("booking_confirmation",)
    assert report.diagnostics == (
        "capability restaurant.reserve not in catalog",
        "task output 'booking_confirmation' produced by no pool capability",
    )


def test_feasibility_trivially_satisfied_closure():
    task = parse_task(BOOKING_DOC)
    provided = PROVIDED | {"restaurant_list"}
    report = check_feasibility(task, [SEARCH, RESERVE], provided)
    assert report.feasible


def test_feasibility_report_consistency_invariant():
    task = parse_task(BOOKING_DOC)
    for catalog in ([], [SEARCH], [SEARCH, RESERVE]):
        for provided in (set(), {"location"}, PROVIDED):
            report = check_feasibility(task, catalog, provided)
            defect_free = not (
                report.missing_capabilities
                or report.uncovered_outputs
                or report.unreachable_inputs
            )
            assert report.feasible == defect_free


def test_feasibility_unreachable_input_detected():
    task = parse_task(BOOKING_DOC)
    report = check_feasibility(task, [SEARCH, RESERVE], {"date", "party_size"})
    assert not report.feasible
    assert "location" in report.unreachable_inputs
    # restaurant_list is unreachable too: search never fires
    assert "restaurant_list" in report.unreachable_inputs
    assert report.diagnostics == (
        "input slot 'location' never becomes reachable",
        "input slot 'restaurant_list' never becomes reachable",
    )


def test_closure_monotonicity_over_random_instances():
    rng = Random(42)
    for _ in range(150):
        ctx = random_instance(rng)
        catalog = [cap for cap, _ in ctx.capabilities.values()]
        for task in ctx.tasks.values():
            base = check_feasibility(task, catalog, ctx.provided_inputs)
            if not base.feasible:
                continue
            grown_inputs = set(ctx.provided_inputs) | {"extra_slot"}
            assert check_feasibility(task, catalog, grown_inputs).feasible
            extra_cap = parse_capability(
                {
                    "capability_id": "zzz.extra",
                    "role": "r",
                    "domain": "d",
                    "inputs": [],
                    "outputs": ["zzz_out"],
                    "preconditions": [],
                    "postconditions": [],
                }
            )
            assert check_feasibility(task, catalog + [extra_cap], ctx.provided_inputs).feasible


def test_order_independence_against_brute_force():
    rng = Random(7)
    for _ in range(120):
        ctx = random_instance(rng)
        catalog = [cap for cap, _ in ctx.capabilities.values()]
        for task in ctx.tasks.values():
            if len(task.capabilities) > 5:
                continue
            report = check_feasibility(task, catalog, ctx.provided_inputs)
            expected_feasible, missing, uncovered, unreachable = brute_force_feasibility(
                task, catalog, set(ctx.provided_inputs)
            )
            assert report.feasible == expected_feasible
            assert list(report.missing_capabilities) == missing
            assert list(report.uncovered_outputs) == uncovered
            assert list(report.unreachable_inputs) == unreachable
            # permuting the catalog must not change the report
            shuffled = list(catalog)
            rng.shuffle(shuffled)
            assert check_feasibility(task, shuffled, ctx.provided_inputs) == report


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), with_facts=st.booleans())
def test_closure_agrees_with_brute_force_on_random_instances(seed, with_facts):
    ctx = random_instance(Random(seed), with_facts)
    catalog = [cap for cap, _ in ctx.capabilities.values()]
    for task in ctx.tasks.values():
        report = check_feasibility(task, catalog, ctx.provided_inputs)
        assert (
            report.feasible,
            list(report.missing_capabilities),
            list(report.uncovered_outputs),
            list(report.unreachable_inputs),
        ) == brute_force_feasibility(task, catalog, set(ctx.provided_inputs))


def _reverse_listed_chain(n: int) -> tuple[TaskDeclaration, list[Capability]]:
    """Link i reads s<i> and writes s<i+1>; the pool lists the last link first."""
    links = [
        Capability(CapabilityId("chain", f"link{i}"), "r", "d", (f"s{i}",), (f"s{i + 1}",))
        for i in range(n)
    ]
    pool = tuple(cap.capability_id for cap in reversed(links))
    return TaskDeclaration(CapabilityId("chain", "task"), "chain", ("s0",), (f"s{n}",), pool), links


def test_closure_walks_a_reverse_listed_chain():
    task, links = _reverse_listed_chain(300)
    assert check_feasibility(task, links, {"s0"}).feasible
    report = check_feasibility(task, links[:150] + links[151:], {"s0"})
    assert report.missing_capabilities == (CapabilityId("chain", "link150"),)
    assert report.uncovered_outputs == ()
    assert report.unreachable_inputs == tuple(sorted(f"s{i}" for i in range(151, 300)))


def test_task_round_trip_and_double_serialization():
    task = parse_task(BOOKING_DOC)
    payload = canonical_bytes(task.to_json())
    assert payload == canonical_bytes(task.to_json())
    assert parse_task(payload) == task
    assert list(json.loads(payload)) == ["task_id", "intent", "inputs", "outputs", "capabilities"]


def test_task_field_difference_implies_byte_difference():
    task = parse_task(BOOKING_DOC)
    other = parse_task(dict(BOOKING_DOC, intent="cancel_booking"))
    assert task != other
    assert canonical_bytes(task.to_json()) != canonical_bytes(other.to_json())


def test_round_trip_property_over_random_tasks():
    rng = Random(88)
    for _ in range(200):
        ctx = random_instance(rng)
        for task in ctx.tasks.values():
            assert parse_task(canonical_bytes(task.to_json())) == task
