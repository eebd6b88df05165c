"""Value semantics of the package's value classes: equality and hashing over
the fields, immutability, copies, repr, ordering and ``replace``."""

from __future__ import annotations

import copy
import inspect
import operator
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import scenario
from dalia.atdp import FeasibilityReport, TaskDeclaration, parse_task
from dalia.capabilities import (
    IDENTIFIER_RE,
    Capability,
    CapabilityId,
    is_checked,
    parse_capability,
)
from dalia.cli import OrchestratorConfig
from dalia.directory import AgentRecord, DirectorySnapshot
from dalia.discovery import ExecutionContext
from dalia.errors import ValidationReport, _Value
from dalia.executor import ExecutionTrace, StepRecord
from dalia.planner import Edge, Goal, Node, TaskGraph, plan, validate_graph
from dalia.wire import HandlerSpec, ServerConfig

CID = CapabilityId("ns", "step")
IDENTIFIERS = st.from_regex(IDENTIFIER_RE, fullmatch=True)
CAP = Capability(CID, "role", "domain", ("x",), ("y",), ("p",), ("q",))
TASK = TaskDeclaration(CapabilityId("ns", "task"), "intent", ("x",), ("y",), (CID,))
AGENTS = {"agent": AgentRecord("agent", "r", (), ("s",))}
SNAPSHOT = DirectorySnapshot(AGENTS, {"s": (CID,)}, "o")

# Each class with the fields of one value, the index of a field to change and
# the value to change it to.
SAMPLES = {
    Capability: ((CID, "role", "domain", ("x",), ("y",), ("p",), ("q",)), 4, ("z",)),
    TaskDeclaration: ((CID, "intent", ("x",), ("y",), (CID,)), 1, "other"),
    FeasibilityReport: ((False, (CID,), ("y",), ()), 0, True),
    AgentRecord: (("agent", "role", ("food",), ("s",)), 3, ()),
    DirectorySnapshot: ((AGENTS, {"s": (CID,)}, "o"), 2, "p"),
    ExecutionContext: (
        ({CID: (CAP, "s")}, {TASK.task_id: TASK}, SNAPSHOT, frozenset("x"), {}), 3, frozenset()
    ),
    ValidationReport: ((["a violation"],), 0, []),
    StepRecord: ((0, CID, "agent", "succeeded", {"x": "1"}, {"y": "2"}, None), 6, "boom"),
    ExecutionTrace: (("0" * 64, (), "completed", {"x": "1"}), 2, "aborted"),
    Goal: (("intent", {"x": "1"}, frozenset({"ready"})), 2, frozenset()),
    Node: ((0, CID, "agent", "server"), 2, "other"),
    Edge: ((0, 1, "slot"), 1, 2),
    TaskGraph: ((CID, (Node(0, CID, "a", "s"),), (Edge(0, 0, "x"),), ("x",)), 2, ()),
    HandlerSpec: (((), (1, 2)), 1, (3,)),
    ServerConfig: (("server", (CAP,), (), {CID: HandlerSpec()}), 0, "other"),
    OrchestratorConfig: ((("tcp:127.0.0.1:1",), "local:directory.json"), 1, "local:other.json"),
}
VALUE_CLASSES = pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
FROZEN_CLASSES = pytest.mark.parametrize(
    "cls", [cls for cls in SAMPLES if cls is not ValidationReport], ids=lambda cls: cls.__name__
)


def _value(cls):
    return cls(*SAMPLES[cls][0])


def _changed(cls):
    values, index, changed = SAMPLES[cls]
    return cls(*values[:index], changed, *values[index + 1 :])


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@VALUE_CLASSES
def test_equal_fields_make_equal_values_and_one_changed_field_unequal(cls):
    value, same, changed = _value(cls), _value(cls), _changed(cls)
    assert value == same and not value != same
    assert value != changed and not value == changed
    if cls is not ValidationReport and _hashable(SAMPLES[cls][0]):
        assert hash(value) == hash(same) == hash(SAMPLES[cls][0])
    else:
        with pytest.raises(TypeError):
            hash(value)


@VALUE_CLASSES
def test_a_value_only_equals_values_of_its_own_class(cls):
    class Other(cls):
        pass

    values = SAMPLES[cls][0]
    assert _value(cls) != Other(*values)
    assert Other(*values) != _value(cls)
    assert _value(cls) != values


@FROZEN_CLASSES
def test_a_field_can_be_neither_assigned_nor_deleted(cls):
    value = _value(cls)
    name = cls._fields[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, SAMPLES[cls][2])
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == _value(cls)


def test_a_validation_report_is_mutable_and_unhashable():
    report = ValidationReport()
    report.violations += ["one"]
    report.add("two")
    assert report == ValidationReport(["one", "two"]) and not report.ok
    assert ValidationReport().violations is not ValidationReport().violations
    assert ValidationReport.__hash__ is None
    with pytest.raises(TypeError):
        hash(ValidationReport())


@VALUE_CLASSES
def test_copies_and_pickles_round_trip_to_equal_values(cls):
    value = _value(cls)
    for duplicate in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(duplicate) is cls
        assert duplicate == value


@VALUE_CLASSES
def test_the_repr_names_each_field_in_signature_order(cls):
    names = list(inspect.signature(cls).parameters)
    values = SAMPLES[cls][0]
    assert list(cls._fields) == names
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(_value(cls)) == f"{cls.__name__}({fields})"


@VALUE_CLASSES
def test_replace_changes_the_named_fields_only(cls):
    values, index, changed = SAMPLES[cls]
    value = _value(cls)
    assert value.replace() == value
    assert value.replace(**{cls._fields[index]: changed}) == _changed(cls)
    with pytest.raises(TypeError):
        value.replace(no_such_field=1)


@given(
    a=st.tuples(st.text(max_size=4), st.text(max_size=4)),
    b=st.tuples(st.text(max_size=4), st.text(max_size=4)),
)
@example(a=("a-b", "x"), b=("a", "x"))  # "-" sorts below "."
@example(a=("a", "b.c"), b=("a.b", "c"))  # equal texts, so equal ids
@example(a=("a", "x"), b=("a", "x"))
def test_capability_ids_order_as_their_text(a, b):
    x, y = CapabilityId(*a), CapabilityId(*b)
    s, t = ".".join(a), ".".join(b)
    assert (x < y, x <= y, x > y, x >= y, x == y) == (s < t, s <= t, s > t, s >= t, s == t)
    assert sorted([x, y]) == sorted([s, t])


@given(namespace=IDENTIFIERS, name=IDENTIFIERS)
def test_parsed_capability_ids_order_as_their_segments(namespace, name):
    for other in ("a.a", "z_9.z", f"{namespace}.a", f"{namespace}_.{name}"):
        x, y = CapabilityId(namespace, name), CapabilityId.parse(other)
        assert (x < y) == ((namespace, name) < tuple(other.split(".")))


def test_a_capability_id_does_not_order_against_a_tuple():
    with pytest.raises(TypeError):
        sorted([CapabilityId("a", "b"), ("a", "c")])
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(CapabilityId("a", "b"), ("a", "c"))


class One(_Value):
    def __init__(self, only):
        object.__setattr__(self, "only", only)


class Empty(_Value):
    def __init__(self):
        pass


def test_a_value_of_one_or_no_fields_still_reads_them_as_a_tuple():
    assert One(1) == One(1) != One(2)
    assert hash(One(1)) == hash((1,)) and hash(Empty()) == hash(())
    assert repr(One([1])) == "One(only=[1])" and repr(Empty()) == "Empty()"
    assert One(1).replace(only=2) == One(2) and Empty().replace() == Empty()
    assert pickle.loads(pickle.dumps(One((1,)))) == One((1,))


def test_a_parsed_capability_is_checked_and_its_copies_are_not():
    cap = parse_capability(scenario.food_server_doc()["capabilities"][0])
    assert is_checked(cap)
    for duplicate in (cap.replace(), copy.copy(cap), pickle.loads(pickle.dumps(cap))):
        assert duplicate == cap and not is_checked(duplicate)


def test_a_parsed_task_or_loaded_snapshot_is_checked_and_its_copies_are_not():
    for value in (parse_task(scenario.food_server_doc()["tasks"][0]), scenario.scenario_directory()):
        assert is_checked(value)
        for duplicate in (value.replace(), copy.copy(value), pickle.loads(pickle.dumps(value))):
            assert duplicate == value and not is_checked(duplicate)
    assert not any(map(is_checked, (CAP, TASK, SNAPSHOT)))


def test_replace_on_a_graph_carries_none_of_its_stashed_checks(scenario_context, scenario_goal):
    graph = plan(scenario_goal, scenario_context)
    assert validate_graph(graph, scenario_goal, scenario_context).ok
    assert {"ordering", "_schedulable", "_structural"} <= vars(graph).keys()
    for duplicate in (graph.replace(), copy.copy(graph), pickle.loads(pickle.dumps(graph))):
        assert duplicate == graph
        assert not {"ordering", "_schedulable", "_structural"} & vars(duplicate).keys()
