"""The errors that word their own message: exact text, attributes, and a
round trip through ``copy`` and ``pickle``, so an error raised in one process
reaches another intact."""

from __future__ import annotations

import copy
import pickle

import pytest

from dalia.errors import (
    AmbiguousIntent,
    BindFailure,
    CycleDetected,
    DaliaError,
    DirectoryError,
    DiscoveryError,
    DuplicateCapabilityId,
    EndpointUnreachable,
    InvalidServerId,
    NoEligibleAgent,
    NoSuchTask,
    PlanningError,
    PreconditionUnschedulable,
    UnknownAgent,
    UnproducibleSlot,
    WireError,
)

_CASES = {
    "UnknownAgent": (
        UnknownAgent("Ghost"),
        DirectoryError,
        "agent not registered: 'Ghost'",
        {"agent_id": "Ghost"},
    ),
    "InvalidServerId": (
        InvalidServerId(7),
        DirectoryError,
        "not a valid server id: 7",
        {"server_id": 7},
    ),
    "EndpointUnreachable": (
        EndpointUnreachable("tcp:127.0.0.1:1", "refused"),
        DiscoveryError,
        "endpoint unreachable: tcp:127.0.0.1:1 (refused)",
        {"endpoint": "tcp:127.0.0.1:1"},
    ),
    "EndpointUnreachable-without-a-reason": (
        EndpointUnreachable("tcp:127.0.0.1:1"),
        DiscoveryError,
        "endpoint unreachable: tcp:127.0.0.1:1",
        {"endpoint": "tcp:127.0.0.1:1"},
    ),
    "DuplicateCapabilityId": (
        DuplicateCapabilityId("a.b", "s1", "s2"),
        DiscoveryError,
        "capability a.b declared by two servers: s1 and s2",
        {"capability_id": "a.b", "server_a": "s1", "server_b": "s2"},
    ),
    "NoSuchTask": (
        NoSuchTask("fly"),
        PlanningError,
        "no declared task matches intent 'fly'",
        {"intent": "fly"},
    ),
    "AmbiguousIntent": (
        AmbiguousIntent("fly", ["t.a", "t.b"]),
        PlanningError,
        "intent 'fly' declared by more than one task: t.a, t.b",
        {"intent": "fly", "task_ids": ["t.a", "t.b"]},
    ),
    "UnproducibleSlot": (
        UnproducibleSlot("date"),
        PlanningError,
        "slot 'date' has no producer in the task's capability pool and is not bound by the goal",
        {"slot": "date"},
    ),
    "CycleDetected": (
        CycleDetected(["a.b", "c.d"]),
        PlanningError,
        "mutual data dependence among capabilities: a.b, c.d",
        {"capability_ids": ["a.b", "c.d"]},
    ),
    "PreconditionUnschedulable": (
        PreconditionUnschedulable("open", "a.b"),
        PlanningError,
        "precondition 'open' of a.b is never asserted before its node runs",
        {"fact": "open", "capability_id": "a.b"},
    ),
    "NoEligibleAgent": (
        NoEligibleAgent("a.b"),
        PlanningError,
        "no agent can execute a.b",
        {"capability_id": "a.b"},
    ),
    "WireError": (
        WireError(-32001, "unknown capability: 'x'"),
        DaliaError,
        "wire error -32001: unknown capability: 'x'",
        {"code": -32001, "message": "unknown capability: 'x'"},
    ),
    "BindFailure": (
        BindFailure("127.0.0.1:1", "in use"),
        DaliaError,
        "cannot bind 127.0.0.1:1: in use",
        {"address": "127.0.0.1:1"},
    ),
}


def _copies(error):
    return {
        "pickle": pickle.loads(pickle.dumps(error)),
        "deepcopy": copy.deepcopy(error),
        "copy": copy.copy(error),
    }


@pytest.mark.parametrize("error, base, text, attributes", list(_CASES.values()), ids=list(_CASES))
def test_an_error_keeps_its_text_and_attributes_through_copy_and_pickle(
    error, base, text, attributes
):
    assert isinstance(error, base)
    assert str(error) == text
    assert {name: getattr(error, name) for name in attributes} == attributes
    for how, again in _copies(error).items():
        assert type(again) is type(error), how
        assert str(again) == text, how
        assert {name: getattr(again, name) for name in attributes} == attributes, how


@pytest.mark.parametrize("cls", [AmbiguousIntent, CycleDetected])
def test_a_joined_list_is_the_errors_own_copy(cls):
    names = ["a.b", "c.d"]
    error = cls("fly", names) if cls is AmbiguousIntent else cls(names)
    text = str(error)
    names.append("e.f")
    assert str(error) == text
    assert "e.f" not in text
