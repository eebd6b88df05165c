"""Error taxonomy and validation reports shared across the package."""

from __future__ import annotations

from dataclasses import dataclass, field


class DaliaError(Exception):
    """Base class for every error raised by this package."""


@dataclass
class ValidationReport:
    """Outcome of re-checking invariants on an already-built value.

    A report never raises; callers inspect ``ok`` / ``violations``.
    """

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


def _init_violations(self: DaliaError, violations: list[str] | str) -> None:
    """The constructor of every error that carries a ``violations`` list;
    ``str()`` joins them with "; ". Shared by assignment, so each class keeps
    its own base classes."""
    if isinstance(violations, str):
        violations = [violations]
    self.violations = list(violations)
    Exception.__init__(self, "; ".join(self.violations))


class ValidationError(DaliaError):
    """A document or value violated one or more rules.

    Carries every detected violation, not just the first.
    """

    __init__ = _init_violations


class MalformedDocument(ValidationError):
    """Input is not parseable structured text (or not an object at root)."""


class SchemaViolation(ValidationError):
    """A required field is missing, unexpected, or has the wrong shape."""


class InvariantViolation(ValidationError):
    """Field shapes are fine but a semantic invariant is broken."""


# -- directory ----------------------------------------------------------------


class DirectoryError(DaliaError):
    pass


class InvalidRecord(DirectoryError):
    __init__ = _init_violations


class UnknownAgent(DirectoryError):
    def __init__(self, agent_id: str):
        self.agent_id = agent_id
        super().__init__(f"agent not registered: {agent_id!r}")


class InvalidCapabilityId(DirectoryError):
    pass


class InvalidServerId(DirectoryError):
    def __init__(self, server_id: object):
        self.server_id = server_id
        super().__init__(f"not a valid server id: {server_id!r}")


# -- discovery ----------------------------------------------------------------


class DiscoveryError(DaliaError):
    pass


class EndpointUnreachable(DiscoveryError):
    def __init__(self, endpoint: str, reason: str = ""):
        self.endpoint = endpoint
        detail = f"endpoint unreachable: {endpoint}"
        if reason:
            detail += f" ({reason})"
        super().__init__(detail)


class DuplicateCapabilityId(DiscoveryError):
    def __init__(self, capability_id: str, server_a: str, server_b: str):
        self.capability_id = capability_id
        self.server_a = server_a
        self.server_b = server_b
        super().__init__(
            f"capability {capability_id} declared by two servers: "
            f"{server_a} and {server_b}"
        )


class ProtocolError(DiscoveryError):
    pass


# -- planning -----------------------------------------------------------------


class PlanningError(DaliaError):
    pass


class NoSuchTask(PlanningError):
    def __init__(self, intent: str):
        self.intent = intent
        super().__init__(f"no declared task matches intent {intent!r}")


class AmbiguousIntent(PlanningError):
    def __init__(self, intent: str, task_ids: list[str]):
        self.intent = intent
        self.task_ids = list(task_ids)
        super().__init__(
            f"intent {intent!r} declared by more than one task: "
            + ", ".join(self.task_ids)
        )


class UnproducibleSlot(PlanningError):
    def __init__(self, slot: str):
        self.slot = slot
        super().__init__(
            f"slot {slot!r} has no producer in the task's capability pool "
            "and is not bound by the goal"
        )


class CycleDetected(PlanningError):
    def __init__(self, capability_ids: list[str]):
        self.capability_ids = list(capability_ids)
        super().__init__(
            "mutual data dependence among capabilities: "
            + ", ".join(self.capability_ids)
        )


class PreconditionUnschedulable(PlanningError):
    def __init__(self, fact: str, capability_id: str):
        self.fact = fact
        self.capability_id = capability_id
        super().__init__(
            f"precondition {fact!r} of {capability_id} is never asserted "
            "before its node runs"
        )


class NoEligibleAgent(PlanningError):
    def __init__(self, capability_id: str):
        self.capability_id = capability_id
        super().__init__(f"no agent can execute {capability_id}")


# -- execution ----------------------------------------------------------------


class InvalidGraph(DaliaError):
    """A graph handed to the executor fails structural validation."""

    __init__ = _init_violations


# -- wire ---------------------------------------------------------------------


class WireError(DaliaError):
    """An error response received over the wire."""

    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(f"wire error {code}: {message}")


class ConfigInvalid(DaliaError):
    __init__ = _init_violations


class BindFailure(DaliaError):
    def __init__(self, address: str, reason: str):
        self.address = address
        super().__init__(f"cannot bind {address}: {reason}")
