"""Error taxonomy, validation reports and the value base shared across the package."""

from __future__ import annotations

from operator import attrgetter


class _Value:
    """Base of the package's value classes. A subclass's fields are its
    ``__init__``'s parameters, in order, and ``__init__`` stores each with
    ``object.__setattr__`` (a write through ``self.__dict__`` would slow every
    later read). A value equals and hashes as the tuple of its fields, equals
    values of its own class only, prints as ``Name(field=value, ...)`` and
    refuses assignment and deletion. ``copy``, ``pickle`` and ``replace``
    rebuild it through ``__init__``, so nothing derived or stashed on the
    original is carried over."""

    _checked = False  # a document parser's mark; see capabilities.is_checked

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = fields = code.co_varnames[1 : code.co_argcount]
        # The one reader of the field tuple, called as ``value._values(value)``.
        # ``attrgetter`` of a single name returns the bare value, not a tuple.
        cls._values = (
            attrgetter(*fields)
            if len(fields) > 1
            else staticmethod(lambda value: tuple(getattr(value, name) for name in fields))
        )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)

    def replace(self, **changes):
        """A copy with ``changes`` to its fields, built through ``__init__``."""
        return type(self)(**{**dict(zip(self._fields, self._values(self))), **changes})


class DaliaError(Exception):
    """Base class for every error raised by this package."""


class ValidationReport(_Value):
    """Outcome of re-checking invariants on an already-built value.

    A report never raises; callers inspect ``ok`` / ``violations``. Unlike
    other values it is mutable, and so unhashable.
    """

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, violations: list[str] | None = None):
        self.violations = [] if violations is None else violations

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


class _Worded(DaliaError):
    """Keeps its constructor's values (a list as a fresh copy) as ``args`` and as
    the attributes its ``fields`` name, and fills its ``template`` from them for
    ``str()``. ``BaseException``'s reduce rebuilds it, so it survives copy and pickle."""

    def __init__(self, *values):
        values = tuple(list(v) if isinstance(v, list) else v for v in values)
        super().__init__(*values)
        self.__dict__.update(zip(self.fields, values))

    def __str__(self) -> str:
        return self.template.format_map(vars(self))


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


class UnknownAgent(_Worded, DirectoryError):
    fields = ("agent_id",)
    template = "agent not registered: {agent_id!r}"


class InvalidCapabilityId(DirectoryError):
    pass


class InvalidServerId(_Worded, DirectoryError):
    fields = ("server_id",)
    template = "not a valid server id: {server_id!r}"


# -- discovery ----------------------------------------------------------------


class DiscoveryError(DaliaError):
    pass


class EndpointUnreachable(_Worded, DiscoveryError):
    fields = ("endpoint", "reason")
    reason = ""  # an empty reason is left out of the message

    def __str__(self) -> str:
        return f"endpoint unreachable: {self.endpoint}" + (f" ({self.reason})" if self.reason else "")


class DuplicateCapabilityId(_Worded, DiscoveryError):
    fields = ("capability_id", "server_a", "server_b")
    template = "capability {capability_id} declared by two servers: {server_a} and {server_b}"


class ProtocolError(DiscoveryError):
    pass


# -- planning -----------------------------------------------------------------


class PlanningError(DaliaError):
    pass


class NoSuchTask(_Worded, PlanningError):
    fields = ("intent",)
    template = "no declared task matches intent {intent!r}"


class AmbiguousIntent(_Worded, PlanningError):
    fields = ("intent", "task_ids")

    def __str__(self) -> str:
        return f"intent {self.intent!r} declared by more than one task: {', '.join(self.task_ids)}"


class UnproducibleSlot(_Worded, PlanningError):
    fields = ("slot",)
    template = ("slot {slot!r} has no producer in the task's capability pool "
                "and is not bound by the goal")


class CycleDetected(_Worded, PlanningError):
    fields = ("capability_ids",)

    def __str__(self) -> str:
        return "mutual data dependence among capabilities: " + ", ".join(self.capability_ids)


class PreconditionUnschedulable(_Worded, PlanningError):
    fields = ("fact", "capability_id")
    template = "precondition {fact!r} of {capability_id} is never asserted before its node runs"


class NoEligibleAgent(_Worded, PlanningError):
    fields = ("capability_id",)
    template = "no agent can execute {capability_id}"


# -- execution ----------------------------------------------------------------


class InvalidGraph(DaliaError):
    """A graph handed to the executor fails structural validation."""

    __init__ = _init_violations


# -- wire ---------------------------------------------------------------------


class WireError(_Worded):
    """An error response received over the wire."""

    fields = ("code", "message")
    template = "wire error {code}: {message}"


class ConfigInvalid(DaliaError):
    __init__ = _init_violations


class BindFailure(_Worded):
    fields = ("address", "reason")
    template = "cannot bind {address}: {reason}"
