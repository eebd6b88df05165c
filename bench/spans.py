"""In-memory span recording around dalia's public entry points.

The benchmark does not change dalia. It replaces module attributes with
timing wrappers at the place each caller looks them up (for example
``dalia.planner.resolve_capability``, which ``assign_agents`` and
``structural_violations`` call through the planner's module globals), and
puts the originals back when tracing ends.

Spans are kept in memory and summarised when the run ends. The benchmark
process is single-threaded while tracing (servers run in other processes),
so one stack gives every span its parent.
"""

from __future__ import annotations

import contextlib
import socket
import statistics
import time
from dataclasses import dataclass

from dalia import cli, directory, discovery, executor, planner, wire


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a goal's root span
    goal: int
    size: int = 0  # bytes produced, for framing spans

    @property
    def duration(self) -> float:
        return self.end - self.start


def _call_name(args, kwargs) -> str:
    method = args[1] if len(args) > 1 else kwargs.get("method")
    return f"wire.call:{method}"


# (owner, attribute, span name). The name may be a function of the call's
# arguments. Functions imported by name into several modules are wrapped in
# each, because each module's globals hold its own reference.
TARGETS = (
    (cli, "load_orchestrator_config", "cli.load_config"),
    (cli, "discover", "discovery.discover"),
    (cli, "plan", "planner.plan"),
    (cli, "validate_graph", "planner.validate"),
    (cli, "build_invoker", "discovery.build_invoker"),
    (cli, "execute", "executor.execute"),
    (cli, "canonical_serialize_trace", "executor.serialize_trace"),
    (discovery, "discover", "discovery.discover"),
    (discovery, "build_invoker", "discovery.build_invoker"),
    (discovery, "connect_server", "wire.connect"),
    (discovery, "connect_directory", "wire.connect"),
    (discovery, "parse_capability", "capabilities.parse"),
    (discovery, "parse_task", "atdp.parse_task"),
    (discovery, "check_feasibility", "atdp.feasibility"),
    (discovery, "load_snapshot", "directory.load_snapshot"),
    (directory, "load_snapshot", "directory.load_snapshot"),
    (wire, "parse_capability", "capabilities.parse"),
    (wire, "parse_server_config", "wire.parse_server_config"),
    (wire, "frame_block", "wire.frame_block"),
    (wire, "read_block", "wire.read_block"),
    (wire.LocalClient, "call", _call_name),
    (wire.TcpClient, "call", _call_name),
    (wire._Dispatcher, "handle", "wire.dispatch"),
    (wire.Invoker, "invoke", "executor.invoke"),
    (socket, "create_connection", "wire.tcp_connect"),
    (planner, "plan", "planner.plan"),
    (planner, "validate_graph", "planner.validate"),
    (planner, "resolve_goal", "planner.resolve_goal"),
    (planner, "synthesize_graph", "planner.synthesize"),
    (planner, "assign_agents", "planner.assign"),
    (planner, "resolve_capability", "directory.resolve"),
    (planner, "structural_violations", "planner.structural"),
    (executor, "execute", "executor.execute"),
    (executor, "canonical_serialize_trace", "executor.serialize_trace"),
    (executor, "structural_violations", "executor.structural"),
    (executor, "canonical_order", "executor.order"),
)


class Tracer:
    """Records spans while installed; ``goal()`` opens each goal's root span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._goal = -1
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._goal))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = time.perf_counter()

    def goal(self, goal_id: int, fn, *args):
        """Run ``fn(*args)`` as goal ``goal_id``'s root span."""
        self._goal = goal_id
        index = self._open("goal")
        try:
            return fn(*args)
        finally:
            self._close(index)
            self._goal = -1

    def _wrap(self, original, name):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = original(*args, **kwargs)
                if isinstance(result, bytes):
                    tracer.spans[index].size = len(result)
                return result
            finally:
                tracer._close(index)

        return traced

    def install(self) -> None:
        for owner, attribute, name in TARGETS:
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class Summary:
    """Per-goal and per-call aggregates over one tracer's spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.goals = sorted({s.goal for s in spans if s.name == "goal"})
        self.goal_ms = {s.goal: s.duration * 1e3 for s in spans if s.name == "goal"}
        self._children: dict[int, list[Span]] = {}
        for span in spans:
            self._children.setdefault(span.parent, []).append(span)
        self._index = {id(span): i for i, span in enumerate(spans)}
        self._names = [span.name for span in spans]

    def children(self, span: Span) -> list[Span]:
        return self._children.get(self._index[id(span)], [])

    def named(self, prefix: str) -> list[Span]:
        return [s for s in self.spans if s.name == prefix or s.name.startswith(prefix + ":")]

    def outermost(self, prefix: str) -> list[Span]:
        """Spans named ``prefix`` with no ancestor of the same name."""
        names = self._names
        result = []
        for span in self.named(prefix):
            parent = span.parent
            while parent != -1 and not names[parent].startswith(prefix):
                parent = self.spans[parent].parent
            if parent == -1:
                result.append(span)
        return result

    def per_goal(self, spans: list[Span], value) -> list[float]:
        totals = {goal: 0.0 for goal in self.goals}
        for span in spans:
            if span.goal in totals:  # spans between goals (directory writes) are not goal time
                totals[span.goal] += value(span)
        return list(totals.values())

    def goal_ms_median(self, prefix: str) -> float:
        """Median over goals of the time spent in ``prefix`` spans."""
        return _median(self.per_goal(self.outermost(prefix), lambda s: s.duration * 1e3))

    def goal_count_median(self, prefix: str) -> float:
        return _median(self.per_goal(self.named(prefix), lambda s: 1))

    def self_ms_median(self, prefix: str) -> float:
        """Median over goals of ``prefix`` spans minus their direct children."""
        return _median(
            self.per_goal(
                self.outermost(prefix),
                lambda s: (s.duration - sum(c.duration for c in self.children(s))) * 1e3,
            )
        )

    def call_median(self, prefix: str, scale: float) -> float:
        """Median duration of one ``prefix`` span, in seconds times ``scale``."""
        return _median([s.duration * scale for s in self.named(prefix)])

    def share_pct(self, prefixes: list[str], extra_ms: float = 0.0) -> float:
        """Share of goal time inside the outermost spans of ``prefixes``.

        ``extra_ms`` is time per goal that lies outside the traced process
        (interpreter start and import for ``dalia run``); it is added to both
        the numerator and the goal time.
        """
        covered = sum(
            s.duration * 1e3
            for prefix in prefixes
            for s in self.outermost(prefix)
            if s.goal in self.goal_ms
        )
        total = sum(self.goal_ms.values())
        n = len(self.goals)
        return 100.0 * (covered + extra_ms * n) / (total + extra_ms * n) if n else 0.0

    def coverage_pct(self) -> float:
        """Share of goal time covered by the goal spans' direct children."""
        roots = [s for s in self.spans if s.name == "goal"]
        covered = sum(c.duration for r in roots for c in self.children(r))
        total = sum(r.duration for r in roots)
        return 100.0 * covered / total if total else 0.0
