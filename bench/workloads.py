"""The three workloads: set-up, one timed goal, and the checks on its output.

A goal is the pipeline ``dalia run`` drives: discover -> plan ->
validate_graph -> execute -> canonical_serialize_trace, against a freshly
sealed context. Each workload's ``goal(k)`` is the timed part; ``check``
runs outside the timed part and returns the problems it found (a goal with
any problem counts as failed).

Every check a goal gets:

* ``validate_graph(...).ok`` and outcome ``completed``;
* ``replay_check(trace, graph).ok``;
* node and edge sets equal to what ``inputs`` built for the intent;
* identical plan bytes whenever an intent repeats under the same directory
  state;
* in-process clients: zero discovery-class calls between sealing and the end
  of ``execute`` (the closed-world property);
* ``tcp_mixed``: every node's agent is the smallest eligible agent after the
  latest directory write.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import select
import signal
import socket
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import inputs as gen
from dalia import cli, discovery, executor, planner, wire
from dalia.capabilities import CapabilityId
from dalia.directory import load_snapshot
from dalia.errors import DaliaError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child_env() -> dict[str, str]:
    """Environment for every Python process the benchmark starts.

    Bytecode writing is off, as in the environment the benchmark was sized
    in, so every ``dalia run`` compiles the package from source and the
    figure does not depend on whether a ``__pycache__`` happens to exist.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class DiscoveryCounter:
    """Wraps a client and counts discovery-class calls (closed-world check)."""

    def __init__(self, inner):
        self.inner = inner
        self.endpoint = inner.endpoint
        self.discovery_calls = 0

    def call(self, method: str, params: dict | None = None):
        if method in wire.DISCOVERY_CLASS_METHODS:
            self.discovery_calls += 1
        return self.inner.call(method, params)


@dataclass
class Outcome:
    intent: str
    graph: planner.TaskGraph | None = None
    report: object = None
    trace: executor.ExecutionTrace | None = None
    payload: bytes = b""
    late_discovery_calls: int = 0


def pipeline(servers: list, directory_client, counters: list[DiscoveryCounter], goal) -> Outcome:
    """One goal, the same steps as ``cli.cmd_run``."""
    ctx = discovery.discover(servers, directory_client, set(goal.bindings))
    sealed = sum(c.discovery_calls for c in counters)
    graph = planner.plan(goal, ctx)
    report = planner.validate_graph(graph, goal, ctx)
    if not report.ok:
        return Outcome(goal.intent, graph, report)
    trace = executor.execute(graph, goal, ctx, discovery.build_invoker(ctx))
    late = sum(c.discovery_calls for c in counters) - sealed
    payload = executor.canonical_serialize_trace(trace)
    return Outcome(goal.intent, graph, report, trace, payload, late)


def graph_problems(
    inp: gen.Inputs, graph: planner.TaskGraph, intent: str, agent_of
) -> list[str]:
    """Node and edge sets against the generator's expected graph."""
    problems = []
    by_id = {node.node_id: node for node in graph.nodes}
    nodes = {(n.capability_id.render(), n.agent_id, n.server_id) for n in graph.nodes}
    if nodes != inp.expected_nodes(intent, agent_of):
        problems.append(f"{intent}: node set differs from the generated task")
    edges = {
        (by_id[e.from_node].capability_id.render(), by_id[e.to_node].capability_id.render(), e.slot)
        for e in graph.edges
        if e.from_node in by_id and e.to_node in by_id
    }
    if edges != inp.tasks[intent].edges or len(edges) != len(graph.edges):
        problems.append(f"{intent}: edge set differs from the generated task")
    return problems


def trace_problems(intent: str, trace, graph) -> list[str]:
    problems = []
    if trace.outcome != executor.OUTCOME_COMPLETED:
        problems.append(f"{intent}: outcome {trace.outcome}")
    replay = executor.replay_check(trace, graph)
    if not replay.ok:
        problems.append(f"{intent}: replay check: {'; '.join(replay.violations)}")
    return problems


class Workload:
    """Base: subclasses build state in ``setup`` and run one goal per call."""

    name = ""
    setup_repeats = 21
    # Goals run in the benchmark process; the traced run needs that.
    in_process = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.inputs: gen.Inputs | None = None
        # (intent, directory state) -> plan bytes, for the repeat check
        self._plans: dict[tuple[str, str], bytes] = {}
        self.intents_seen: list[str] = []

    def intent(self, k: int) -> str:
        schedule = self.inputs.schedule
        return schedule[k % len(schedule)]

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` built (servers); safe to call twice."""

    def goal(self, k: int):
        raise NotImplementedError

    def check(self, k: int, outcome) -> list[str]:
        raise NotImplementedError

    def after_goal(self, k: int) -> tuple[int, list[str]]:
        """Work between goals: (operations attempted, problems)."""
        return 0, []

    def finish(self) -> list[str]:
        """Checks that need the whole run; runs after the timed loop."""
        return []

    def _repeat_problems(self, intent: str, state: str, plan_bytes: bytes) -> list[str]:
        self.intents_seen.append(intent)
        known = self._plans.setdefault((intent, state), plan_bytes)
        return [] if known == plan_bytes else [f"{intent}: plan bytes changed on repeat"]

    def _inprocess_problems(self, outcome: Outcome, agent_of, state: str) -> list[str]:
        intent = outcome.intent
        if not outcome.report.ok:
            return [f"{intent}: validate_graph: {'; '.join(outcome.report.violations)}"]
        problems = trace_problems(intent, outcome.trace, outcome.graph)
        problems += graph_problems(self.inputs, outcome.graph, intent, agent_of)
        problems += self._repeat_problems(
            intent, state, planner.canonical_serialize_graph(outcome.graph)
        )
        if outcome.late_discovery_calls:
            problems.append(
                f"{intent}: {outcome.late_discovery_calls} discovery-class calls after sealing"
            )
        return problems


class PlanLarge(Workload):
    """In-process ``LocalClient``s; large graphs, no codec or framing."""

    name = "plan_large"

    def setup(self) -> None:
        inp = self.inputs = gen.plan_large(self.seed)
        self.counters = [
            DiscoveryCounter(
                wire.LocalClient(wire.WireServer(wire.parse_server_config(doc)), f"local:{sid}")
            )
            for sid, doc in inp.servers.items()
        ]
        self.directory = DiscoveryCounter(
            wire.LocalClient(wire.DirectoryService(load_snapshot(inp.snapshot)), "local:directory")
        )
        self._agent_of: dict[str, str] = {}

    def goal(self, k: int) -> Outcome:
        intent = self.intent(k)
        goal = planner.Goal(intent, self.inputs.bindings(intent))
        return pipeline(self.counters, self.directory, self.counters + [self.directory], goal)

    def agent_of(self, capability_id: str) -> str:
        if capability_id not in self._agent_of:
            eligible = gen.eligible_agents(self.inputs.snapshot, capability_id)
            self._agent_of[capability_id] = eligible[0]
        return self._agent_of[capability_id]

    def check(self, k: int, outcome: Outcome) -> list[str]:
        return self._inprocess_problems(outcome, self.agent_of, "")


class RunWide(Workload):
    """``python -m dalia.cli run`` as a fresh process per goal, ``local:`` config.

    The traced run sets ``in_process``: goals then call ``cli.main`` in this
    process, so spans can be recorded.
    """

    name = "run_wide"
    in_process = False

    def setup(self) -> None:
        inp = self.inputs = gen.run_wide(self.seed)
        for server_id, doc in inp.servers.items():
            (self.workdir / f"{server_id}.json").write_text(json.dumps(doc))
        (self.workdir / "directory.json").write_text(json.dumps(inp.snapshot))
        self.config = self.workdir / "orchestrator.json"
        self.config.write_text(
            json.dumps(
                {
                    "servers": [f"local:{sid}.json" for sid in inp.servers],
                    "directory": "local:directory.json",
                }
            )
        )
        self.results: list[tuple[str, bytes]] = []

    def argv(self, intent: str) -> list[str]:
        slot, value = next(iter(self.inputs.bindings(intent).items()))
        return [
            "run", "--config", str(self.config), "--intent", intent, "--inputs", f"{slot}={value}"
        ]

    def goal(self, k: int) -> tuple[str, int, bytes, bytes]:
        intent = self.intent(k)
        if self.in_process:
            out = io.StringIO()
            code = cli.main(self.argv(intent), out=out)
            return intent, code, out.getvalue().encode("utf-8"), b""
        done = subprocess.run(
            [sys.executable, "-m", "dalia.cli", *self.argv(intent)],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=120,
        )
        return intent, done.returncode, done.stdout, done.stderr

    def check(self, k: int, outcome) -> list[str]:
        intent, code, stdout, stderr = outcome
        if code != cli.EXIT_OK:
            return [f"{intent}: dalia run exited {code}: {stderr.decode(errors='replace').strip()}"]
        payload = stdout.rstrip(b"\n")
        self.results.append((intent, payload))
        return self._repeat_problems(intent, "", payload)

    def finish(self) -> list[str]:
        """Plan each intent that ran in this process and check every trace
        against it: the plan the child printed a trace for must have the
        same bytes (its fingerprint is in the trace)."""
        config = cli.load_orchestrator_config(str(self.config))
        intents = sorted({intent for intent, _ in self.results})
        ctx = discovery.discover(config.servers, config.directory, {gen.GOAL_SLOT})
        snapshot = self.inputs.snapshot
        problems = []
        graphs = {}
        for intent in intents:
            goal = planner.Goal(intent, self.inputs.bindings(intent))
            graph = planner.plan(goal, ctx)
            report = planner.validate_graph(graph, goal, ctx)
            if not report.ok:
                problems.append(f"{intent}: validate_graph: {'; '.join(report.violations)}")
            problems += graph_problems(
                self.inputs, graph, intent, lambda cid: gen.eligible_agents(snapshot, cid)[0]
            )
            graphs[intent] = graph
        for intent, payload in self.results:
            try:
                trace = parse_trace(payload)
            except (ValueError, KeyError, TypeError, DaliaError) as exc:
                problems.append(f"{intent}: trace does not parse: {exc}")
                continue
            if executor.canonical_serialize_trace(trace) != payload:
                problems.append(f"{intent}: trace is not in canonical form")
            problems += trace_problems(intent, trace, graphs[intent])
        return problems


def parse_trace(payload: bytes) -> executor.ExecutionTrace:
    doc = json.loads(payload)
    steps = tuple(
        executor.StepRecord(
            node_id=step["node_id"],
            capability_id=CapabilityId.parse(step["capability_id"]),
            agent_id=step["agent_id"],
            status=step["status"],
            inputs_used=step["inputs_used"],
            outputs_received=step["outputs_received"],
            error=step["error"],
        )
        for step in doc["steps"]
    )
    return executor.ExecutionTrace(
        graph_fingerprint=doc["graph_fingerprint"],
        steps=steps,
        outcome=doc["outcome"],
        final_bindings=doc["final_bindings"],
    )


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class ServerProcess:
    """One ``dalia ... serve --tcp`` child on a free loopback port."""

    def __init__(self, args: list[str]):
        self.args = args
        self.proc: subprocess.Popen | None = None
        self.address = ""

    def start(self) -> None:
        port = _free_port()
        self.address = f"127.0.0.1:{port}"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "dalia.cli", *self.args, "--tcp", self.address],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )

    def wait_ready(self, timeout: float = 60.0) -> bool:
        """True once the child reports it is serving; False if it exited."""
        ready, _, _ = select.select([self.proc.stderr], [], [], timeout)
        line = self.proc.stderr.readline().decode(errors="replace") if ready else ""
        return line.startswith("serving ")

    def peak_rss_mb(self) -> float:
        """VmHWM of the running child, from /proc."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return 0.0

    def stop(self) -> None:
        stop_servers([self])


def stop_servers(servers: list[ServerProcess]) -> None:
    """SIGINT every running server at once (the CLI's shutdown path, which
    also makes the directory save its snapshot), then wait for each, and
    kill one that has not exited within 10 s."""
    running = [server for server in servers if server.proc is not None]
    for server in running:
        if server.proc.poll() is None:
            server.proc.send_signal(signal.SIGINT)
    for server in running:
        proc, server.proc = server.proc, None
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        finally:
            proc.stderr.close()


def start_servers(servers: list[ServerProcess]) -> None:
    """Start all, then wait for each; a child that failed to bind its port
    (another process took it first) is retried on a new one."""
    for server in servers:
        server.start()
    for server in servers:
        for _ in range(3):
            if server.wait_ready():
                break
            server.stop()
            server.start()
        else:
            raise RuntimeError(f"server {server.args} did not start")


class TcpMixed(Workload):
    """Loopback TCP to two capability servers and one directory server, with
    a directory write after every third goal."""

    name = "tcp_mixed"
    setup_repeats = 3
    WRITE_EVERY = 3

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.servers: list[ServerProcess] = []

    def setup(self) -> None:
        inp = self.inputs = gen.tcp_mixed(self.seed)
        self.servers = []
        for server_id, doc in inp.servers.items():
            path = self.workdir / f"{server_id}.json"
            path.write_text(json.dumps(doc))
            self.servers.append(ServerProcess(["server", "serve", "--config", str(path)]))
        # The directory writes its snapshot back on shutdown: give it a copy.
        snapshot = self.workdir / "directory-scratch.json"
        snapshot.write_text(json.dumps(inp.snapshot))
        self.directory_server = ServerProcess(["directory", "serve", "--snapshot", str(snapshot)])
        self.servers.append(self.directory_server)
        start_servers(self.servers)
        self.counters = [DiscoveryCounter(wire.TcpClient(s.address)) for s in self.servers[:-1]]
        self.directory = DiscoveryCounter(wire.TcpClient(self.directory_server.address))
        self.agent = inp.extra["base_agent"]
        self.writes = 0

    def teardown(self) -> None:
        stop_servers(self.servers)

    def goal(self, k: int) -> Outcome:
        intent = self.intent(k)
        goal = planner.Goal(intent, self.inputs.bindings(intent))
        return pipeline(self.counters, self.directory, self.counters + [self.directory], goal)

    def check(self, k: int, outcome: Outcome) -> list[str]:
        return self._inprocess_problems(outcome, lambda cid: self.agent, self.agent)

    def after_goal(self, k: int) -> tuple[int, list[str]]:
        if (k + 1) % self.WRITE_EVERY:
            return 0, []
        writes = self.inputs.extra["writes"]
        method, params, smallest = writes[self.writes % len(writes)]
        self.writes += 1
        try:
            self.directory.call(method, params)
        except DaliaError as exc:
            return 1, [f"{method}: {exc}"]
        self.agent = smallest
        return 1, []

    def server_peak_rss_mb(self) -> float:
        return max(server.peak_rss_mb() for server in self.servers)


WORKLOADS = {cls.name: cls for cls in (PlanLarge, RunWide, TcpMixed)}


def reference_digest(name: str, seed: int) -> str:
    """sha256 over the plan and trace bytes of every intent of ``name``'s
    inputs for ``seed``, planned in-process against the initial directory.

    The benchmark compares this for a fixed seed with ``golden.json`` after
    every run, so plan and trace bytes are pinned across runs and commits.
    """
    inp = gen.GENERATORS[name](seed)
    servers = [
        wire.LocalClient(wire.WireServer(wire.parse_server_config(doc)), f"local:{sid}")
        for sid, doc in inp.servers.items()
    ]
    directory_client = wire.LocalClient(wire.DirectoryService(load_snapshot(inp.snapshot)))
    ctx = discovery.discover(servers, directory_client, {gen.GOAL_SLOT})
    invoker = discovery.build_invoker(ctx)
    digest = hashlib.sha256()
    for intent in sorted(inp.tasks):
        goal = planner.Goal(intent, inp.bindings(intent))
        graph = planner.plan(goal, ctx)
        trace = executor.execute(graph, goal, ctx, invoker)
        digest.update(planner.canonical_serialize_graph(graph) + b"\n")
        digest.update(executor.canonical_serialize_trace(trace) + b"\n")
    return digest.hexdigest()
