"""Paired goal timings of two source trees in one process.

Loads ``<tree>/src/dalia`` of each tree under its own package name
(``dalia_parent`` and ``dalia_change``), builds the same inputs
(``bench/inputs.py``) for both, and runs goals alternately: one goal on each
side per pair, the side that goes first alternating from pair to pair. A
goal is discover -> plan -> validate_graph -> execute ->
canonical_serialize_trace, as ``bench/run.py`` runs it. Both sides run in
the same spell, so a VM whose speed drifts between spells moves both alike.
The process, and every server it starts, is pinned to one CPU, as
``bench/run.py`` pins its runs.

``--workload plan_large`` (the default) serves each side's server and
directory in-process through ``LocalClient``s. ``--workload tcp_mixed``
starts, for each tree, two ``python -m dalia.cli server serve --tcp``
processes and one ``directory serve --tcp`` process on free loopback ports,
with that tree's ``src`` on ``PYTHONPATH`` and a scratch copy of the
snapshot, and reaches them through that tree's ``TcpClient``s: three
persistent connections per tree. Every way out of the tool sends each server
SIGINT and kills one still running after 10 s. ``--workload run_wide`` runs
each goal as a fresh ``python -m dalia.cli run`` process over ``local:``
config files, as ``bench/run.py`` does. Each tree runs from its own fresh
temporary copy of ``src/dalia/*.py`` with ``PYTHONDONTWRITEBYTECODE=1``, so
both sides compile from source and neither reads a ``__pycache__``; the time
is the process's wall time, and its user+sys CPU time (``os.wait4``) is
reported beside it.

Every pair is checked: both plans validate, both traces complete, and the
two sides' plan bytes and trace bytes are identical (``run_wide``: both
processes exit 0 and print the same trace bytes). A failed check exits 1.

``--write-every K`` sends one directory write to both sides' directories
before every K-th pair, so that the next goal discovers a changed snapshot:
for ``plan_large``, registering or removing an agent (alternately); for
``tcp_mixed``, the next of ``inputs.tcp_mixed(seed).extra["writes"]``, every
third pair by default, as ``bench/run.py`` writes. Goals right after a write
are also reported on their own. Prints one JSON object:

    python3 tools/pair.py --parent ../parent --change . --goals 600 > pair.json
    python3 tools/pair.py --parent . --change . --goals 20   # smoke: src with itself
    python3 tools/pair.py --workload tcp_mixed --parent ../parent --change . --goals 1000
    python3 tools/pair.py --workload run_wide --parent ../parent --change . --goals 40 --warmup 4
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in either tree, as bench/run.py
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import inputs as gen  # noqa: E402  (generated documents only; imports no dalia)

WRITE_AGENT = "agent_0write"  # sorts first, so it becomes the smallest eligible agent

# Seconds a server gets to report that it is serving, and to exit after SIGINT.
SERVER_START_SECONDS = 60
SERVER_STOP_SECONDS = 10


def load_tree(tree: Path, name: str):
    """Import ``<tree>/src/dalia`` as package ``name``; its modules import
    one another relatively, so two trees load side by side."""
    package_dir = tree / "src" / "dalia"
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Side:
    """One tree's server and directory clients, and its goal pipeline."""

    def __init__(self, package, servers: list, directory):
        self.dalia = package
        self.servers = servers
        self.directory = directory

    def goal(self, intent: str, bindings: dict) -> tuple[float, bytes, bytes]:
        """(seconds, plan bytes, trace bytes) of one checked goal."""
        d = self.dalia
        goal = d.planner.Goal(intent, bindings)
        start = time.perf_counter()
        ctx = d.discovery.discover(self.servers, self.directory, set(goal.bindings))
        graph = d.planner.plan(goal, ctx)
        report = d.planner.validate_graph(graph, goal, ctx)
        if not report.ok:
            raise SystemExit(f"{intent}: plan refused: {report.violations}")
        trace = d.executor.execute(graph, goal, ctx, d.discovery.build_invoker(ctx))
        payload = d.executor.canonical_serialize_trace(trace)
        elapsed = time.perf_counter() - start
        if trace.outcome != d.executor.OUTCOME_COMPLETED:
            raise SystemExit(f"{intent}: outcome {trace.outcome}")
        return elapsed, d.planner.canonical_serialize_graph(graph), payload

    def close(self) -> None:
        for client in [*self.servers, self.directory]:
            client.close()


def local_side(package, inp: gen.Inputs) -> Side:
    wire = package.wire
    servers = [
        wire.LocalClient(wire.WireServer(wire.parse_server_config(doc)), f"local:{sid}")
        for sid, doc in inp.servers.items()
    ]
    service = wire.DirectoryService(package.directory.load_snapshot(inp.snapshot))
    return Side(package, servers, wire.LocalClient(service, "local:directory"))


class ServerProcesses:
    """One tree's ``dalia ... serve --tcp`` children, each on a port the
    kernel picks; ``stop()`` ends every one that is running."""

    def __init__(self, tree: Path, workdir: Path):
        self.tree = tree
        self.workdir = workdir
        self.procs: list[subprocess.Popen] = []

    def start(self, args: list[str]) -> str:
        """Start ``python -m dalia.cli <args> --tcp 127.0.0.1:0``; its address
        once it reports that it is serving."""
        env = dict(os.environ, PYTHONPATH=str(self.tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "dalia.cli", *args, "--tcp", "127.0.0.1:0"],
            cwd=self.workdir,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        self.procs.append(proc)
        ready, _, _ = select.select([proc.stderr], [], [], SERVER_START_SECONDS)
        line = proc.stderr.readline().decode(errors="replace") if ready else ""
        if not line.startswith("serving "):
            raise SystemExit(f"{self.tree}: {' '.join(args[:2])} did not start: {line.strip()!r}")
        return line.split()[-1]

    def stop(self) -> None:
        """SIGINT every running child at once, then wait for each and kill
        one that has not exited within SERVER_STOP_SECONDS."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        while self.procs:
            proc = self.procs.pop()
            try:
                proc.wait(timeout=SERVER_STOP_SECONDS)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            finally:
                proc.stderr.close()


def tcp_side(package, tree: Path, inp: gen.Inputs, stack: contextlib.ExitStack) -> Side:
    """A side over loopback TCP to servers of ``tree``; ``stack`` stops the
    servers and removes their files."""
    workdir = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="pair-")))
    servers = ServerProcesses(tree, workdir)
    stack.callback(servers.stop)
    addresses = []
    for server_id, doc in inp.servers.items():
        path = workdir / f"{server_id}.json"
        path.write_text(json.dumps(doc))
        addresses.append(servers.start(["server", "serve", "--config", str(path)]))
    # The directory writes its snapshot back on shutdown: give it a copy.
    snapshot = workdir / "directory-scratch.json"
    snapshot.write_text(json.dumps(inp.snapshot))
    directory = servers.start(["directory", "serve", "--snapshot", str(snapshot)])
    wire = package.wire
    side = Side(package, [wire.TcpClient(a) for a in addresses], wire.TcpClient(directory))
    stack.callback(side.close)
    return side


class ProcessSide:
    """One tree's goals as fresh ``dalia run`` processes, from a copy of its
    ``src/dalia/*.py`` in ``workdir`` that never gains bytecode."""

    def __init__(self, tree: Path, inp: gen.Inputs, workdir: Path):
        package = workdir / "dalia"
        package.mkdir()
        for source in (tree / "src" / "dalia").glob("*.py"):
            shutil.copyfile(source, package / source.name)
        for server_id, doc in inp.servers.items():
            (workdir / f"{server_id}.json").write_text(json.dumps(doc))
        (workdir / "directory.json").write_text(json.dumps(inp.snapshot))
        self.config = workdir / "orchestrator.json"
        self.config.write_text(
            json.dumps(
                {
                    "servers": [f"local:{sid}.json" for sid in inp.servers],
                    "directory": "local:directory.json",
                }
            )
        )
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(workdir), PYTHONDONTWRITEBYTECODE="1")
        self.cpu_ms: list[float] = []  # each goal's child user+sys time, in goal order

    def goal(self, intent: str, bindings: dict) -> tuple[float, bytes, bytes]:
        """(seconds, no plan bytes, trace bytes) of one ``dalia run`` process."""
        inputs = [f"{slot}={value}" for slot, value in bindings.items()]
        argv = ["run", "--config", str(self.config), "--intent", intent, "--inputs", *inputs]
        with tempfile.TemporaryFile() as stderr:  # a file: a full pipe could stall the child
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "dalia.cli", *argv],
                cwd=self.workdir,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=stderr,
            )
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                stderr.seek(0)
                reason = stderr.read().decode(errors="replace").strip()
                raise SystemExit(f"{intent}: dalia run exited {proc.returncode}: {reason}")
        self.cpu_ms.append((usage.ru_utime + usage.ru_stime) * 1e3)
        return elapsed, b"", stdout


def directory_writes(workload: str, inp: gen.Inputs) -> list[tuple[str, dict]]:
    """The writes ``--write-every`` sends, in order (cycled when exhausted)."""
    if workload == "tcp_mixed":
        return [(method, params) for method, params, _ in inp.extra["writes"]]
    record = {
        "agent_id": WRITE_AGENT,
        "role": "task_executor",
        "domains": ["bench"],
        "accessible_servers": sorted(inp.servers),
    }
    return [
        ("directory/register_agent", {"record": record}),
        ("directory/remove_agent", {"agent_id": WRITE_AGENT}),
    ]


def _quartiles(values: list[float]) -> list[float]:
    return [round(q, 4) for q in statistics.quantiles(values, n=4)]


def _summary(ms: list[float]) -> dict:
    return {"p50_ms": round(statistics.median(ms), 4), "quartiles_ms": _quartiles(ms)}


def run_pairs(args, inp: gen.Inputs, sides: dict[str, Side]) -> dict | None:
    """Alternate goals over ``sides``; the result, or None when the two
    sides' plan or trace bytes differ."""
    writes = directory_writes(args.workload, inp)
    times: dict[str, list[float]] = {"parent": [], "change": []}
    after_write: dict[str, list[float]] = {"parent": [], "change": []}
    written = 0
    for k in range(args.warmup + args.goals):
        wrote = args.write_every > 0 and k % args.write_every == 0
        if wrote:
            method, params = writes[written % len(writes)]
            for side in sides.values():
                side.directory.call(method, params)
            written += 1
        intent = inp.schedule[k % len(inp.schedule)]
        bindings = inp.bindings(intent)
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        results = {name: sides[name].goal(intent, bindings) for name in order}
        if results["parent"][1:] != results["change"][1:]:
            print(f"goal {k} ({intent}): plan or trace bytes differ", file=sys.stderr)
            return None
        if k < args.warmup:
            continue
        for name, (seconds, _, _) in results.items():
            times[name].append(seconds * 1e3)
            if wrote:
                after_write[name].append(seconds * 1e3)

    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    result = {
        "workload": args.workload,
        "parent": str(args.parent),
        "change": str(args.change),
        "seed": args.seed,
        "goals": args.goals,
        "warmup": args.warmup,
        "machine": {
            "platform": platform.platform(),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "cpus_pinned": sorted(os.sched_getaffinity(0)),
        },
        "sides": {name: _summary(ms) for name, ms in times.items()},
        "p50_ratio": round(statistics.median(times["change"]) / statistics.median(times["parent"]), 4),
        "paired_ratio_p50": round(statistics.median(ratios), 4),
        "paired_ratio_quartiles": _quartiles(ratios),
        "change_faster_share": round(sum(r < 1 for r in ratios) / len(ratios), 4),
    }
    if args.workload == "run_wide":
        cpu = {name: side.cpu_ms[args.warmup:] for name, side in sides.items()}
        cpu_ratios = [c / p for p, c in zip(cpu["parent"], cpu["change"])]
        result["child_cpu"] = {name: _summary(ms) for name, ms in cpu.items()}
        result["cpu_paired_ratio_p50"] = round(statistics.median(cpu_ratios), 4)
        result["cpu_paired_ratio_quartiles"] = _quartiles(cpu_ratios)
    if args.write_every:
        result["write_every"] = args.write_every
        result["after_write"] = {
            name: {"goals": len(ms), **_summary(ms)} for name, ms in after_write.items() if len(ms) > 1
        }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=("plan_large", "tcp_mixed", "run_wide"), default="plan_large"
    )
    parser.add_argument("--parent", type=Path, required=True, help="a source tree (has src/dalia)")
    parser.add_argument("--change", type=Path, required=True, help="a source tree (has src/dalia)")
    parser.add_argument("--goals", type=int, default=600, help="timed goals per side")
    parser.add_argument("--warmup", type=int, default=30, help="untimed goals per side first")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--write-every", type=int, help="directory write every K pairs (tcp_mixed: 3, else none)"
    )
    args = parser.parse_args(argv)
    if args.goals < 4:
        parser.error("--goals must be at least 4")
    if args.workload == "run_wide" and args.write_every:
        parser.error("run_wide has no directory to write to")
    if args.write_every is None:
        args.write_every = 3 if args.workload == "tcp_mixed" else 0

    # Pinned as bench/run.py pins: the client and the servers share one CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # A terminated run still stops its servers and removes their files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    inp = gen.GENERATORS[args.workload](args.seed)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with contextlib.ExitStack() as stack:
        sides = {}
        for name, tree in trees.items():
            if args.workload == "run_wide":
                workdir = stack.enter_context(tempfile.TemporaryDirectory(prefix="pair-"))
                sides[name] = ProcessSide(tree, inp, Path(workdir))
                continue
            package = load_tree(tree, f"dalia_{name}")
            if args.workload == "tcp_mixed":
                sides[name] = tcp_side(package, tree, inp, stack)
            else:
                sides[name] = local_side(package, inp)
        result = run_pairs(args, inp, sides)
    if result is None:
        return 1
    if args.workload == "run_wide":
        result["bytecode"] = "none: both sides compile src/dalia/*.py from source in every process"
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
