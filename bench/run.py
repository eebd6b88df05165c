#!/usr/bin/env python3
"""dalia's benchmark: closed-loop goals on three workloads.

Usage (from the repository root):

    python3 bench/run.py --workload plan_large --seed 1 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` and ``bench/README.md`` for why each):
``plan_large``, ``run_wide``, ``tcp_mixed``. One client, one goal in flight.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates blocks of two untraced and two traced goals for
``--seconds`` and reports the per-layer metrics from the traced goals.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it records the
run environment and details of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "dalia" / "__init__.py").is_file():
    sys.exit(f"bench: no dalia package under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from dalia.errors import DaliaError  # noqa: E402
from dalia.wire import DISCOVERY_CLASS_METHODS  # noqa: E402

# The plan and trace digests for this seed are pinned in golden.json.
REFERENCE_SEED = 0
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def pin_cpu() -> list[int]:
    """Pin this process, and so every process it starts, to one CPU.

    Unpinned, the client and the TCP servers land on the same or on
    different CPUs from run to run, and tcp_mixed's goal time moves by half
    (bench/README.md has the spreads).
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return sorted(os.sched_getaffinity(0))


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (which would
    search the parent directories of a checkout that is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_jiffies(cpu: int) -> tuple[int, int] | None:
    """(steal, total) jiffies of one CPU from /proc/stat, or None."""
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                if line.startswith(f"cpu{cpu} "):
                    fields = [int(x) for x in line.split()[1:]]
                    return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        pass
    return None


def environment(cpus: list[int]) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "cpu_affinity": cpus,
        "PYTHONDONTWRITEBYTECODE": {
            "inherited": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "children": workloads.child_env()["PYTHONDONTWRITEBYTECODE"],
        },
    }


class Loop:
    """Result of one closed loop: goal latencies and operation counts."""

    def __init__(self):
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.wall_s = 0.0


def closed_loop(workload, seconds: float, run_goal, between=None) -> Loop:
    """Run ``run_goal(k)`` back to back for ``seconds``, then ``between(k)``
    (default: the workload's ``after_goal``) after each.

    Each goal's latency covers only the goal. The checks are timed apart and
    taken out of ``wall_s``; work between goals (directory writes) stays in.
    """
    between = between or workload.after_goal
    loop = Loop()
    check_s = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        try:
            outcome = run_goal(k)
            problems = None
        except (DaliaError, OSError, subprocess.SubprocessError) as exc:
            outcome, problems = None, [f"goal {k}: {type(exc).__name__}: {exc}"]
        t1 = time.perf_counter()
        if problems is None:
            problems = workload.check(k, outcome)
        check_s += time.perf_counter() - t1
        loop.latencies_ms.append((t1 - t0) * 1e3)
        loop.attempted += 1
        loop.failed += bool(problems)
        loop.problems += problems
        extra, problems = between(k)
        loop.attempted += extra
        loop.failed += len(problems)
        loop.problems += problems
        k += 1
    loop.wall_s = time.perf_counter() - start - check_s
    return loop


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile by ``statistics.quantiles`` (exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def repeat_share_pct(intents: list[str]) -> float:
    seen: set[str] = set()
    repeats = 0
    for intent in intents:
        repeats += intent in seen
        seen.add(intent)
    return 100.0 * repeats / len(intents) if intents else 0.0


def import_ms(samples: int = 7) -> tuple[float, float]:
    """(fresh ``import dalia.cli`` minus a fresh ``pass``, the ``pass``),
    medians of each, in ms."""

    def median_ms(code: str) -> float:
        times = []
        for _ in range(samples):
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", code],
                cwd=ROOT,
                env=workloads.child_env(),
                stdin=subprocess.DEVNULL,
                check=True,
            )
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    start_ms = median_ms("pass")
    return median_ms("import dalia.cli") - start_ms, start_ms


def late_discovery_calls(summary) -> int:
    """Discovery-class wire calls recorded after a goal's context was sealed."""
    sealed = {s.goal: s.end for s in summary.named("discovery.discover")}
    return sum(
        1
        for s in summary.named("wire.call")
        if s.name.split(":", 1)[1] in DISCOVERY_CLASS_METHODS
        and s.goal in sealed
        and s.start >= sealed[s.goal]
    )


def layer_metrics(
    summary, workload, untraced_p50: float, traced_p50: float, cli_import_ms: float
) -> dict:
    """Every per-layer metric, from the traced goals of a ``--trace 1`` run.

    Times are per-goal medians unless the name says per call (``_p50`` and
    ``_us`` entries); a layer the workload does not exercise reads 0.
    """
    s = summary
    server_rss = workload.server_peak_rss_mb() if hasattr(workload, "server_peak_rss_mb") else 0.0
    writes = s.named("wire.call:directory/register_agent") + s.named(
        "wire.call:directory/remove_agent"
    )
    # The checks hold every plan equal to the generated task, so its size is
    # the plan's size.
    tasks = [workload.inputs.tasks[intent] for intent in workload.intents_seen]
    return {
        "cli.import_ms": (cli_import_ms, "ms"),
        "cli.load_config_ms": (s.goal_ms_median("cli.load_config"), "ms"),
        "wire.connect_ms": (s.goal_ms_median("wire.connect"), "ms"),
        "wire.calls": (s.goal_count_median("wire.call"), "count"),
        "wire.invoke_ms_p50": (s.call_median("wire.call:dalia/invoke", 1e3), "ms"),
        "wire.list_capabilities_ms_p50": (
            s.call_median("wire.call:dalia/list_capabilities", 1e3),
            "ms",
        ),
        "wire.snapshot_ms_p50": (s.call_median("wire.call:directory/snapshot", 1e3), "ms"),
        "wire.directory_write_ms_p50": (
            statistics.median([w.duration * 1e3 for w in writes]) if writes else 0.0,
            "ms",
        ),
        "wire.tcp_connects": (s.goal_count_median("wire.tcp_connect"), "count"),
        "wire.frame_block_us": (s.call_median("wire.frame_block", 1e6), "us"),
        "wire.read_block_us": (s.call_median("wire.read_block", 1e6), "us"),
        "wire.frame_bytes": (
            statistics.median(s.per_goal(s.named("wire.frame_block"), lambda x: x.size) or [0]),
            "bytes",
        ),
        "wire.dispatch_us": (s.call_median("wire.dispatch", 1e6), "us"),
        "wire.server_rss_mb": (server_rss, "MB"),
        "wire.late_discovery_calls": (late_discovery_calls(s), "count"),
        "discovery.discover_ms": (s.goal_ms_median("discovery.discover"), "ms"),
        "discovery.self_ms": (s.self_ms_median("discovery.discover"), "ms"),
        "discovery.build_invoker_ms": (s.goal_ms_median("discovery.build_invoker"), "ms"),
        "capabilities.parse_calls": (s.goal_count_median("capabilities.parse"), "count"),
        "capabilities.parse_ms": (s.goal_ms_median("capabilities.parse"), "ms"),
        "atdp.feasibility_calls": (s.goal_count_median("atdp.feasibility"), "count"),
        "atdp.feasibility_ms": (s.goal_ms_median("atdp.feasibility"), "ms"),
        "directory.load_snapshot_ms": (s.goal_ms_median("directory.load_snapshot"), "ms"),
        "directory.resolve_calls": (s.goal_count_median("directory.resolve"), "count"),
        "directory.resolve_ms": (s.goal_ms_median("directory.resolve"), "ms"),
        "planner.resolve_goal_ms": (s.goal_ms_median("planner.resolve_goal"), "ms"),
        "planner.synthesize_ms": (s.goal_ms_median("planner.synthesize"), "ms"),
        "planner.assign_ms": (s.goal_ms_median("planner.assign"), "ms"),
        "planner.validate_ms": (s.goal_ms_median("planner.validate"), "ms"),
        "planner.nodes": (statistics.median(len(t.capability_docs) for t in tasks), "count"),
        "planner.edges": (statistics.median(len(t.edges) for t in tasks), "count"),
        "executor.execute_ms": (s.goal_ms_median("executor.execute"), "ms"),
        "executor.self_ms": (s.self_ms_median("executor.execute"), "ms"),
        "executor.structural_ms": (s.goal_ms_median("executor.structural"), "ms"),
        "executor.order_ms": (s.goal_ms_median("executor.order"), "ms"),
        "executor.invoke_calls": (s.goal_count_median("executor.invoke"), "count"),
        "executor.serialize_trace_ms": (s.goal_ms_median("executor.serialize_trace"), "ms"),
        "trace.overhead_pct": (100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%"),
    }


def splits(summary, startup_ms: float) -> dict:
    """Share of goal time per group of layers, the check that each workload
    stresses what it is meant to. ``startup_ms`` is added to each traced goal:
    the interpreter start and ``import dalia.cli`` of a fresh ``dalia run``
    for run_wide, 0 for the in-process workloads."""
    return {
        "planner_executor": summary.share_pct(
            ["planner.plan", "planner.validate", "executor.execute", "executor.serialize_trace"]
        ),
        "startup_config_connect_discovery": summary.share_pct(
            ["cli.load_config", "discovery.discover", "discovery.build_invoker"], startup_ms
        ),
        "wire_calls": summary.share_pct(["wire.call"]),
    }


def run(args) -> tuple[dict, dict]:
    cpus = pin_cpu()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    details: dict = {"environment": environment(cpus), "workload": args.workload, "seed": args.seed}
    before = cpu_jiffies(cpus[-1])
    try:
        if args.trace:
            result = traced_run(workload, args.seconds, details)
        else:
            result = untraced_run(workload, args.seconds, details)
        after = cpu_jiffies(cpus[-1])
        if before and after and after[1] > before[1]:
            # Time the hypervisor gave this CPU to others: the main source of
            # run-to-run spread on a shared virtual machine.
            details["cpu_steal_pct"] = 100 * (after[0] - before[0]) / (after[1] - before[1])
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    return result, details


def setup_times(workload) -> list[float]:
    """Time ``setup`` several times; the last set-up stays up for the loop."""
    times = []
    for i in range(workload.setup_repeats):
        if i:
            workload.teardown()
        gc.collect()  # every set-up starts from the same heap, whatever ran before
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def finish(workload, loop: Loop, details: dict) -> dict:
    problems = loop.problems + workload.finish()
    digest = workloads.reference_digest(workload.name, REFERENCE_SEED)
    golden = json.loads(GOLDEN.read_text()).get(workload.name)
    if digest != golden:
        problems.append(f"reference plan/trace digest {digest} != golden {golden}")
    details["goals"] = len(loop.latencies_ms)
    details["goals_repeating_an_intent_pct"] = round(repeat_share_pct(workload.intents_seen), 2)
    details["problems"] = problems[:20]
    post = len(problems) - len(loop.problems)
    return {
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": min(loop.attempted, loop.failed + post),
    }


def untraced_run(workload, seconds: float, details: dict) -> dict:
    setups = setup_times(workload)
    loop = closed_loop(workload, seconds, workload.goal)
    if workload.name == "run_wide":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = loop.latencies_ms
    result = finish(workload, loop, details)
    details["setup_s_samples"] = setups
    result["metrics"] = {
        "goal_ms_p50": {"value": statistics.median(lat), "unit": "ms"},
        "goal_ms_p90": {"value": percentile(lat, 90), "unit": "ms"},
        "goals_per_s": {"value": len(lat) / loop.wall_s, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }
    return result


def traced_run(workload, seconds: float, details: dict) -> dict:
    import spans

    workload.setup()
    workload.in_process = True  # run_wide: spans are taken from cli.main here
    tracer = spans.Tracer()
    untraced_ms: list[float] = []

    def goal(k):
        # Blocks of two goals alternate between untraced and traced, so both
        # sides see every intent and the same warm-up.
        if (k // 2) % 2:
            t0 = time.perf_counter()
            outcome = workload.goal(k)
            untraced_ms.append((time.perf_counter() - t0) * 1e3)
            return outcome
        with tracer.installed():
            return tracer.goal(k, workload.goal, k)

    def between(k):
        with tracer.installed():  # directory writes are always traced
            return workload.after_goal(k)

    loop = closed_loop(workload, seconds, goal, between)
    summary = spans.Summary(tracer.spans)
    cli_import, start_ms = import_ms()
    metrics = layer_metrics(
        summary,
        workload,
        statistics.median(untraced_ms),
        statistics.median(summary.goal_ms.values()),
        cli_import,
    )
    if metrics["wire.late_discovery_calls"][0]:
        loop.problems.append("discovery-class calls after sealing in the traced goals")
    details["trace.coverage_pct"] = summary.coverage_pct()
    details["split_pct"] = splits(
        summary, start_ms + cli_import if workload.name == "run_wide" else 0.0
    )
    result = finish(workload, loop, details)
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
    }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its servers and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result, details = run(args)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
