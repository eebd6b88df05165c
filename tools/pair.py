"""Paired goal timings of two source trees in one process.

Loads ``<tree>/src/dalia`` of each tree under its own package name
(``dalia_parent`` and ``dalia_change``), builds the same ``plan_large``
inputs (``bench/inputs.py``) for both, and runs goals alternately: one goal
on each side per pair, the side that goes first alternating from pair to
pair. A goal is discover -> plan -> validate_graph -> execute ->
canonical_serialize_trace over in-process ``LocalClient``s, as
``bench/run.py`` runs ``plan_large``. Both sides run in the same spell, so
a VM whose speed drifts between spells moves both alike.

Every pair is checked: both plans validate, both traces complete, and the
two sides' plan bytes and trace bytes are identical. A failed check exits 1.

``--write-every K`` registers or removes an agent (alternately) on both
sides' directories before every K-th pair, so that the next goal discovers
a changed snapshot; goals right after a write are also reported on their
own. Prints one JSON object:

    python3 tools/pair.py --parent ../parent --change . --goals 600 > pair.json
    python3 tools/pair.py --parent . --change . --goals 20   # smoke: src with itself
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import inputs as gen  # noqa: E402  (generated documents only; imports no dalia)

WRITE_AGENT = "agent_0write"  # sorts first, so it becomes the smallest eligible agent


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
    """One tree's server and directory, and its goal pipeline."""

    def __init__(self, package, inp: gen.Inputs):
        self.dalia = package
        wire = package.wire
        self.servers = [
            wire.LocalClient(wire.WireServer(wire.parse_server_config(doc)), f"local:{sid}")
            for sid, doc in inp.servers.items()
        ]
        self.service = wire.DirectoryService(package.directory.load_snapshot(inp.snapshot))
        self.directory = wire.LocalClient(self.service, "local:directory")

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

    def write(self, register: bool, servers: list[str]) -> None:
        if register:
            record = {
                "agent_id": WRITE_AGENT,
                "role": "task_executor",
                "domains": ["bench"],
                "accessible_servers": servers,
            }
            self.directory.call("directory/register_agent", {"record": record})
        else:
            self.directory.call("directory/remove_agent", {"agent_id": WRITE_AGENT})


def _quartiles(values: list[float]) -> list[float]:
    return [round(q, 4) for q in statistics.quantiles(values, n=4)]


def _summary(ms: list[float]) -> dict:
    return {"p50_ms": round(statistics.median(ms), 4), "quartiles_ms": _quartiles(ms)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="a source tree (has src/dalia)")
    parser.add_argument("--change", type=Path, required=True, help="a source tree (has src/dalia)")
    parser.add_argument("--goals", type=int, default=600, help="timed goals per side")
    parser.add_argument("--warmup", type=int, default=30, help="untimed goals per side first")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--write-every", type=int, default=0, help="directory write every K pairs")
    args = parser.parse_args(argv)
    if args.goals < 4:
        parser.error("--goals must be at least 4")

    inp = gen.plan_large(args.seed)
    sides = {
        "parent": Side(load_tree(args.parent.resolve(), "dalia_parent"), inp),
        "change": Side(load_tree(args.change.resolve(), "dalia_change"), inp),
    }
    write_servers = sorted(inp.servers)
    times: dict[str, list[float]] = {"parent": [], "change": []}
    after_write: dict[str, list[float]] = {"parent": [], "change": []}
    writes = 0
    for k in range(args.warmup + args.goals):
        wrote = args.write_every > 0 and k % args.write_every == 0
        if wrote:
            for side in sides.values():
                side.write(writes % 2 == 0, write_servers)
            writes += 1
        intent = inp.schedule[k % len(inp.schedule)]
        bindings = inp.bindings(intent)
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        results = {name: sides[name].goal(intent, bindings) for name in order}
        if results["parent"][1:] != results["change"][1:]:
            print(f"goal {k} ({intent}): plan or trace bytes differ", file=sys.stderr)
            return 1
        if k < args.warmup:
            continue
        for name, (seconds, _, _) in results.items():
            times[name].append(seconds * 1e3)
            if wrote:
                after_write[name].append(seconds * 1e3)

    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    result = {
        "parent": str(args.parent),
        "change": str(args.change),
        "seed": args.seed,
        "goals": args.goals,
        "warmup": args.warmup,
        "machine": {
            "platform": platform.platform(),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(),
        },
        "sides": {name: _summary(ms) for name, ms in times.items()},
        "p50_ratio": round(statistics.median(times["change"]) / statistics.median(times["parent"]), 4),
        "paired_ratio_p50": round(statistics.median(ratios), 4),
        "paired_ratio_quartiles": _quartiles(ratios),
        "change_faster_share": round(sum(r < 1 for r in ratios) / len(ratios), 4),
    }
    if args.write_every:
        result["write_every"] = args.write_every
        result["after_write"] = {
            name: {"goals": len(ms), **_summary(ms)} for name, ms in after_write.items() if len(ms) > 1
        }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
