"""Phase timings over synthetic task graphs of 10 to 1000 nodes.

For each shape (chain, fan-in, diamond) and size n, one in-process server
declares a single task of n capabilities, and one agent may run all of them.
A repeat is one goal: discover, plan, validate, execute. Each phase is
reported as the best of the repeats, all in one process; ``discover_first_ms``
is the first repeat's discover alone, the first discovery of its documents in
the process after the server parsed its configuration.

Every repeat is checked: the plan validates, the trace completes and passes
``replay_check``, and every repeat emits the same plan bytes. A failed check
exits 1, so the script doubles as a correctness smoke test:

    PYTHONPATH=src python3 tools/scale.py --sizes 10 100

The ``wire`` section times the wire layers on a ``plan_large``-sized answer:
``dalia/list_capabilities`` of one server declaring the three shapes at 120
nodes each (360 capabilities, 3 tasks). Each figure is the best of the
repeats, in microseconds per call: ``frame_block`` and ``read_block`` of that
response, ``handle`` followed by ``canonical_bytes`` (what a byte transport
spent per request before answers were encoded once) against ``answer``, a
``LocalClient.call``, and a ``TcpClient.call`` over loopback to an in-process
TCP server. It also checks that ``answer`` gives ``canonical_bytes(handle(...))``
for every method of that server and of its directory, before and after a
directory write; a difference exits 1.

``--compare PARENT CHANGE`` times two source trees instead, each in fresh
processes with ``PYTHONPATH=<tree>/src``, alternating which runs first, and
prints every run and the per-side medians as JSON:

    python3 tools/scale.py --compare ../parent . --rounds 4 > BENCH.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import timeit

SHAPES = ("chain", "fanin", "diamond")
PHASES = ("discover", "plan", "validate", "execute")
SERVER = "scale"


def _capability(cid: str, inputs: list[str], outputs: list[str]) -> dict:
    return {
        "capability_id": cid,
        "role": "scale",
        "domain": "scale",
        "inputs": inputs,
        "outputs": outputs,
        "preconditions": [f"{inputs[0]}_known"],
        "postconditions": [],
    }


def _shape(kind: str, n: int) -> tuple[list[dict], list[str]]:
    """The capability documents of one n-node graph, and the task outputs.

    chain: n capabilities in a line. fanin: n-1 producers feeding one sink.
    diamond: layers of 8, 4 or 2 (the largest that divides n), each node
    reading two neighbours of the layer before.
    """
    if kind == "chain":
        slots = ["req"] + [f"s_{i}" for i in range(n)]
        caps = [_capability(f"chain.c{i}", [slots[i]], [slots[i + 1]]) for i in range(n)]
        return caps, [slots[-1]]
    if kind == "fanin":
        produced = [f"p_{i}" for i in range(n - 1)]
        caps = [_capability(f"fanin.c{i}", ["req"], [slot]) for i, slot in enumerate(produced)]
        caps.append(_capability("fanin.sink", produced, ["res"]))
        return caps, ["res"]
    if kind == "diamond":
        width = next(w for w in (8, 4, 2, 1) if n % w == 0)
        caps = []
        for layer in range(n // width):
            for i in range(width):
                below = f"d_{layer - 1}"
                inputs = (
                    ["req"] if layer == 0
                    else sorted({f"{below}_{i}", f"{below}_{(i + 1) % width}"})
                )
                caps.append(_capability(f"diamond.c{layer}_{i}", inputs, [f"d_{layer}_{i}"]))
        last = n // width - 1
        return caps, [f"d_{last}_{i}" for i in range(width)]
    raise ValueError(f"unknown shape {kind!r}")


def _documents(kind: str, n: int) -> tuple[dict, dict]:
    """(server config, directory snapshot) for one shape and size."""
    caps, outputs = _shape(kind, n)
    task = {
        "task_id": f"{kind}.task",
        "intent": f"run_{kind}",
        "inputs": ["req"],
        "outputs": outputs,
        "capabilities": [cap["capability_id"] for cap in caps],
    }
    config = {"server_id": SERVER, "capabilities": caps, "tasks": [task], "handlers": {}}
    agent = {"agent_id": "agent", "role": "scale", "domains": ["scale"], "accessible_servers": [SERVER]}
    snapshot = {
        "origin": "scale",
        "agents": {"agent": agent},
        "server_capabilities": {SERVER: [cap["capability_id"] for cap in caps]},
    }
    return config, snapshot


class CheckFailed(Exception):
    pass


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def measure(kind: str, n: int, repeats: int) -> dict:
    """Best-of-``repeats`` phase times in ms for one shape and size; raises
    CheckFailed when a check fails, or the error planning raised."""
    from dalia.discovery import build_invoker, discover
    from dalia.directory import load_snapshot
    from dalia.executor import OUTCOME_COMPLETED, execute, replay_check
    from dalia.planner import Goal, canonical_serialize_graph, plan, validate_graph
    from dalia.wire import DirectoryService, LocalClient, WireServer, parse_server_config

    config, snapshot = _documents(kind, n)
    server = LocalClient(WireServer(parse_server_config(config)), endpoint="local:scale")
    directory = LocalClient(DirectoryService(load_snapshot(snapshot)), endpoint="local:dir")
    goal = Goal(intent=f"run_{kind}", bindings={"req": "r"})

    times: dict[str, list[float]] = {phase: [] for phase in PHASES}
    plans = set()
    for _ in range(repeats):
        started = time.perf_counter()
        ctx = discover([server], directory, set(goal.bindings))
        planned = time.perf_counter()
        graph = plan(goal, ctx)
        validated = time.perf_counter()
        report = validate_graph(graph, goal, ctx)
        _check(report.ok, f"{kind} n={n}: plan refused: {report.violations}")
        executed = time.perf_counter()
        trace = execute(graph, goal, ctx, build_invoker(ctx))
        done = time.perf_counter()
        for phase, (start, end) in zip(
            PHASES,
            ((started, planned), (planned, validated), (validated, executed), (executed, done)),
        ):
            times[phase].append((end - start) * 1e3)
        _check(len(graph.nodes) == n, f"{kind} n={n}: {len(graph.nodes)} nodes")
        _check(trace.outcome == OUTCOME_COMPLETED, f"{kind} n={n}: trace {trace.outcome}")
        replay = replay_check(trace, graph)
        _check(replay.ok, f"{kind} n={n}: replay refused: {replay.violations}")
        plans.add(canonical_serialize_graph(graph))
    _check(len(plans) == 1, f"{kind} n={n}: repeated plans differ")

    result = {f"{phase}_ms": round(min(times[phase]), 3) for phase in PHASES}
    result["discover_first_ms"] = round(times["discover"][0], 3)
    result["plan_validate_execute_ms"] = round(
        min(sum(times[phase][i] for phase in PHASES[1:]) for i in range(repeats)), 3
    )
    return result


# Calls per timed batch in the wire section; a figure is the fastest batch's mean.
WIRE_BATCH = 40


def measure_wire(repeats: int) -> dict:
    """The ``wire`` section (see the module docstring); raises CheckFailed
    when an ``answer`` differs from the encoded ``handle``."""
    from dalia.canonical import canonical_bytes
    from dalia.directory import load_snapshot
    from dalia.serve import TcpServerHandle
    from dalia.wire import (
        DirectoryService,
        LocalClient,
        TcpClient,
        WireServer,
        frame_block,
        make_request,
        parse_server_config,
        read_block,
    )

    if not hasattr(WireServer, "answer"):
        return {}  # a tree from before answers were encoded once (``--compare``)
    config: dict = {"server_id": SERVER, "capabilities": [], "tasks": [], "handlers": {}}
    snapshot: dict = {"origin": "scale", "agents": {}, "server_capabilities": {SERVER: []}}
    for kind in SHAPES:
        shape_config, shape_snapshot = _documents(kind, 120)
        config["capabilities"] += shape_config["capabilities"]
        config["tasks"] += shape_config["tasks"]
        snapshot["agents"].update(shape_snapshot["agents"])
        snapshot["server_capabilities"][SERVER] += shape_snapshot["server_capabilities"][SERVER]
    server = WireServer(parse_server_config(config))
    directory = DirectoryService(load_snapshot(snapshot))

    def check_answers(dispatcher) -> None:
        # Without params, a write or an invoke is an error response and changes nothing.
        for request_id, method in enumerate(sorted(dispatcher._methods)):
            request = make_request(request_id, method, {})
            _check(
                dispatcher.answer(request) == canonical_bytes(dispatcher.handle(request)),
                f"wire: answer to {method} differs from the encoded handle",
            )

    check_answers(server)
    check_answers(directory)
    record = {"agent_id": "writer", "role": "scale", "domains": [], "accessible_servers": [SERVER]}
    directory.answer(make_request(0, "directory/register_agent", {"record": record}))
    check_answers(directory)

    request = make_request(1, "dalia/list_capabilities", {})
    response = server.handle(request)
    frame = frame_block(response)

    def best_us(call) -> float:
        runs = timeit.Timer(call).repeat(repeat=repeats, number=WIRE_BATCH)
        return round(min(runs) / WIRE_BATCH * 1e6, 2)

    local = LocalClient(server)
    handle = TcpServerHandle(server, "127.0.0.1:0")
    tcp = TcpClient(handle.address)
    try:
        tcp_call_us = best_us(lambda: tcp.call("dalia/list_capabilities"))
    finally:
        tcp.close()
        handle.shutdown()
    return {
        "capabilities": len(config["capabilities"]),
        "answer_bytes": len(server.answer(request)),
        "frame_block_us": best_us(lambda: frame_block(response)),
        "read_block_us": best_us(lambda: read_block(io.BytesIO(frame))),
        "handle_encode_us": best_us(lambda: canonical_bytes(server.handle(request))),
        "answer_us": best_us(lambda: server.answer(request)),
        "local_call_us": best_us(lambda: local.call("dalia/list_capabilities")),
        "tcp_call_us": tcp_call_us,
    }


def run_here(sizes: list[int], repeats: int) -> dict:
    result = {f"{kind}/{n}": measure(kind, n, repeats) for n in sizes for kind in SHAPES}
    result["wire"] = measure_wire(repeats)
    return result


def _machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                "",
            )
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu": model or platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def _git_head(tree: str) -> str | None:
    try:
        return subprocess.run(
            ["git", "-C", tree, "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def compare(parent: str, change: str, rounds: int, sizes: list[int], repeats: int) -> dict:
    """Alternate fresh worker processes over the two trees, ``rounds`` each."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for index in range(rounds):
        order = (("parent", parent), ("change", change))
        for side, tree in order if index % 2 == 0 else order[::-1]:
            env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
            command = [sys.executable, os.path.abspath(__file__), "--repeats", str(repeats)]
            command += ["--sizes", *map(str, sizes)]
            out = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
            runs[side].append(json.loads(out.stdout))
    medians = {
        side: {
            case: {
                metric: round(statistics.median(run[case][metric] for run in side_runs), 3)
                for metric in side_runs[0][case]
            }
            for case in side_runs[0]
        }
        for side, side_runs in runs.items()
    }
    return {
        "machine": _machine(),
        "parent": {"tree": parent, "sha": _git_head(parent)},
        "change": {"tree": change, "sha": _git_head(change)},
        "rounds": rounds,
        "repeats_per_run": repeats,
        "medians": medians,
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[10, 100, 1000])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--rounds", type=int, default=4)
    args = parser.parse_args(argv)
    if args.compare:
        result = compare(*args.compare, args.rounds, args.sizes, args.repeats)
    else:
        from dalia.errors import DaliaError

        try:
            result = run_here(args.sizes, args.repeats)
        except (CheckFailed, DaliaError) as exc:
            print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
