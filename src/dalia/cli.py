"""Operator entry point.

Drives the three-phase pipeline (discover, plan, run) and hosts the wire
servers. Exit codes: 0 success, 1 usage or invalid configuration,
2 discovery or bind failure, 3 planning failure, 4 execution aborted.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import stat
import sys
from pathlib import Path

from .capabilities import is_identifier, load_document
from .directory import empty_snapshot, load_snapshot, save_snapshot
from .discovery import ExecutionContext, build_invoker, context_fingerprint, discover, feasibility
from .errors import (
    BindFailure,
    ConfigInvalid,
    DaliaError,
    DiscoveryError,
    MalformedDocument,
    PlanningError,
    _Value,
)
from .executor import OUTCOME_COMPLETED, canonical_serialize_trace, execute
from .planner import Goal, canonical_serialize_graph, export_dot, plan, validate_graph
from .wire import DirectoryService, WireServer, parse_server_config

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISCOVERY = 2
EXIT_PLANNING = 3
EXIT_EXECUTION = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are exit 1
        raise UsageError(message)


class OrchestratorConfig(_Value):
    def __init__(self, servers: tuple[str, ...], directory: str):
        object.__setattr__(self, "servers", servers)
        object.__setattr__(self, "directory", directory)


def load_orchestrator_config(path: str) -> OrchestratorConfig:
    try:
        data = load_document(Path(path).read_bytes(), "config")
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except MalformedDocument as exc:
        raise UsageError(f"config {path}: {exc}") from exc
    unknown = set(data) - {"servers", "directory"}
    if unknown:
        raise UsageError(f"unexpected config fields: {sorted(unknown)}")
    servers = data.get("servers")
    directory = data.get("directory")
    if not isinstance(servers, list) or not servers or not all(
        isinstance(s, str) for s in servers
    ):
        raise UsageError("config must list at least one server endpoint")
    if not isinstance(directory, str) or not directory:
        raise UsageError("config must name exactly one directory endpoint")
    base = Path(path).resolve().parent
    return OrchestratorConfig(
        tuple(_resolve_endpoint(s, base) for s in servers),
        _resolve_endpoint(directory, base),
    )


def _resolve_endpoint(endpoint: str, base: Path) -> str:
    """local: endpoints with relative paths are relative to the config file."""
    if endpoint.startswith("local:"):
        target = Path(endpoint[len("local:"):])
        if not target.is_absolute():
            return "local:" + str(base / target)
    return endpoint


def parse_inputs(pairs: list[str]) -> dict[str, str]:
    bindings: dict[str, str] = {}
    for pair in pairs:
        slot, sep, value = pair.partition("=")
        if not sep:
            raise UsageError(f"inputs must be slot=value pairs, got {pair!r}")
        if not is_identifier(slot):
            raise UsageError(f"not a valid slot name: {slot!r}")
        if slot in bindings:
            raise UsageError(f"duplicate input slot {slot!r}")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:  # a byte that is not UTF-8 reaches argv as a surrogate
            raise UsageError(f"input {slot!r} is not UTF-8 text: {value!r}") from None
        bindings[slot] = value
    return bindings


def build_parser() -> _Parser:
    parser = _Parser(prog="dalia", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    p_discover = commands.add_parser("discover", help="query endpoints and print the sealed context")
    p_discover.add_argument("--config", required=True)
    p_discover.add_argument("--inputs", nargs="*", default=[], metavar="slot=value")
    p_discover.set_defaults(handler=cmd_discover)

    p_plan = commands.add_parser("plan", help="synthesize and print the task graph")
    p_plan.add_argument("--config", required=True)
    p_plan.add_argument("--intent", required=True)
    p_plan.add_argument("--inputs", nargs="*", default=[], metavar="slot=value")
    p_plan.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p_plan.set_defaults(handler=cmd_plan)

    p_run = commands.add_parser("run", help="plan and execute, printing the trace")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--intent", required=True)
    p_run.add_argument("--inputs", nargs="*", default=[], metavar="slot=value")
    p_run.add_argument("--trace", help="write the trace to this file instead of stdout")
    p_run.set_defaults(handler=cmd_run)

    p_server = commands.add_parser("server", help="capability server commands")
    server_commands = p_server.add_subparsers(dest="server_command", required=True)
    p_server_serve = server_commands.add_parser("serve")
    p_server_serve.add_argument("--config", required=True)
    p_server_serve.add_argument("--tcp", metavar="host:port")
    p_server_serve.set_defaults(handler=cmd_server_serve)

    p_dir = commands.add_parser("directory", help="directory service commands")
    dir_commands = p_dir.add_subparsers(dest="directory_command", required=True)
    p_dir_serve = dir_commands.add_parser("serve")
    p_dir_serve.add_argument("--snapshot", help="load/save the directory snapshot here")
    p_dir_serve.add_argument("--tcp", metavar="host:port")
    p_dir_serve.set_defaults(handler=cmd_directory_serve)

    return parser


def _goal(args) -> Goal:
    intent = args.intent
    if not is_identifier(intent):
        raise UsageError(f"not a valid intent token: {intent!r}")
    return Goal(intent=intent, bindings=parse_inputs(args.inputs))


def _close_routes(ctx: ExecutionContext) -> None:
    """Close the server connections discovery opened for this command."""
    for client in ctx.server_routes.values():
        client.close()


def cmd_discover(args, out) -> int:
    config = load_orchestrator_config(args.config)
    bindings = parse_inputs(args.inputs)
    ctx = discover(config.servers, config.directory, set(bindings))
    _close_routes(ctx)
    reports = feasibility(ctx)
    for label, names in (
        ("capabilities", sorted(cid.render() for cid in ctx.capabilities)),
        ("tasks", sorted(tid.render() for tid in ctx.tasks)),
        ("agents", sorted(ctx.directory.agents)),
        ("feasible tasks", sorted(tid.render() for tid in reports if reports[tid].feasible)),
    ):
        out.write(f"{label} ({len(names)}): {', '.join(names)}\n")
    out.write(f"fingerprint: {context_fingerprint(ctx)}\n")
    return EXIT_OK


def cmd_plan(args, out) -> int:
    config = load_orchestrator_config(args.config)
    goal = _goal(args)
    ctx = discover(config.servers, config.directory, set(goal.bindings))
    _close_routes(ctx)
    graph = plan(goal, ctx)
    report = validate_graph(graph, goal, ctx)
    if not report.ok:
        raise PlanningError("; ".join(report.violations))
    if args.dot:
        out.write(export_dot(graph))
    else:
        out.write(canonical_serialize_graph(graph).decode("utf-8") + "\n")
    return EXIT_OK


def _open_trace(path: str):
    """(handle, created): ``path`` opened for appending, so an unwritable path
    is refused before anything runs and an existing file keeps its bytes until
    the trace is written."""
    try:
        try:
            return open(path, "xb"), True
        except FileExistsError:
            return open(path, "ab"), False
    except OSError as exc:
        raise UsageError(f"cannot write trace {path}: {exc.strerror or exc}") from exc


def cmd_run(args, out) -> int:
    config = load_orchestrator_config(args.config)
    goal = _goal(args)
    sink, created = _open_trace(args.trace) if args.trace else (None, False)
    try:
        ctx = discover(config.servers, config.directory, set(goal.bindings))
        try:
            graph = plan(goal, ctx)
            report = validate_graph(graph, goal, ctx)
            if not report.ok:
                raise PlanningError("; ".join(report.violations))
            trace = execute(graph, goal, ctx, build_invoker(ctx))
        finally:
            _close_routes(ctx)
        payload = canonical_serialize_trace(trace)
        if sink is None:
            out.write(payload.decode("utf-8") + "\n")
        else:
            if stat.S_ISREG(os.fstat(sink.fileno()).st_mode):  # not, say, /dev/null
                sink.truncate(0)
            sink.write(payload + b"\n")
            created = False  # written: kept
    finally:
        if sink is not None:
            sink.close()
            if created:  # the run stopped before writing: leave no file behind
                os.unlink(args.trace)
    return EXIT_OK if trace.outcome == OUTCOME_COMPLETED else EXIT_EXECUTION


def cmd_server_serve(args, out) -> int:
    from .serve import serve

    try:
        config = parse_server_config(Path(args.config).read_bytes())
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {args.config}: {exc}") from exc
    serve(WireServer(config), args.tcp, config.server_id)
    return EXIT_OK


def cmd_directory_serve(args, out) -> int:
    from .serve import serve

    snapshot = empty_snapshot()
    if args.snapshot and Path(args.snapshot).exists():
        try:
            snapshot = load_snapshot(Path(args.snapshot).read_bytes())
        except (OSError, MalformedDocument) as exc:
            raise ConfigInvalid(f"cannot load snapshot {args.snapshot}: {exc}") from exc
    service = DirectoryService(snapshot)
    try:
        serve(service, args.tcp, "directory")
    finally:
        failed = sys.exc_info()[1]  # why serving failed, reported before a failed save
        if args.snapshot and not isinstance(failed, BindFailure):  # else nothing was served
            try:
                Path(args.snapshot).write_bytes(save_snapshot(service.snapshot) + b"\n")
            except OSError as exc:
                if failed is None:
                    raise ConfigInvalid(f"cannot save snapshot {args.snapshot}: {exc}") from exc
    return EXIT_OK


def main(argv: list[str] | None = None, out=None) -> int:
    if out is None:
        out = sys.stdout
        if isinstance(out, io.TextIOWrapper):  # UTF-8 whatever the locale
            out.reconfigure(encoding="utf-8")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigInvalid as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BindFailure, DiscoveryError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DISCOVERY
    except PlanningError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PLANNING
    except DaliaError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_EXECUTION


def run() -> int:
    """Process entry (``python -m dalia.cli`` and the ``dalia`` script).

    Freezes the heap once imports are done and again when ``main`` returns,
    so no collector pass walks the start-up objects and interpreter exit
    skips its full collections; what a serving process allocates later is
    still collected. A ``main`` called in-process leaves GC state alone.
    """
    gc.freeze()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
