"""Pre-planning discovery.

Queries every configured capability server and the directory, then seals the
results into an immutable ExecutionContext. Planning and execution operate
on the sealed context only; any later server change is invisible until a new
discovery round. Discovery is atomic: any unreachable endpoint or protocol
defect raises and no context is produced.
"""

from __future__ import annotations

from typing import Any, Iterable

from .atdp import FeasibilityReport, TaskDeclaration, check_feasibility, parse_task
from .canonical import canonical_bytes, sha256_hex
from .capabilities import Capability, CapabilityId, parse_capability
from .directory import DirectorySnapshot, load_snapshot, snapshot_to_json
from .errors import (
    DuplicateCapabilityId,
    ProtocolError,
    ValidationError,
    WireError,
    _Value,
)
from .wire import Invoker, connect_directory, connect_server


class ExecutionContext(_Value):
    """Sealed, closed-world view produced by one discovery round.

    ``server_routes`` maps each server id to the client discovery queried
    it through (none by default); execution invokes over those same clients.
    """

    def __init__(self, capabilities: dict[CapabilityId, tuple[Capability, str]],
                 tasks: dict[CapabilityId, TaskDeclaration], directory: DirectorySnapshot,
                 provided_inputs: frozenset[str], server_routes: dict[str, Any] | None = None):
        object.__setattr__(self, "capabilities", capabilities)
        object.__setattr__(self, "tasks", tasks)
        object.__setattr__(self, "directory", directory)
        object.__setattr__(self, "provided_inputs", provided_inputs)
        object.__setattr__(self, "server_routes", {} if server_routes is None else server_routes)

    def capability(self, capability_id: CapabilityId) -> Capability:
        return self.capabilities[capability_id][0]

    def provider(self, capability_id: CapabilityId) -> str:
        return self.capabilities[capability_id][1]


def discover(
    server_endpoints: Iterable[Any],
    directory_endpoint: Any,
    provided_inputs: Iterable[str],
) -> ExecutionContext:
    """Query all endpoints and seal an ExecutionContext.

    Endpoints may be strings (``tcp:host:port`` / ``local:<file>``) or
    already-connected client objects. Deterministic given identical server
    responses. If it fails, the clients it connected are closed, and the
    client objects it was handed stay open.
    """
    provided = frozenset(provided_inputs)
    endpoints = list(server_endpoints)

    server_clients = [connect_server(endpoint) for endpoint in endpoints]
    directory_client = connect_directory(directory_endpoint)

    capabilities: dict[CapabilityId, tuple[Capability, str]] = {}
    tasks: dict[CapabilityId, TaskDeclaration] = {}
    task_providers: dict[CapabilityId, str] = {}
    server_routes: dict[str, Any] = {}

    try:  # on failure, close the server connections opened here
        for endpoint, client in zip(endpoints, server_clients):
            try:
                info = client.call("dalia/server_info")
                capability_docs = client.call("dalia/list_capabilities")
                task_docs = client.call("atdp/list_tasks")
            except WireError as exc:
                raise ProtocolError(f"{_endpoint_name(client)}: {exc}") from exc

            if not isinstance(info, dict) or not isinstance(info.get("server_id"), str):
                raise ProtocolError(f"{_endpoint_name(client)}: bad server_info response")
            server_id = info["server_id"]
            if server_id in server_routes:
                raise ProtocolError(f"two endpoints report the same server id {server_id!r}")
            server_routes[server_id] = client

            if not isinstance(capability_docs, list) or not isinstance(task_docs, list):
                raise ProtocolError(f"{server_id}: list responses must be arrays")

            for doc in capability_docs:
                try:
                    cap = parse_capability(doc)
                except ValidationError as exc:
                    raise ProtocolError(f"{server_id}: bad capability document: {exc}") from exc
                if cap.capability_id in capabilities:
                    raise DuplicateCapabilityId(
                        cap.capability_id, capabilities[cap.capability_id][1], server_id
                    )
                capabilities[cap.capability_id] = (cap, server_id)

            for doc in task_docs:
                try:
                    task = parse_task(doc)
                except ValidationError as exc:
                    raise ProtocolError(f"{server_id}: bad task document: {exc}") from exc
                if task.task_id in tasks:
                    raise ProtocolError(
                        f"task {task.task_id} declared by two servers: "
                        f"{task_providers[task.task_id]} and {server_id}"
                    )
                tasks[task.task_id] = task
                task_providers[task.task_id] = server_id

        try:
            snapshot_doc = directory_client.call("directory/snapshot")
        except WireError as exc:
            raise ProtocolError(f"directory: {exc}") from exc
        finally:
            if directory_client is not directory_endpoint:  # connected here, needed no more
                directory_client.close()
        try:
            snapshot = load_snapshot(snapshot_doc)
        except ValidationError as exc:
            raise ProtocolError(f"directory returned a bad snapshot: {exc}") from exc
    except BaseException:
        for endpoint, client in zip(endpoints, server_clients):
            if client is not endpoint:
                client.close()
        raise

    return ExecutionContext(
        capabilities=capabilities,
        tasks=tasks,
        directory=snapshot,
        provided_inputs=provided,
        server_routes=server_routes,
    )


def feasibility(ctx: ExecutionContext) -> dict[CapabilityId, FeasibilityReport]:
    """Each declared task's feasibility over the sealed catalog and inputs."""
    catalog = [cap for cap, _ in ctx.capabilities.values()]
    return {
        task_id: check_feasibility(task, catalog, ctx.provided_inputs)
        for task_id, task in ctx.tasks.items()
    }


def _endpoint_name(client: Any) -> str:
    return getattr(client, "endpoint", "endpoint")


def context_fingerprint(ctx: ExecutionContext) -> str:
    """Digest over the sealed content (capabilities, tasks, directory).

    Excludes routing; equal contexts have equal fingerprints.
    """
    doc = {
        "capabilities": [
            [cid, ctx.capabilities[cid][1], ctx.capabilities[cid][0].to_json()]
            for cid in sorted(ctx.capabilities)
        ],
        "tasks": [ctx.tasks[tid].to_json() for tid in sorted(ctx.tasks)],
        "directory": snapshot_to_json(ctx.directory),
    }
    return sha256_hex(canonical_bytes(doc))


def build_invoker(ctx: ExecutionContext) -> Invoker:
    """Invocation router for a sealed context.

    Routes over the clients discovery connected, so execution reaches
    exactly the servers the context was sealed from, with no new connection
    and no second read of a ``local:`` server file.
    """
    return Invoker(ctx.server_routes)
