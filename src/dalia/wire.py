"""JSON-RPC 2.0 wire layer.

Codec and framing, the capability/task server runtime, the directory
service, and the clients the orchestrator uses; ``dalia.serve`` hosts a
server on stdio or TCP.

Framing: newline-delimited JSON objects on stdio; on TCP each message is
length-prefixed HTTP-style (decimal byte count, CRLF CRLF, body). A stdio
line or TCP body is at most MAX_FRAME_BYTES long. Anything that does not
decode as strict JSON gets a -32700 response with id null.

A TCP client keeps one connection per endpoint open across calls. Servers
handle requests sequentially per connection; connections are served
concurrently. Directory writes are serialized by the service.
"""

from __future__ import annotations

import io
import threading
from functools import cached_property
from typing import Any, Callable

from . import directory as directory_ops
from .atdp import TaskDeclaration, parse_task, task_problems
from .canonical import canonical_bytes, sorted_map, strict_loads
from .capabilities import (
    Capability,
    CapabilityId,
    is_checked,
    is_identifier,
    load_document,
    parse_capability,
    parse_capability_id,
    validate_capability,
)
from .directory import DirectorySnapshot, parse_agent_record, snapshot_to_json
from .errors import (
    BindFailure,
    ConfigInvalid,
    EndpointUnreachable,
    InvalidCapabilityId,
    InvalidRecord,
    InvalidServerId,
    MalformedDocument,
    ProtocolError,
    ValidationError,
    WireError,
    _Value,
)

JSONRPC_VERSION = "2.0"

# JSON-RPC reserved codes
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603

# Application codes (-32000..-32099, clear of the reserved range)
UNKNOWN_CAPABILITY = -32001
MISSING_INPUT = -32002
HANDLER_FAULT = -32003
DIR_INVALID_RECORD = -32010
DIR_INVALID_CAPABILITY_ID = -32012
DIR_INVALID_SERVER_ID = -32013

# Methods that constitute discovery; planning and execution must never call
# them (the closed-world contract).
DISCOVERY_CLASS_METHODS = frozenset(
    {
        "dalia/server_info",
        "dalia/list_capabilities",
        "atdp/list_tasks",
        "directory/list_agents",
        "directory/register_agent",
        "directory/remove_agent",
        "directory/bind_server",
        "directory/resolve",
        "directory/snapshot",
    }
)


# -- codec ---------------------------------------------------------------------


_REQUEST_MEMBERS = frozenset({"jsonrpc", "id", "method", "params"})
_RESULT_MEMBERS = frozenset({"jsonrpc", "id", "result"})
_ERROR_MEMBERS = frozenset({"code", "message"})


def make_request(request_id: int, method: str, params: dict) -> dict:
    """A request object; its keys are in the order they go on the wire."""
    return {"jsonrpc": JSONRPC_VERSION, "id": request_id, "method": method, "params": params}


def decode_request(obj: Any) -> tuple[int, str, dict]:
    """Check a request object; returns its ``(id, method, params)``."""
    if not isinstance(obj, dict):
        raise ProtocolError("request must be an object")
    if obj.get("jsonrpc") != JSONRPC_VERSION:
        raise ProtocolError("request is not JSON-RPC 2.0")
    request_id = obj.get("id")
    if type(request_id) is not int:
        raise ProtocolError("request id must be an integer")
    method = obj.get("method")
    if not isinstance(method, str):
        raise ProtocolError("request method must be a string")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("request params must be an object")
    if not obj.keys() <= _REQUEST_MEMBERS:
        raise ProtocolError(f"unexpected request members: {sorted(obj.keys() - _REQUEST_MEMBERS)}")
    return request_id, method, params


def response_result(obj: Any, request_id: int) -> Any:
    """The result of the response ``obj`` to request ``request_id``.

    Raises ProtocolError for a malformed response or a result carrying
    another id, and WireError for a well-formed error response, whatever
    its id.
    """
    if not isinstance(obj, dict):
        raise ProtocolError("response must be an object")
    if obj.get("jsonrpc") != JSONRPC_VERSION:
        raise ProtocolError("response is not JSON-RPC 2.0")
    response_id = obj.get("id")
    if response_id is not None and type(response_id) is not int:
        raise ProtocolError("response id must be an integer or null")
    has_result = "result" in obj
    has_error = "error" in obj
    if has_result == has_error:
        raise ProtocolError("response must carry exactly one of result/error")
    if has_error:
        error = obj["error"]
        if (
            not isinstance(error, dict)
            or type(error.get("code")) is not int
            or not isinstance(error.get("message"), str)
            or error.keys() != _ERROR_MEMBERS
        ):
            raise ProtocolError("error member must be {code: int, message: str}")
        raise WireError(error["code"], error["message"])
    if not obj.keys() <= _RESULT_MEMBERS:
        raise ProtocolError(f"unexpected response members: {sorted(obj.keys() - _RESULT_MEMBERS)}")
    if response_id != request_id:
        raise ProtocolError(
            f"response id {response_id!r} does not match request id {request_id}"
        )
    return obj["result"]


# -- framing --------------------------------------------------------------------


# Largest TCP frame body or stdio line either side reads. A longer declared
# TCP length is refused before any of the body is read.
MAX_FRAME_BYTES = 16 * 1024 * 1024


def frame_block(obj: dict) -> bytes:
    """Length-prefixed message (TCP transport): decimal byte count, CRLF CRLF, body."""
    return frame_body(canonical_bytes(obj))


def frame_body(body: bytes) -> bytes:
    """``frame_block`` of a message already encoded as ``body``."""
    return b"%d\r\n\r\n%s" % (len(body), body)


def read_block(reader: io.BufferedIOBase) -> dict | None:
    """Read one length-prefixed message; None on clean EOF.

    The length must be unsigned ASCII decimal and at most MAX_FRAME_BYTES;
    any other header, a short body or a body that is not strict JSON raises
    ProtocolError.

    The header is read a line at a time, never past 33 bytes: it can only
    end at a newline, so no read takes a byte of the body.
    """
    header = b""
    while not header.endswith(b"\r\n\r\n"):
        line = reader.readline(33 - len(header))
        if not line:
            if header:
                raise ProtocolError("connection closed mid-frame")
            return None
        header += line
        if len(header) > 32:
            raise ProtocolError("oversized frame header")
    digits = header[:-4]
    if not digits.isdigit():  # bytes.isdigit accepts ASCII 0-9 only
        raise ProtocolError(f"bad frame length: {digits!r}")
    length = int(digits)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES} bytes")
    body = reader.read(length)
    if body is None or len(body) != length:
        raise ProtocolError("connection closed mid-frame")
    try:
        return strict_loads(body)
    except ValueError as exc:
        raise ProtocolError(f"frame body is not strict JSON: {exc}") from exc


# -- server configuration --------------------------------------------------------


class HandlerSpec(_Value):
    """Scripted behavior for one capability.

    ``script`` holds output maps replayed in invocation order (the last
    entry repeats once exhausted); ``fail_on`` holds 1-based invocation
    indices that fault instead.
    """

    def __init__(self, script: tuple[dict, ...] = (), fail_on: tuple[int, ...] = ()):
        object.__setattr__(self, "script", script)
        object.__setattr__(self, "fail_on", fail_on)


class ServerConfig(_Value):
    """A capability server's declarations and scripted handlers (none by default)."""

    def __init__(self, server_id: str, capabilities: tuple[Capability, ...],
                 tasks: tuple[TaskDeclaration, ...],
                 handlers: dict[CapabilityId, HandlerSpec] | None = None):
        object.__setattr__(self, "server_id", server_id)
        object.__setattr__(self, "capabilities", capabilities)
        object.__setattr__(self, "tasks", tasks)
        object.__setattr__(self, "handlers", {} if handlers is None else handlers)

    @cached_property
    def problems(self) -> list[str]:
        """Semantic defects, each once in first-seen order; empty when
        startable. Computed once per config; read-only. A capability or task
        that no parser built is checked by its parser, on its ``to_json()``."""
        problems: list[str] = []
        if not isinstance(self.server_id, str):
            problems.append("server_id must be a string")
        elif not is_identifier(self.server_id):
            problems.append(f"server_id is not a lowercase identifier: {self.server_id!r}")
        ids = [  # an id that is not a CapabilityId is refused with its capability below
            cap.capability_id for cap in self.capabilities if isinstance(cap.capability_id, CapabilityId)
        ]
        declared = set(ids)
        if len(declared) != len(ids):
            problems.append("duplicate capability ids declared by this server")
        for cap in self.capabilities:
            if not is_checked(cap):
                report = validate_capability(cap)
                problems += [f"capability {cap.capability_id}: {v}" for v in report.violations]
        for task in self.tasks:
            if not is_checked(task):
                problems += [f"task {task.task_id}: {v}" for v in task_problems(task)]
            for cid in task.capabilities if type(task.capabilities) in (tuple, list) else ():
                if isinstance(cid, CapabilityId) and cid not in declared:
                    problems.append(f"task {task.task_id} references undeclared capability {cid}")
        for cid, spec in self.handlers.items():
            if cid not in declared:
                problems.append(f"handler for undeclared capability {cid}")
            if any(not isinstance(entry, dict) for entry in spec.script):
                problems.append(f"handler script for {cid} must be a list of output maps")
            if any(type(k) is not int or k < 1 for k in spec.fail_on):
                problems.append(f"handler fail_on for {cid} must be positive integers")
        return list(dict.fromkeys(problems))


def parse_server_config(document: Any) -> ServerConfig:
    """Parse and validate a server configuration; raises ConfigInvalid."""
    try:
        data = load_document(document, "server config")
    except MalformedDocument as exc:
        raise ConfigInvalid(exc.violations) from exc

    problems: list[str] = []
    unknown = set(data) - {"server_id", "capabilities", "tasks", "handlers"}
    if unknown:
        problems.append(f"unexpected config fields: {sorted(unknown)}")

    parsed: dict[str, list] = {"capabilities": [], "tasks": []}
    for name, parse in (("capabilities", parse_capability), ("tasks", parse_task)):
        docs = data.get(name, [])
        if not isinstance(docs, list):
            problems.append(f"{name} must be a list")
            docs = []
        for index, doc in enumerate(docs):
            try:
                parsed[name].append(parse(doc))
            except ValidationError as exc:
                problems += [f"{name}[{index}]: {v}" for v in exc.violations]

    handlers: dict[CapabilityId, HandlerSpec] = {}
    raw_handlers = data.get("handlers", {})
    if not isinstance(raw_handlers, dict):
        problems.append("handlers must be an object")
        raw_handlers = {}
    for key, spec in raw_handlers.items():
        cid, id_problems = parse_capability_id(key, label="handler key")
        if id_problems:
            problems += id_problems
            continue
        if not isinstance(spec, dict) or not set(spec) <= {"script", "fail_on"}:
            problems.append(f"handler for {key} must be {{script?, fail_on?}}")
            continue
        script = spec.get("script", [])
        fail_on = spec.get("fail_on", [])
        if not isinstance(script, list):
            problems.append(f"handler script for {key} must be a list of output maps")
            script = []
        if not isinstance(fail_on, list):
            problems.append(f"handler fail_on for {key} must be a list of integers")
            fail_on = []
        handlers[cid] = HandlerSpec(script=tuple(script), fail_on=tuple(fail_on))

    config = ServerConfig(
        server_id=data.get("server_id"),
        capabilities=tuple(parsed["capabilities"]),
        tasks=tuple(parsed["tasks"]),
        handlers=handlers,
    )
    problems += config.problems
    if problems:
        raise ConfigInvalid(list(dict.fromkeys(problems)))
    return config


# -- dispatch ------------------------------------------------------------------


def _error_response(request_id: int | None, code: int, message: str) -> dict:
    error = {"code": code, "message": message}
    return {"jsonrpc": JSONRPC_VERSION, "id": request_id, "error": error}


class _Dispatcher:
    """Shared request plumbing: decode, route, map errors to codes."""

    #: method name -> handler(params) -> result
    _methods: dict[str, Callable[[dict], Any]]

    _ERROR_CODES = (
        (InvalidRecord, DIR_INVALID_RECORD),
        (InvalidCapabilityId, DIR_INVALID_CAPABILITY_ID),
        (InvalidServerId, DIR_INVALID_SERVER_ID),
    )

    #: methods whose result reads no params and changes only with the state;
    #: a tuple, so that a method that is any JSON value can be looked up
    _ENCODED_ONCE: tuple[str, ...] = ()

    def handle(self, obj: Any) -> dict:
        """Process one decoded request object into a response object."""
        try:
            request_id, method, params = decode_request(obj)
        except ProtocolError as exc:
            request_id = obj.get("id") if isinstance(obj, dict) else None
            if type(request_id) is not int:
                request_id = None
            return _error_response(request_id, INVALID_REQUEST, str(exc))
        handler = self._methods.get(method)
        if handler is None:
            return _error_response(request_id, METHOD_NOT_FOUND, f"unknown method {method!r}")
        try:
            result = handler(params)
        except WireError as exc:
            return _error_response(request_id, exc.code, exc.message)
        except Exception as exc:  # defensive: never leak a traceback on the wire
            for error_type, code in self._ERROR_CODES:
                if isinstance(exc, error_type):
                    return _error_response(request_id, code, str(exc))
            return _error_response(request_id, INTERNAL_ERROR, str(exc))
        return {"jsonrpc": JSONRPC_VERSION, "id": request_id, "result": result}

    def answer(self, obj: Any) -> bytes:
        """``canonical_bytes(self.handle(obj))``; an ``_ENCODED_ONCE`` result
        is encoded once per state and spliced in after the ``int`` id."""
        if isinstance(obj, dict) and obj.get("method") in self._ENCODED_ONCE:
            try:
                request_id, method, _ = decode_request(obj)
            except ProtocolError:
                pass
            else:
                result = self._encoded_result(method)
                return b'{"jsonrpc":"2.0","id":%d,"result":%s}' % (request_id, result)
        return canonical_bytes(self.handle(obj))


class WireServer(_Dispatcher):
    """Serves one server configuration: capability, task, and invoke methods.

    Startup validates the configuration and refuses to serve a broken one.
    """

    def __init__(self, config: ServerConfig):
        if config.problems:
            raise ConfigInvalid(config.problems)
        self.config = config
        self._lock = threading.Lock()
        self._invocations: dict[CapabilityId, int] = {}
        self._capabilities = {cap.capability_id.render(): cap for cap in config.capabilities}
        self._encoded: dict[str, bytes] = {}
        self._methods = {
            "dalia/server_info": self._server_info,
            "dalia/list_capabilities": self._list_capabilities,
            "atdp/list_tasks": self._list_tasks,
            "dalia/invoke": self._invoke,
        }

    _ENCODED_ONCE = ("dalia/server_info", "dalia/list_capabilities", "atdp/list_tasks")

    def _encoded_result(self, method: str) -> bytes:
        """Encoded on first request: the configuration never changes."""
        if method not in self._encoded:
            self._encoded[method] = canonical_bytes(self._methods[method]({}))
        return self._encoded[method]

    def _server_info(self, params: dict) -> dict:
        return {"server_id": self.config.server_id}

    def _list_capabilities(self, params: dict) -> list[dict]:
        return [cap.to_json() for cap in self.config.capabilities]

    def _list_tasks(self, params: dict) -> list[dict]:
        return [task.to_json() for task in self.config.tasks]

    def _invoke(self, params: dict) -> dict:
        raw_id = params.get("capability_id")
        cap = self._capabilities.get(raw_id) if isinstance(raw_id, str) else None
        if cap is None:  # the message shows an id that is not capability-id text as a repr
            shown = raw_id if not parse_capability_id(raw_id)[1] else repr(raw_id)
            raise WireError(UNKNOWN_CAPABILITY, f"unknown capability: {shown}")
        cid = cap.capability_id
        inputs = params.get("inputs", {})
        if not isinstance(inputs, dict):
            raise WireError(INVALID_PARAMS, "inputs must be an object")
        for slot in cap.inputs:
            if slot not in inputs:
                raise WireError(MISSING_INPUT, f"missing input slot: {slot}")
        with self._lock:
            self._invocations[cid] = self._invocations.get(cid, 0) + 1
            count = self._invocations[cid]
        spec = self.config.handlers.get(cid)
        if spec is not None and count in spec.fail_on:
            raise WireError(
                HANDLER_FAULT, f"scripted fault on invocation {count} of {cid}"
            )
        if spec is not None and spec.script:
            return dict(spec.script[min(count - 1, len(spec.script) - 1)])
        return {slot: f"{slot} produced by {cid}" for slot in cap.outputs}


class DirectoryService(_Dispatcher):
    """Serves directory methods over the current snapshot; writes serialized.

    Startup refuses a snapshot that ``load_snapshot`` would refuse.
    """

    def __init__(self, snapshot: DirectorySnapshot | None = None):
        self._snapshot = snapshot if snapshot is not None else directory_ops.empty_snapshot()
        if not is_checked(self._snapshot):
            problems = directory_ops.snapshot_problems(self._snapshot)
            if problems:
                raise ConfigInvalid(problems)
        self._lock = threading.Lock()
        self._methods = {
            "directory/list_agents": self._list_agents,
            "directory/register_agent": self._register_agent,
            "directory/remove_agent": self._remove_agent,
            "directory/bind_server": self._bind_server,
            "directory/resolve": self._resolve,
            "directory/snapshot": self._snapshot_doc,
        }

    @property
    def snapshot(self) -> DirectorySnapshot:
        return self._snapshot

    _ENCODED_ONCE = ("directory/snapshot",)

    def _encoded_result(self, method: str) -> bytes:  # once per snapshot value
        return directory_ops.save_snapshot(self._snapshot)

    def _list_agents(self, params: dict) -> list[dict]:
        snapshot = self._snapshot
        return [snapshot.agents[aid].to_json() for aid in sorted(snapshot.agents)]

    def _register_agent(self, params: dict) -> dict:
        record = parse_agent_record(params.get("record"))
        with self._lock:
            self._snapshot = directory_ops.register_agent(self._snapshot, record)
        return {"agent_id": record.agent_id}

    def _remove_agent(self, params: dict) -> dict:
        agent_id = params.get("agent_id")
        if not isinstance(agent_id, str):
            raise WireError(INVALID_PARAMS, "agent_id must be a string")
        with self._lock:
            self._snapshot = directory_ops.remove_agent(self._snapshot, agent_id)
        return {"agent_id": agent_id}

    def _bind_server(self, params: dict) -> dict:
        server_id = params.get("server_id")
        capability_ids = params.get("capability_ids")
        if not isinstance(server_id, str):
            raise InvalidServerId(server_id)
        if not isinstance(capability_ids, list):
            raise WireError(INVALID_PARAMS, "capability_ids must be a list")
        with self._lock:
            self._snapshot = directory_ops.bind_server_capabilities(
                self._snapshot, server_id, capability_ids
            )
        return {"server_id": server_id, "capability_ids": list(capability_ids)}

    def _resolve(self, params: dict) -> list[str]:
        cid, problems = parse_capability_id(params.get("capability_id"))
        if problems:
            raise InvalidCapabilityId("; ".join(problems))
        return directory_ops.resolve_capability(self._snapshot, cid)

    def _snapshot_doc(self, params: dict) -> dict:
        return snapshot_to_json(self._snapshot)


# -- clients ---------------------------------------------------------------------


def parse_tcp_address(address: str) -> tuple[str, int]:
    host, _, port_text = address.rpartition(":")
    if not host or not port_text.isascii() or not port_text.isdigit():
        raise BindFailure(address, "expected host:port")
    port = port_text.lstrip("0") or "0"
    if len(port) > 5 or int(port) > 65535:  # the length test keeps int() off huge strings
        raise BindFailure(address, "port must be 0-65535")
    return host, int(port)


# Seconds a TCP client waits to connect and then for each send or read; a
# silent endpoint is unreachable after that. Read at every connect.
CLIENT_TIMEOUT_SECONDS = 10.0


class LocalClient:
    """In-process client over any dispatcher; useful for tests and local runs."""

    def __init__(self, dispatcher: _Dispatcher, endpoint: str = "local"):
        self._dispatcher = dispatcher
        self.endpoint = endpoint
        self._next_id = 0
        self._lock = threading.Lock()

    def call(self, method: str, params: dict | None = None) -> Any:
        with self._lock:
            self._next_id += 1
            request_id = self._next_id
        response = self._dispatcher.handle(make_request(request_id, method, params or {}))
        return response_result(response, request_id)

    def close(self) -> None:
        """Nothing to release; every client can be closed."""


class TcpClient:
    """Client for a ``host:port`` endpoint over one persistent connection.

    The connection opens on the first call and carries every later one;
    calls are serialized by a lock held for the whole round trip. A call
    whose reused connection fails on send, or ends or resets before the
    first response byte (the server closed it while idle), is sent once
    more on a fresh connection, which is never retried. An error response
    leaves the connection open, as its frame was read whole; a failed send
    or read, or a frame or response that fails its checks, drops it, and
    the next call opens a new one. ``close()`` releases it.
    """

    def __init__(self, address: str):
        self.endpoint = address
        self._address = parse_tcp_address(address)
        self._next_id = 0
        self._lock = threading.Lock()
        self._sock = None
        self._reader: io.BufferedReader | None = None

    def call(self, method: str, params: dict | None = None) -> Any:
        with self._lock:
            self._next_id += 1
            request_id = self._next_id
            try:
                frame = frame_block(make_request(request_id, method, params or {}))
            except (TypeError, ValueError) as exc:  # nothing is sent; the connection stays
                raise ProtocolError(f"{self.endpoint}: cannot encode the request: {exc}") from exc
            try:
                return response_result(self._round_trip(frame), request_id)
            except WireError:
                raise
            except OSError as exc:
                self._drop()
                raise EndpointUnreachable(self.endpoint, str(exc)) from exc
            except BaseException:
                self._drop()
                raise

    def close(self) -> None:
        """Close the connection; a later call opens a new one."""
        with self._lock:
            self._drop()

    def _connect(self) -> None:
        import socket  # here, so that a run over local: endpoints never loads it

        self._drop()
        self._sock = socket.create_connection(self._address, timeout=CLIENT_TIMEOUT_SECONDS)
        self._reader = self._sock.makefile("rb")

    def _drop(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def _round_trip(self, frame: bytes) -> dict:
        """Send ``frame`` and read the response frame; on a fresh connection
        if none is open, or the open one fails before the first response byte."""
        if self._sock is not None:
            try:
                self._sock.sendall(frame)
                started = self._reader.peek(1)
            except ConnectionError:
                started = b""  # the server closed the connection while idle
            if started:
                return read_block(self._reader)
        self._connect()
        self._sock.sendall(frame)
        obj = read_block(self._reader)
        if obj is None:
            raise ProtocolError(f"{self.endpoint}: connection closed without a response")
        return obj


def connect_server(endpoint: Any):
    """Resolve a capability-server endpoint to a client.

    ``local:`` endpoints name a server configuration file served in-process.
    """
    return _connect(endpoint, lambda data: WireServer(parse_server_config(data)))


def connect_directory(endpoint: Any):
    """Resolve a directory endpoint to a client.

    ``local:`` endpoints name a persisted snapshot file served in-process.
    """
    return _connect(endpoint, lambda data: DirectoryService(directory_ops.load_snapshot(data)))


def _connect(endpoint: Any, serve_file: Callable[[bytes], _Dispatcher]):
    """Accepts ``tcp:host:port``, ``local:<path>`` (the file's bytes are
    handed to ``serve_file``, whose dispatcher is served in-process), or an
    already-built client object, returned as is."""
    if hasattr(endpoint, "call"):
        return endpoint
    if not isinstance(endpoint, str):
        raise EndpointUnreachable(repr(endpoint), "not an endpoint")
    if endpoint.startswith("tcp:"):
        return TcpClient(endpoint[len("tcp:"):])
    if endpoint.startswith("local:"):
        try:
            with open(endpoint[len("local:"):], "rb") as handle:
                dispatcher = serve_file(handle.read())
        except (OSError, ConfigInvalid, MalformedDocument) as exc:
            raise EndpointUnreachable(endpoint, str(exc)) from exc
        return LocalClient(dispatcher, endpoint=endpoint)
    raise EndpointUnreachable(endpoint, "unknown endpoint scheme")


class Invoker:
    """Routes capability invocations to the client serving each server id.

    This is the only wire surface planning and execution may touch.
    """

    def __init__(self, clients_by_server: dict[str, Any]):
        self._clients = dict(clients_by_server)

    def invoke(self, server_id: str, capability_id: CapabilityId, inputs: dict) -> dict:
        client = self._clients.get(server_id)
        if client is None:
            raise WireError(UNKNOWN_CAPABILITY, f"no route to server {server_id!r}")
        result = client.call(
            "dalia/invoke",
            {
                "capability_id": capability_id.render(),
                "inputs": sorted_map(inputs),
            },
        )
        if not isinstance(result, dict):
            raise ProtocolError("invoke result must be an object of output slots")
        return result
