"""Hosting a dispatcher: stdio until EOF, or TCP until interrupted.

Only the ``serve`` commands import this module, so ``dalia run`` loads no
serving code. Messages, framing and dispatch are ``dalia.wire``'s.
"""

from __future__ import annotations

import contextlib
import signal
import socket
import socketserver
import sys
import threading

from . import wire
from .canonical import canonical_bytes, strict_loads
from .errors import BindFailure, ProtocolError


def _parse_error(message: str) -> bytes:
    return canonical_bytes(wire._error_response(None, wire.PARSE_ERROR, message))


def serve_stdio(dispatcher: wire._Dispatcher, stdin=None, stdout=None) -> None:
    """Answer newline-delimited requests until EOF. stdout carries protocol only.

    ``stdin`` and ``stdout`` are binary streams, by default the process's
    own: a line that is not UTF-8 gets a parse error, and responses go out
    as UTF-8 whatever the locale. A line longer than ``wire.MAX_FRAME_BYTES``
    (read at every call) gets a parse error; the rest of it is read in
    bounded pieces and discarded.
    """
    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else sys.stdout.buffer
    limit = wire.MAX_FRAME_BYTES
    while line := stdin.readline(limit + 1):
        if len(line) > limit and not line.endswith(b"\n"):
            while line and not line.endswith(b"\n"):
                line = stdin.readline(limit + 1)
            response = _parse_error(f"line exceeds {limit} bytes")
        elif line.strip():
            try:
                obj = strict_loads(line)
            except ValueError as exc:
                response = _parse_error(f"parse error: {exc}")
            else:
                response = dispatcher.answer(obj)
        else:
            continue
        stdout.write(response + b"\n")
        stdout.flush()


class _TcpHandler(socketserver.StreamRequestHandler):
    """Answers frames on one connection until the client closes it.

    After a frame it cannot read, it answers -32700 and closes the
    connection, because the stream is no longer aligned on frames.
    """

    def handle(self) -> None:
        dispatcher = self.server.dispatcher  # type: ignore[attr-defined]
        try:
            while True:
                try:
                    obj = wire.read_block(self.rfile)
                except ProtocolError as exc:
                    self.connection.sendall(wire.frame_body(_parse_error(str(exc))))
                    return
                if obj is None:
                    return
                self.connection.sendall(wire.frame_body(dispatcher.answer(obj)))
        except OSError:
            return  # the client reset the connection, or shutdown() closed it


class _ThreadingTcpServer(socketserver.ThreadingTCPServer):
    """Tracks its open connections so shutdown can close them.

    Handler threads are not daemons, so ``server_close()`` joins them.
    """

    allow_reuse_address = True

    def __init__(self, address, handler):
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut every open connection down, which ends its handler's read."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the handler closed it meanwhile


# How often serve_forever checks for a shutdown() request, which waits for
# the next check: an idle server stops within this many seconds.
SHUTDOWN_POLL_SECONDS = 0.05


class TcpServerHandle:
    """A running TCP wire server; ``shutdown()`` stops it."""

    def __init__(self, dispatcher: wire._Dispatcher, address: str):
        host, port = wire.parse_tcp_address(address)
        try:
            self._server = _ThreadingTcpServer((host, port), _TcpHandler)
        except OSError as exc:
            raise BindFailure(address, str(exc)) from exc
        self._server.dispatcher = dispatcher  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(SHUTDOWN_POLL_SECONDS,), daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def shutdown(self) -> None:
        """Stop accepting, shut down every accepted connection, and wait for
        every handler to finish, so no request is still being applied when
        this returns and a client holding a connection sees it closed."""
        self._server.shutdown()
        self._server.close_connections()
        self._server.server_close()
        self._thread.join(timeout=5)


def serve(dispatcher: wire._Dispatcher, address: str | None, name: str) -> None:
    """Serve on TCP at ``address`` until interrupted, or on stdio until EOF.

    SIGTERM interrupts as SIGINT does, so the caller's clean-up (a
    directory's snapshot save) runs and the process exits 0. Call it from
    the main thread, where Python runs signal handlers.
    """
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        _serve(dispatcher, address, name)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _serve(dispatcher: wire._Dispatcher, address: str | None, name: str) -> None:
    if not address:
        # A reader that closed its end of stdout ends the session, as EOF does.
        with contextlib.suppress(KeyboardInterrupt, BrokenPipeError):
            serve_stdio(dispatcher)
        return
    handle = TcpServerHandle(dispatcher, address)
    print(f"serving {name} on {handle.address}", file=sys.stderr)
    try:
        with contextlib.suppress(KeyboardInterrupt):
            threading.Event().wait()
    finally:
        handle.shutdown()
