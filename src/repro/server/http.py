"""Dependency-free asyncio HTTP/1.1 server for the ASGI application.

The estimation service's app (:mod:`repro.server.app`) is a standard ASGI 3
callable, so any ASGI server can host it.  This module provides the one the
repository ships with — a small :mod:`asyncio` ``start_server``-based
HTTP/1.1 implementation — so ``repro serve`` works with nothing beyond the
standard library.  It supports exactly what the service needs:

* request parsing with ``Content-Length`` bodies (plus ``Expect:
  100-continue`` for curl-friendly large POSTs); a malformed length is a
  400 and a ``Transfer-Encoding`` request body a 411, both closing the
  connection so its remaining bytes are never parsed as a request,
* a read deadline: a client that sends a request head or body slower than
  :data:`READ_TIMEOUT_S` (or idles that long between keep-alive requests)
  has its connection closed, so a stalled client cannot hold one forever,
* fixed-length responses with keep-alive, and
* ``Transfer-Encoding: chunked`` streaming for endpoints that send bodies
  incrementally (the NDJSON job event stream).

Two entry points:

* :func:`run_app` — blocking foreground serve with SIGINT/SIGTERM handlers
  that close the session pool cleanly.  Used by ``repro serve``.
* :class:`ServerThread` — context manager running the loop on a background
  thread.  Used by tests and benchmarks to exercise the real socket path
  in-process.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
from typing import Callable, Optional, Tuple

from ..obs.log import get_logger

_log = get_logger("server.http")

#: request-line + headers larger than this are rejected outright.
MAX_HEADER_BYTES = 64 * 1024

#: request bodies larger than this are rejected with 413.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: seconds allowed for reading one request head, and again for its body;
#: on expiry the connection is closed without a response.
READ_TIMEOUT_S = 30.0

_STATUS_PHRASES = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 411: "Length Required",
    413: "Payload Too Large", 500: "Internal Server Error",
    503: "Service Unavailable",
}


def _phrase(status: int) -> str:
    return _STATUS_PHRASES.get(status, "Unknown")


class _Connection:
    """One client connection: parse requests, bridge each to the ASGI app."""

    def __init__(self, app, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.app = app
        self.reader = reader
        self.writer = writer

    async def serve(self) -> None:
        try:
            while await self._one_request():
                pass
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass  # client went away mid-request; nothing to answer
        finally:
            with contextlib.suppress(ConnectionError):
                self.writer.close()
                await self.writer.wait_closed()

    async def _one_request(self) -> bool:
        """Serve one request; True when the connection should be kept alive."""
        head = await self._read_head()
        if head is None:
            return False
        request_line, headers = head
        try:
            method, target, version = request_line.split(" ", 2)
        except ValueError:
            await self._send_plain(400, "malformed request line")
            return False
        path, _, query = target.partition("?")
        body, ok = await self._read_body(headers)
        if not ok:
            return False
        keep_alive = (version.strip() != "HTTP/1.0"
                      and headers.get("connection", "").lower() != "close")
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": "1.1",
            "method": method.upper(),
            "path": path,
            "raw_path": target.encode("latin-1"),
            "query_string": query.encode("latin-1"),
            "headers": [(name.encode("latin-1"), value.encode("latin-1"))
                        for name, value in headers.items()],
            "server": self.writer.get_extra_info("sockname"),
            "client": self.writer.get_extra_info("peername"),
        }
        responder = _Responder(self.writer, keep_alive,
                               head_only=scope["method"] == "HEAD")
        try:
            await self.app(scope, _receiver(body), responder.send)
        except Exception:
            # the app catches its own errors; this guards the bridge itself.
            _log.exception("unhandled error while serving %s %s",
                           scope["method"], path)
            if not responder.started:
                await self._send_plain(500, "internal server error")
            return False
        await responder.finalize()
        return keep_alive and responder.completed

    async def _read_head(self) -> Optional[Tuple[str, "dict[str, str]"]]:
        try:
            async with asyncio.timeout(READ_TIMEOUT_S):
                raw = await self.reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, TimeoutError):
            return None  # clean EOF between requests, or a stalled client
        except asyncio.LimitOverrunError:
            await self._send_plain(400, "headers too large")
            return None
        if len(raw) > MAX_HEADER_BYTES:
            await self._send_plain(400, "headers too large")
            return None
        lines = raw.decode("latin-1").split("\r\n")
        headers: "dict[str, str]" = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return lines[0], headers

    async def _read_body(self, headers: "dict[str, str]") -> Tuple[bytes, bool]:
        if "transfer-encoding" in headers:
            # only Content-Length framing is read; guessing at any other
            # framing would desync the request stream.
            await self._send_plain(411, "request bodies need content-length")
            return b"", False
        length_text = headers.get("content-length", "0")
        # 1*DIGIT only: int() would also take "-5", "+5" and "1_0".
        if not (length_text.isascii() and length_text.isdigit()):
            await self._send_plain(400, "bad content-length")
            return b"", False
        length = int(length_text)
        if length > MAX_BODY_BYTES:
            await self._send_plain(413, "request body too large")
            return b"", False
        if "100-continue" in headers.get("expect", "").lower():
            self.writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await self.writer.drain()
        if length == 0:
            return b"", True
        try:
            async with asyncio.timeout(READ_TIMEOUT_S):
                return await self.reader.readexactly(length), True
        except (asyncio.IncompleteReadError, TimeoutError):
            return b"", False

    async def _send_plain(self, status: int, message: str) -> None:
        body = (message + "\n").encode("utf-8")
        self.writer.write(
            f"HTTP/1.1 {status} {_phrase(status)}\r\n"
            f"content-type: text/plain\r\n"
            f"content-length: {len(body)}\r\n"
            f"connection: close\r\n\r\n".encode("latin-1") + body)
        await self.writer.drain()


def _receiver(body: bytes):
    """An ASGI ``receive`` yielding the buffered body, then disconnect."""
    messages = [{"type": "http.request", "body": body, "more_body": False}]

    async def receive():
        if messages:
            return messages.pop(0)
        return {"type": "http.disconnect"}

    return receive


class _Responder:
    """ASGI ``send`` callable writing HTTP/1.1 to the stream writer.

    Responses with a ``content-length`` header are written as-is; without
    one the body is streamed with chunked transfer-encoding (how the NDJSON
    event stream stays open while a job runs).  A ``HEAD`` answer
    (``head_only``) is the ``GET`` answer's header block alone (RFC 9112 6.3).
    """

    def __init__(self, writer: asyncio.StreamWriter, keep_alive: bool,
                 head_only: bool) -> None:
        self.writer = writer
        self.keep_alive = keep_alive
        self.head_only = head_only
        self.started = False
        self.completed = False
        self.chunked = False

    async def send(self, message) -> None:
        if message["type"] == "http.response.start":
            headers = [(name.decode("latin-1"), value.decode("latin-1"))
                       for name, value in message.get("headers", [])]
            has_length = any(name.lower() == "content-length"
                             for name, _ in headers)
            self.chunked = not has_length
            if self.chunked:
                headers.append(("transfer-encoding", "chunked"))
            headers.append(("connection",
                            "keep-alive" if self.keep_alive else "close"))
            status = message["status"]
            head = [f"HTTP/1.1 {status} {_phrase(status)}"]
            head.extend(f"{name}: {value}" for name, value in headers)
            self.writer.write(("\r\n".join(head) + "\r\n\r\n")
                              .encode("latin-1"))
            self.started = True
            await self.writer.drain()
            return
        if message["type"] == "http.response.body":
            body = message.get("body", b"")
            if self.head_only:
                self.completed = not message.get("more_body", False)
                return
            if self.chunked:
                if body:
                    self.writer.write(f"{len(body):x}\r\n".encode("latin-1")
                                      + body + b"\r\n")
                if not message.get("more_body", False):
                    self.writer.write(b"0\r\n\r\n")
                    self.completed = True
            else:
                self.writer.write(body)
                if not message.get("more_body", False):
                    self.completed = True
            await self.writer.drain()

    async def finalize(self) -> None:
        if self.started and not self.completed and self.chunked:
            self.completed = True
            if not self.head_only:
                self.writer.write(b"0\r\n\r\n")
                await self.writer.drain()


async def _serve(app, host: str, port: int,
                 ready: Optional[Callable[[str, int], None]],
                 stop: asyncio.Event) -> None:
    async def handle(reader, writer):
        await _Connection(app, reader, writer).serve()

    server = await asyncio.start_server(handle, host, port,
                                        limit=MAX_HEADER_BYTES)
    bound = server.sockets[0].getsockname()
    if ready is not None:
        ready(bound[0], bound[1])
    # drive the app's lifespan protocol around the serving window so the
    # session pool is closed exactly once on shutdown.
    lifespan = _Lifespan(app)
    await lifespan.startup()
    try:
        async with server:
            await stop.wait()
    finally:
        await lifespan.shutdown()


class _Lifespan:
    """Minimal driver for the ASGI lifespan protocol."""

    def __init__(self, app) -> None:
        self.app = app
        self._to_app: "asyncio.Queue[dict]" = asyncio.Queue()
        self._complete = asyncio.Event()
        self._task: Optional[asyncio.Task] = None

    async def startup(self) -> None:
        async def receive():
            return await self._to_app.get()

        async def send(message):
            self._complete.set()

        self._task = asyncio.get_running_loop().create_task(
            self.app({"type": "lifespan", "asgi": {"version": "3.0"}},
                     receive, send))
        await self._to_app.put({"type": "lifespan.startup"})
        await self._complete.wait()

    async def shutdown(self) -> None:
        if self._task is None:
            return
        self._complete.clear()
        await self._to_app.put({"type": "lifespan.shutdown"})
        await self._complete.wait()
        await self._task


def run_app(app, host: str = "127.0.0.1", port: int = 8421) -> int:
    """Serve ``app`` in the foreground until SIGINT/SIGTERM; returns 0.

    Prints a parseable ``listening on http://host:port`` line once the
    socket is bound, then blocks.  On signal, stops accepting, drives the
    app's lifespan shutdown (closing the session's worker pool) and returns.
    """
    async def main() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)

        def ready(bound_host: str, bound_port: int) -> None:
            # the parseable readiness line stays on stdout for scripts;
            # diagnostics go through the logger (stderr, REPRO_LOG level).
            print(f"listening on http://{bound_host}:{bound_port}",
                  flush=True)
            _log.info("serving on http://%s:%s", bound_host, bound_port)

        await _serve(app, host, port, ready, stop)
        _log.info("shutdown complete")

    asyncio.run(main())
    return 0


class ServerThread:
    """Run the server on a background thread; for tests and benchmarks.

    ::

        with ServerThread(create_app(session)) as server:
            conn = http.client.HTTPConnection(server.host, server.port)
            ...

    Binding to port 0 picks a free port; :attr:`host`/:attr:`port` report
    the bound address once ``__enter__`` returns.
    """

    def __init__(self, app, host: str = "127.0.0.1", port: int = 0) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-server")
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("server thread failed to start in time")
        if self._error is not None:
            raise RuntimeError("server thread failed") from self._error
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        async def main() -> None:
            self._stop = asyncio.Event()
            self._loop = asyncio.get_running_loop()

            def ready(host: str, port: int) -> None:
                self.host, self.port = host, port
                self._ready.set()

            await _serve(self.app, self.host, self.port, ready, self._stop)

        try:
            asyncio.run(main())
        except BaseException as exc:  # surface bind errors to __enter__
            self._error = exc
            self._ready.set()

    def stop(self) -> None:
        """Stop serving and join the thread (idempotent)."""
        if self._loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
