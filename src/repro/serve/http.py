"""The stdlib asyncio HTTP front of the serving layer.

Deliberately small: HTTP/1.1 request parsing, routing, JSON responses and
the graceful-shutdown plumbing live here; everything interesting
(admission, coalescing, catalog read-through) is the
:class:`~repro.serve.app.ServeApp` middle tier.  One connection carries one
request (``Connection: close``), which every stdlib and curl client
handles; a hosted deployment that needs keep-alive puts a reverse proxy in
front, as the ROADMAP's armi-style app-over-library split intends.

Routes::

    GET  /healthz      liveness probe
    GET  /stats        cache / admission / catalog counters
    POST /assess       AssessmentSpec JSON document
    POST /temporal     AssessmentSpec JSON document
    POST /uncertainty  {"spec": {...}, "n_samples", "seed", "temporal"}
    POST /portfolio    PortfolioSpec JSON document
    POST /reload       re-import the configured plugin modules

Every response is JSON.  Success responses carry ``X-Repro-Source:
live|catalog`` so clients (and the CI smoke test) can tell a fresh
simulation from a catalog read-through without the payload bytes differing.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Any, Dict, Optional, Tuple

from repro.io.jsonio import json_default

from repro.serve.app import (
    RUN_KINDS,
    Overloaded,
    ServeApp,
    ServeConfig,
    ServeError,
)

#: Caps keeping a misbehaving client from ballooning server memory.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024

#: How long a SIGTERM drain waits for in-flight requests before exiting.
DEFAULT_DRAIN_TIMEOUT_S = 30.0

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _encode_json(payload: Any) -> bytes:
    """The one serialiser every response body goes through.

    ``sort_keys`` + ``json_default`` make a live result and its later
    catalog-served repeat byte-identical — the property the CI smoke test
    pins with ``cmp``.
    """
    return (json.dumps(payload, sort_keys=True, default=json_default)
            .encode("utf-8") + b"\n")


class _HttpError(Exception):
    """A protocol-level problem answered before reaching the app."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ReproServer:
    """One bound asyncio server over one :class:`ServeApp`.

    ::

        app = ServeApp(ServeConfig(port=0))
        server = ReproServer(app)
        await server.start()
        ...
        await server.shutdown()
    """

    def __init__(self, app: ServeApp, *, host: Optional[str] = None,
                 port: Optional[int] = None):
        self._app = app
        self._host = host if host is not None else app.config.host
        self._port = port if port is not None else app.config.port
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()

    @property
    def app(self) -> ServeApp:
        return self._app

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 after :meth:`start`)."""
        if self._server is None:
            return self._port
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        return f"http://{self._host}:{self.port}"

    # -- lifecycle -------------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_client, self._host, self._port)

    async def shutdown(self,
                       drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S) -> bool:
        """Stop accepting, finish open connections, drain the worker pool.

        Returns ``True`` when everything in flight completed within the
        timeout — the SIGTERM path exits 0 either way, but reports a
        dirty drain.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._connections:
            await asyncio.wait(
                {asyncio.ensure_future(task) for task in self._connections},
                timeout=drain_timeout_s)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, self._app.drain, drain_timeout_s)

    # -- per-connection handling -------------------------------------------------------

    async def _on_client(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as exc:
                await self._respond(writer, exc.status, {
                    "error": str(exc), "status": exc.status})
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # client went away mid-request; nothing to answer
            status, payload, headers = await self._route(method, path, body)
            await self._respond(writer, status, payload, headers)
        except ConnectionError:
            pass  # response write raced a client disconnect
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(
            self, reader: asyncio.StreamReader) -> Tuple[str, str, bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "request head too large") from None
        if len(head) > MAX_HEADER_BYTES:
            raise _HttpError(413, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, f"malformed request line: {lines[0]!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(400,
                             f"bad Content-Length: {length_text!r}") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body of {length} bytes exceeds the "
                                  f"{MAX_BODY_BYTES}-byte cap")
        body = await reader.readexactly(length) if length else b""
        return method, path.split("?", 1)[0], body

    # -- routing ---------------------------------------------------------------------

    async def _route(self, method: str, path: str,
                     body: bytes) -> Tuple[int, Any, Dict[str, str]]:
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET"}, {}
            return 200, {"status": "ok"}, {}
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "stats is GET"}, {}
            return 200, self._app.stats(), {}
        if path == "/reload":
            if method != "POST":
                return 405, {"error": "reload is POST"}, {}
            try:
                reloaded = self._app.reload_plugins()
            except ServeError as exc:
                return exc.status, exc.as_dict(), {}
            return 200, {"reloaded": list(reloaded)}, {}
        kind = path.lstrip("/")
        if kind not in RUN_KINDS:
            return 404, {
                "error": f"no endpoint {path!r}; POST one of "
                         f"{', '.join('/' + k for k in RUN_KINDS)} or GET "
                         f"/healthz, /stats", "status": 404}, {}
        if method != "POST":
            return 405, {"error": f"/{kind} takes POST with a JSON body"}, {}
        try:
            doc = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"request body is not valid JSON: {exc}",
                         "status": 400}, {}
        try:
            payload, source = await self._app.submit(kind, doc)
        except Overloaded as exc:
            headers = {"Retry-After": f"{max(1, round(exc.retry_after_s))}"}
            return exc.status, exc.as_dict(), headers
        except ServeError as exc:
            return exc.status, exc.as_dict(), {}
        except Exception as exc:  # noqa: BLE001 - the server must not die
            return 500, {"error": f"{type(exc).__name__}: {exc}",
                         "status": 500}, {}
        return 200, payload, {"X-Repro-Source": source}

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Any,
                       headers: Optional[Dict[str, str]] = None) -> None:
        body = _encode_json(payload)
        head_lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            head_lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()


async def _serve_until_signalled(app: ServeApp, *,
                                 drain_timeout_s: float,
                                 ready=None, banner=None) -> Dict[str, Any]:
    """Run the bound server until SIGTERM/SIGINT, then drain gracefully."""
    server = ReproServer(app)
    await server.start()
    if banner is not None:
        banner(server)
    if ready is not None:
        ready(server)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-POSIX loop; Ctrl-C still raises KeyboardInterrupt
    try:
        await stop.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        clean = await server.shutdown(drain_timeout_s)
    return {"clean_drain": clean, "stats": app.stats()}


def serve_forever(config: Optional[ServeConfig] = None, *,
                  app: Optional[ServeApp] = None,
                  drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
                  banner=None) -> Dict[str, Any]:
    """Blocking entry point: serve until SIGTERM/SIGINT, drain, return.

    Returns ``{"clean_drain": bool, "stats": {...}}`` — the CLI renders
    the final stats table from it and exits 0 on a clean drain.
    """
    if app is None:
        app = ServeApp(config)
    return asyncio.run(_serve_until_signalled(
        app, drain_timeout_s=drain_timeout_s, banner=banner))


__all__ = [
    "DEFAULT_DRAIN_TIMEOUT_S",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "ReproServer",
    "serve_forever",
]
