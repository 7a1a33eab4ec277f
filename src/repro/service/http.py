"""Pure-asyncio HTTP/1.1 front end for the MCB job service.

Stdlib only: a tiny HTTP server on :func:`asyncio.start_server` — no
``aiohttp``/``uvloop`` hard dependency (either can be layered on as an
optional extra later; the routing surface is four methods on
:class:`ServiceApp`).  One request per connection (``Connection:
close``), bounded header and body sizes, JSON in/out.

Routes::

    POST /jobs        admit a job spec           -> 202 | 400 | 429 | 503
    GET  /jobs        list retained jobs         -> 200
    GET  /jobs/{id}   status + RunStats + bounds -> 200 | 404
    GET  /metrics     Prometheus exposition      -> 200
    GET  /healthz     liveness + queue snapshot  -> 200
    POST /shutdown    graceful drain (opt-in)    -> 202 | 403

The 429 response carries ``Retry-After`` — the backpressure contract:
clients back off, the queue never grows past its bound.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Optional, Tuple

from ..mcb.errors import ConfigurationError
from .app import QueueFullError, ServiceApp, ServiceClosedError
from .jobs import JobSpec

MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024
#: Seconds a client gets to send its whole request (head and body); a
#: connection still incomplete after that is closed unanswered.
READ_TIMEOUT_S = 30.0

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """Internal: short-circuit a request with a status + message."""

    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _response(
    code: int,
    body: bytes,
    content_type: str,
    extra_headers: Optional[dict[str, str]] = None,
) -> bytes:
    lines = [
        f"HTTP/1.1 {code} {_STATUS_TEXT.get(code, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def _json_response(
    code: int, payload: Any, extra_headers: Optional[dict[str, str]] = None
) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return _response(code, body, "application/json", extra_headers)


class ServiceServer:
    """Bind a :class:`ServiceApp` to a TCP port.

    ``port=0`` picks a free port (see :attr:`port` after
    :meth:`start`) — what the tests and the smoke script use.
    ``allow_shutdown`` enables ``POST /shutdown`` for remote drains
    (off by default; local signal-driven shutdown is the normal path).
    """

    def __init__(
        self,
        app: ServiceApp,
        *,
        host: str = "127.0.0.1",
        port: int = 8577,
        allow_shutdown: bool = False,
        drain_deadline: Optional[float] = 30.0,
    ):
        self.app = app
        self.host = host
        self._requested_port = port
        self.allow_shutdown = allow_shutdown
        self.drain_deadline = drain_deadline
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown_requested = asyncio.Event()
        self._m_read_timeouts = app.registry.counter(
            "service_http_read_timeouts_total",
            "connections closed because the request did not arrive in time",
        )

    @property
    def port(self) -> int:
        """The actually bound port (resolves ``port=0``)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Start the app's workers and begin accepting connections."""
        await self.app.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port
        )

    async def stop(self, drain_deadline: Optional[float] = None) -> None:
        """Stop accepting, then drain the app with the given deadline."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.app.shutdown(
            drain_deadline if drain_deadline is not None
            else self.drain_deadline
        )

    async def serve_until_shutdown(self) -> None:
        """Block until ``POST /shutdown`` (or :meth:`request_shutdown`)."""
        await self._shutdown_requested.wait()
        await self.stop()

    def request_shutdown(self) -> None:
        """Signal :meth:`serve_until_shutdown` to drain and exit."""
        self._shutdown_requested.set()

    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        start = time.perf_counter()
        endpoint = "unparsed"
        code = 500
        timed_out = False

        def drop_stalled() -> None:
            nonlocal timed_out
            timed_out = True
            writer.transport.abort()  # ends the pending read

        # One timer per connection bounds the whole read (head and body).
        timer = asyncio.get_running_loop().call_later(
            READ_TIMEOUT_S, drop_stalled
        )
        try:
            try:
                try:
                    method, path, body = await self._read_request(reader)
                finally:
                    timer.cancel()
                endpoint, payload = self._route(method, path, body)
                code, response = payload
            except _HttpError as exc:
                code = exc.code
                response = _json_response(exc.code, {"error": exc.message})
            except Exception as exc:  # noqa: BLE001 - last-resort 500
                code = 500
                response = _json_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            if timed_out:
                code = 408
                self._m_read_timeouts.inc()
                return  # a stalled client: its connection is gone
            writer.write(response)
            await writer.drain()
        except ConnectionError:
            pass  # client went away before the answer; nothing to send
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.app.observe_request(
                endpoint, time.perf_counter() - start, code
            )

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "request head too large")
        except asyncio.IncompleteReadError:
            raise _HttpError(400, "incomplete request")
        if len(head) > MAX_HEADER_BYTES:
            raise _HttpError(413, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {lines[0]!r}")
        method, target, _version = parts
        content_length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _HttpError(400, "malformed Content-Length")
        if content_length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        try:
            body = await reader.readexactly(content_length)
        except asyncio.IncompleteReadError:
            raise _HttpError(400, "incomplete request")
        return method.upper(), target.split("?", 1)[0], body

    def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[str, Tuple[int, bytes]]:
        """Map one request to ``(endpoint_label, (code, response))``."""
        if path == "/jobs" and method == "POST":
            return "/jobs:post", self._post_job(body)
        if path == "/jobs" and method == "GET":
            return "/jobs:get", (
                200,
                _json_response(
                    200, {"jobs": [job.summary() for job in self.app.jobs()]}
                ),
            )
        if path.startswith("/jobs/") and method == "GET":
            return "/jobs/{id}", self._get_job(path[len("/jobs/"):])
        if path == "/metrics" and method == "GET":
            text = self.app.registry.render_prometheus()
            return "/metrics", (
                200,
                _response(
                    200,
                    text.encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                ),
            )
        if path == "/healthz" and method == "GET":
            return "/healthz", (200, _json_response(200, self.app.health()))
        if path == "/shutdown" and method == "POST":
            if not self.allow_shutdown:
                return "/shutdown", (
                    403,
                    _json_response(
                        403,
                        {"error": "remote shutdown disabled; "
                                  "start with --allow-shutdown"},
                    ),
                )
            self.request_shutdown()
            return "/shutdown", (
                202, _json_response(202, {"status": "draining"})
            )
        if path in ("/jobs", "/metrics", "/healthz", "/shutdown"):
            raise _HttpError(405, f"{method} not allowed on {path}")
        raise _HttpError(404, f"no route for {path}")

    def _post_job(self, body: bytes) -> Tuple[int, bytes]:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, _json_response(400, {"error": f"invalid JSON: {exc}"})
        try:
            spec = JobSpec.from_payload(payload)
            job = self.app.submit(spec)
        except ConfigurationError as exc:
            return 400, _json_response(400, {"error": str(exc)})
        except QueueFullError as exc:
            retry_after = max(1, int(round(exc.retry_after_s)))
            return 429, _json_response(
                429,
                {
                    "error": "queue full",
                    "retry_after_s": exc.retry_after_s,
                },
                extra_headers={"Retry-After": str(retry_after)},
            )
        except ServiceClosedError as exc:
            return 503, _json_response(503, {"error": str(exc)})
        return 202, _json_response(
            202,
            {
                "id": job.id,
                "state": job.state.value,
                "status_url": f"/jobs/{job.id}",
            },
        )

    def _get_job(self, job_id: str) -> Tuple[int, bytes]:
        job = self.app.get_job(job_id)
        if job is None:
            return 404, _json_response(
                404, {"error": f"unknown job {job_id!r}"}
            )
        return 200, _json_response(200, job.to_dict())
