"""Stdlib HTTP front end for the join service.

A ``ThreadingHTTPServer`` exposing the :class:`~repro.service.service.JoinService`
as a small JSON API:

* ``POST /v1/join`` — body ``{"tau_good": .., "tau_bad": .., "mode": ..,
  "deadline_ms": .., "priority": ..}``; replies with the service's JSON
  response.  A shed request maps to ``503`` with a jittered
  ``Retry-After`` header (admission control surfaces as backpressure,
  not latency); an expired deadline to ``504`` carrying the partial
  progress the run made; a malformed body to ``400``; a draining
  service to ``503``.
* ``GET /v1/healthz`` — liveness/drain status.
* ``GET /v1/stats`` — statistics-store and plan-cache introspection.
* ``GET /v1/metrics`` — Prometheus exposition text.
* ``GET /v1/debug/requests`` — recent wide events from the flight
  recorder (filters: ``outcome``, ``mode``, ``priority``, ``phase``,
  ``since_id``, ``limit``).
* ``GET /v1/debug/requests/<id>`` — one wide event with its span tree.
* ``GET /v1/debug/slo`` — burn rates per objective and window.
* ``GET /v1/debug/profile?seconds=N`` — collapsed-stack sampling
  profile of the service threads (text/plain, flamegraph-ready).

Connection handling is thread-per-request (stdlib), but join work itself
runs on the service's bounded worker pool — the HTTP thread just blocks
on the request's future, so concurrency and admission are governed by
the pool, not by socket accidents.  Each connection's socket carries a
timeout (``request_timeout``), so a client that opens a connection and
never finishes its request cannot pin an HTTP thread forever: a stalled
read maps to a clean ``408`` and the connection is closed.  Every
response leaves in one write (:func:`render_response`, shared with the
asyncio front end) on a socket with ``TCP_NODELAY`` set.

The module also hosts the matching clients: :func:`request_json` (one
call) and :func:`submit_with_retries` (a submit loop that honours 503
``Retry-After`` hints with decorrelated jitter), used by ``repro submit``
so driving a server needs no extra tooling.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.client import responses as _STATUS_REASONS
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple

from ..robustness.deadline import DeadlineExceeded
from ..robustness.retry import RetryPolicy
from .service import (
    JoinRequest,
    JoinService,
    ServiceBusyError,
    ServiceClosedError,
    response_json,
)

#: maximum accepted request-body size; joins need a few dozen bytes
MAX_BODY_BYTES = 64 * 1024

#: default per-connection socket timeout, seconds
DEFAULT_REQUEST_TIMEOUT = 30.0

JSON_CONTENT_TYPE = "application/json"
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4"

#: the ``Server`` header both front ends send
SERVER_NAME = "repro-join-service/1.0"


# -- shared routing ------------------------------------------------------------
#
# Both front ends (the threaded handler below and the asyncio server in
# :mod:`~repro.service.asyncio_frontend`) answer the read-only API through
# these functions, so the two cannot drift apart: a route returns
# ``(status, body text, content type)`` and the front end only decides how
# the bytes reach the socket.


def _single_param(params: Dict[str, list], name: str) -> Optional[str]:
    values = params.get(name)
    return values[-1] if values else None


def _error_body(message: str, **extra: Any) -> str:
    return response_json({"error": message, **extra})


def _route_debug_requests(
    service: JoinService, params: Dict[str, list]
) -> Tuple[int, str, str]:
    try:
        limit = int(_single_param(params, "limit") or 50)
        raw_since = _single_param(params, "since_id")
        since_id = int(raw_since) if raw_since is not None else None
    except ValueError:
        return (
            400,
            _error_body("limit and since_id must be integers"),
            JSON_CONTENT_TYPE,
        )
    events = service.debug_requests(
        limit=max(min(limit, 1000), 1),
        outcome=_single_param(params, "outcome"),
        mode=_single_param(params, "mode"),
        priority=_single_param(params, "priority"),
        phase=_single_param(params, "phase"),
        since_id=since_id,
    )
    body = response_json({"requests": events, "count": len(events)})
    return 200, body, JSON_CONTENT_TYPE


def _route_debug_request(
    service: JoinService, raw_id: str
) -> Tuple[int, str, str]:
    try:
        request_id = int(raw_id)
    except ValueError:
        return (
            400,
            _error_body(f"request id must be an integer, got {raw_id!r}"),
            JSON_CONTENT_TYPE,
        )
    event = service.debug_request(request_id)
    if event is None:
        return (
            404,
            _error_body(f"request {request_id} not in the ring"),
            JSON_CONTENT_TYPE,
        )
    return 200, response_json(event), JSON_CONTENT_TYPE


def _route_debug_profile(
    service: JoinService, params: Dict[str, list]
) -> Tuple[int, str, str]:
    try:
        seconds = float(_single_param(params, "seconds") or 1.0)
        interval = float(_single_param(params, "interval") or 0.005)
    except ValueError:
        return (
            400,
            _error_body("seconds and interval must be numbers"),
            JSON_CONTENT_TYPE,
        )
    if not (0.0 < seconds <= 60.0):
        return (
            400,
            _error_body("seconds must lie in (0, 60]"),
            JSON_CONTENT_TYPE,
        )
    profile = service.profile(seconds=seconds, interval=interval)
    text = (
        f"# samples: {profile.samples} duration: {profile.duration:.3f}s\n"
        + profile.render()
    )
    return 200, text, "text/plain"


def route_get(service: JoinService, raw_path: str) -> Tuple[int, str, str]:
    """Answer one GET request; returns ``(status, body, content type)``."""
    path, _, query = raw_path.partition("?")
    params = urllib.parse.parse_qs(query)
    if path == "/v1/healthz":
        health = service.health()
        status = 200 if health["status"] == "ok" else 503
        return status, response_json(health), JSON_CONTENT_TYPE
    if path == "/v1/stats":
        return 200, response_json(service.stats()), JSON_CONTENT_TYPE
    if path == "/v1/metrics":
        return 200, service.render_metrics(), METRICS_CONTENT_TYPE
    if path == "/v1/debug/requests":
        return _route_debug_requests(service, params)
    if path.startswith("/v1/debug/requests/"):
        return _route_debug_request(
            service, path[len("/v1/debug/requests/"):]
        )
    if path == "/v1/debug/slo":
        return 200, response_json(service.debug_slo()), JSON_CONTENT_TYPE
    if path == "/v1/debug/profile":
        return _route_debug_profile(service, params)
    return 404, _error_body(f"unknown path {path}"), JSON_CONTENT_TYPE


def render_response(
    status: int,
    body: str,
    content_type: str = JSON_CONTENT_TYPE,
    extra_headers: Tuple[Tuple[str, str], ...] = (),
    close: bool = False,
) -> bytes:
    """One complete HTTP/1.1 response — status line, headers, body.

    Both front ends send the result with a single write on a socket with
    ``TCP_NODELAY``.  Headers and body in two writes would let Nagle's
    algorithm hold the body until the client's delayed ACK for the
    headers arrives, about 40 ms on Linux, on every keep-alive request.
    """
    payload = body.encode("utf-8")
    reason = _STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Server: {SERVER_NAME}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
    ]
    if close:
        lines.append("Connection: close")
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + payload


def deadline_payload(expired: DeadlineExceeded) -> Dict[str, Any]:
    """The 504 body: whatever partial progress the interrupted run made."""
    return {
        "error": "deadline exceeded",
        "where": expired.where,
        "phase": expired.phase,
        "deadline_ms": expired.budget_ms,
        "partial": expired.partial,
    }


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes the /v1 API onto the owning server's JoinService."""

    protocol_version = "HTTP/1.1"
    server_version = SERVER_NAME
    #: TCP_NODELAY on every accepted socket (see :func:`render_response`)
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------------

    @property
    def service(self) -> JoinService:
        return self.server.service  # type: ignore[attr-defined]

    def setup(self) -> None:
        # StreamRequestHandler applies ``self.timeout`` via settimeout in
        # its setup; installing the server's request_timeout here bounds
        # every socket read/write, so a silent client cannot hold an HTTP
        # thread open forever.
        self.timeout = getattr(self.server, "request_timeout", None)
        super().setup()

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        return  # request logging belongs to tracing, not stderr

    def _send(
        self,
        status: int,
        body: str,
        content_type: str = JSON_CONTENT_TYPE,
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        # Error paths that could not (or chose not to) consume the rest
        # of the request must tell the client the connection is done —
        # setting the attribute alone closes our side but leaves a
        # keep-alive client waiting on a dead socket.
        self.wfile.write(
            render_response(
                status,
                body,
                content_type,
                extra_headers,
                close=self.close_connection,
            )
        )

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        self._send(status, response_json(payload), extra_headers=extra_headers)

    def _send_error(self, status: int, message: str, **extra: Any) -> None:
        self._send_json(status, {"error": message, **extra})

    # -- GET ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        status, body, content_type = route_get(self.service, self.path)
        self._send(status, body, content_type=content_type)

    # -- POST -----------------------------------------------------------------

    def _read_body(self, length: int) -> Optional[bytes]:
        """Read exactly *length* body bytes, or None on a short read.

        ``rfile`` is a buffered socket file: one ``read(n)`` may return
        fewer than *n* bytes when the peer half-closes mid-body, so the
        read must loop.  A short final read means the body can never
        arrive — the caller answers 400 and closes.
        """
        chunks = []
        remaining = length
        while remaining > 0:
            chunk = self.rfile.read(remaining)
            if not chunk:
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def do_POST(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        if path != "/v1/join":
            self._send_error(404, f"unknown path {path}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            # The body length is unknowable, so the body cannot be
            # drained — under keep-alive its bytes would be parsed as
            # the next request line.  Close instead.
            self.close_connection = True
            self._send_error(400, "bad Content-Length")
            return
        if length < 0 or length > MAX_BODY_BYTES:
            # Same keep-alive hazard: the oversized body is unread, and
            # draining up to 64 KiB of it buys nothing.  Close.
            self.close_connection = True
            self._send_error(413, "request body too large")
            return
        try:
            raw = self._read_body(length)
        except (TimeoutError, socket.timeout):
            # The client went quiet mid-body; free the thread cleanly.
            self.close_connection = True
            self._send_error(408, "request body read timed out")
            return
        if raw is None:
            # Half-closed peer: the declared body never fully arrived.
            self.close_connection = True
            self._send_error(400, "truncated request body")
            return
        try:
            payload = json.loads(raw or b"{}")
            request = JoinRequest.from_payload(payload)
        except ValueError as error:
            self._send_error(400, str(error))
            return
        try:
            future = self.service.submit(request)
        except ServiceBusyError as busy:
            self._send_json(
                503,
                {"error": "overloaded", "retry_after": busy.retry_after},
                extra_headers=(
                    ("Retry-After", _retry_after_header(busy.retry_after)),
                ),
            )
            return
        except ServiceClosedError:
            self._send_error(503, "service is draining")
            return
        try:
            # Bounded wait: requests without a deadline must still not
            # pin this HTTP thread forever if a worker wedges.  The
            # service's own deadline machinery interrupts deadlined
            # requests far earlier; this is the backstop.
            timeout = getattr(self.server, "request_timeout", None)
            self._send_json(200, future.result(timeout=timeout))
        except FutureTimeoutError:
            future.cancel()
            self.close_connection = True
            self._send_json(
                504,
                {
                    "error": "request timed out in service",
                    "timeout_seconds": timeout,
                },
            )
        except DeadlineExceeded as expired:
            # The contract: a deadlined request never hangs — it returns
            # whatever progress it made as a 504.
            self._send_json(504, deadline_payload(expired))
        except ValueError as error:
            self._send_error(409, str(error))
        except Exception as error:  # noqa: BLE001 — surface, don't kill thread
            self._send_error(500, f"{type(error).__name__}: {error}")


def _retry_after_header(retry_after: float) -> str:
    """HTTP Retry-After is integer seconds; round up, never below 1."""
    return str(max(1, int(math.ceil(retry_after))))


class ServiceHTTPServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer that owns a JoinService."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: JoinService,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        #: per-connection socket timeout applied in handler setup()
        self.request_timeout = request_timeout


def serve(
    service: JoinService,
    host: str = "127.0.0.1",
    port: int = 8023,
    request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
) -> ServiceHTTPServer:
    """Bind a server for *service* (``port=0`` picks a free port)."""
    return ServiceHTTPServer(
        (host, port), service, request_timeout=request_timeout
    )


def serve_in_background(
    service: JoinService,
    host: str = "127.0.0.1",
    port: int = 0,
    request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
) -> Tuple[ServiceHTTPServer, threading.Thread]:
    """Start a server thread; returns (server, thread) for tests/tools."""
    server = serve(service, host=host, port=port, request_timeout=request_timeout)
    thread = threading.Thread(
        target=server.serve_forever, name="join-service-http", daemon=True
    )
    thread.start()
    return server, thread


def shutdown(server: ServiceHTTPServer) -> None:
    """Graceful drain: stop accepting, finish queued joins, close."""
    server.shutdown()
    server.server_close()
    server.service.close(wait=True)


# -- client -------------------------------------------------------------------


def request_json(
    base_url: str,
    endpoint: str = "join",
    payload: Optional[Dict[str, Any]] = None,
    timeout: float = 300.0,
) -> Tuple[int, Any]:
    """Call one API endpoint; returns ``(status, decoded body)``.

    ``join`` POSTs *payload*; the read-only endpoints GET.  The metrics
    endpoint returns its text body undecoded.  HTTP error statuses are
    returned, not raised — callers inspect the status.
    """
    base = base_url.rstrip("/")
    url = f"{base}/v1/{endpoint}"
    if endpoint == "join":
        data = json.dumps(payload or {}).encode("utf-8")
        request = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json"}
        )
    else:
        request = urllib.request.Request(url)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            status = reply.status
            body = reply.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        status = error.code
        body = error.read().decode("utf-8")
    if endpoint == "metrics":
        return status, body
    try:
        return status, json.loads(body)
    except ValueError:
        return status, body


def submit_with_retries(
    base_url: str,
    payload: Dict[str, Any],
    max_retries: int = 0,
    policy: Optional[RetryPolicy] = None,
    timeout: float = 300.0,
    sleep: Callable[[float], None] = time.sleep,
    seed: int = 0,
) -> Tuple[int, Any, int]:
    """Submit a join, honouring 503 ``Retry-After`` hints.

    Retries *only* sheds (503) — a 504 deadline or a 4xx is final.  Each
    backoff is the larger of the server's ``retry_after`` hint and the
    policy's decorrelated-jitter delay, capped at the policy's
    ``max_delay``, so a fleet of shed clients spreads out instead of
    stampeding back together.  Returns ``(status, body, attempts)``.
    """
    if policy is None:
        policy = RetryPolicy(
            max_attempts=max(max_retries + 1, 1),
            base_delay=0.5,
            max_delay=15.0,
            seed=seed,
        )
    delays = policy.delays(f"submit|{base_url}")
    attempts = 0
    while True:
        attempts += 1
        status, body = request_json(
            base_url, "join", payload, timeout=timeout
        )
        if status != 503 or attempts > max_retries:
            return status, body, attempts
        hint = 0.0
        if isinstance(body, dict):
            raw_hint = body.get("retry_after", 0.0)
            if isinstance(raw_hint, (int, float)) and not isinstance(
                raw_hint, bool
            ):
                hint = float(raw_hint)
        try:
            jittered = next(delays)
        except StopIteration:
            return status, body, attempts
        sleep(min(policy.max_delay, max(jittered, hint)))


__all__ = [
    "DEFAULT_REQUEST_TIMEOUT",
    "JSON_CONTENT_TYPE",
    "MAX_BODY_BYTES",
    "METRICS_CONTENT_TYPE",
    "SERVER_NAME",
    "ServiceHTTPServer",
    "ServiceRequestHandler",
    "deadline_payload",
    "render_response",
    "request_json",
    "route_get",
    "serve",
    "serve_in_background",
    "shutdown",
    "submit_with_retries",
]
