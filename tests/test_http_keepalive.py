"""Keep-alive hygiene regression tests for the threaded HTTP front end.

Each test pins one of the ``do_POST`` connection-handling bugs from the
PR-10 sweep; all three fail against the pre-fix handler:

1. 413/400 answered *without consuming the request body* — under
   HTTP/1.1 keep-alive the unread body bytes were then parsed as the
   next request line, so a pipelined client saw phantom responses on a
   desynchronized connection.  Fixed by closing the connection whenever
   the body cannot be consumed.
2. a single ``rfile.read(length)`` returning short on a half-closed
   connection — the truncated body surfaced as a confusing JSON-parse
   400.  Fixed by looping the read and mapping a short read to 400
   ``"truncated request body"`` + close.
3. ``future.result()`` with no timeout — a request with no deadline
   could pin an HTTP thread forever behind a wedged worker.  Fixed by
   bounding the wait with the server's ``request_timeout`` and mapping
   expiry to a clean 504 + close.

The tests drive raw sockets (urllib cannot pipeline or half-close) and a
stub service, so they exercise exactly the HTTP layer.  The last two
classes pin the response wire format: one write per response on a
``TCP_NODELAY`` socket, and byte-identical responses from the threaded
and asyncio front ends.
"""

from __future__ import annotations

import json
import socket
import threading
from concurrent.futures import Future

import pytest

from repro.service.asyncio_frontend import AsyncServiceServer
from repro.service.http import (
    MAX_BODY_BYTES,
    ServiceHTTPServer,
    ServiceRequestHandler,
)
from repro.service.service import ServiceBusyError, response_json


class StubService:
    """The minimal surface the HTTP handler touches."""

    def __init__(self):
        self.submitted = []
        self.resolve_with = {"ok": True}
        self.never_resolve = False
        self.busy = None

    def submit(self, request):
        if self.busy is not None:
            raise ServiceBusyError(retry_after=self.busy)
        self.submitted.append(request)
        future = Future()
        if not self.never_resolve:
            future.set_result(self.resolve_with)
        return future

    def healthz(self):  # pragma: no cover — not reached by these tests
        return {"status": "ok"}

    def close(self, wait=True):
        pass


@pytest.fixture()
def stub_server():
    service = StubService()
    server = ServiceHTTPServer(("127.0.0.1", 0), service, request_timeout=1.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _connect(server) -> socket.socket:
    sock = socket.create_connection(server.server_address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def _read_until_eof(sock: socket.socket, limit: float = 10.0) -> bytes:
    sock.settimeout(limit)
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except (TimeoutError, socket.timeout):
            pytest.fail(
                "server neither answered further nor closed the connection"
            )
        except ConnectionResetError:
            # The server tore the connection down with unread bytes in
            # its receive buffer — equivalent to EOF for these tests.
            return b"".join(chunks)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _parse_responses(raw: bytes):
    """Split a byte stream into HTTP responses; fails on desync garbage."""
    responses = []
    rest = raw
    while rest:
        head, sep, remainder = rest.partition(b"\r\n\r\n")
        assert sep, f"incomplete response head in stream: {rest!r}"
        lines = head.split(b"\r\n")
        status_line = lines[0].decode("latin-1")
        assert status_line.startswith("HTTP/1."), (
            f"stream desynchronized: expected a status line, got "
            f"{status_line!r}"
        )
        status = int(status_line.split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body, rest = remainder[:length], remainder[length:]
        assert len(body) == length, "response body truncated"
        responses.append((status, headers, body))
    return responses


class TestKeepAliveBodyHandling:
    def test_oversized_post_closes_instead_of_desyncing(self, stub_server):
        """Bug 1: a 413 with the body unread must close the connection.

        A pipelined client sends the oversized POST (body included) and a
        follow-up GET back-to-back.  Pre-fix, the server kept the
        connection open and parsed the unread body as more requests —
        the stream desynchronized into phantom responses.  Post-fix the
        client sees exactly one 413 carrying ``Connection: close``, then
        EOF.
        """
        service, server = stub_server
        body = b"x" * (MAX_BODY_BYTES + 1)
        oversized = (
            b"POST /v1/join HTTP/1.1\r\n"
            b"Host: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        ) + body
        pipelined_get = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        with _connect(server) as sock:
            sock.sendall(oversized + pipelined_get)
            responses = _parse_responses(_read_until_eof(sock))
        assert len(responses) == 1, (
            "exactly one response then EOF — anything else means the "
            "unread body was parsed as new requests"
        )
        status, headers, raw = responses[0]
        assert status == 413
        assert headers.get("connection") == "close"
        assert json.loads(raw)["error"] == "request body too large"
        assert service.submitted == []

    def test_bad_content_length_closes(self, stub_server):
        """Bug 1 (second arm): unparseable Content-Length must close."""
        service, server = stub_server
        request = (
            b"POST /v1/join HTTP/1.1\r\n"
            b"Host: t\r\n"
            b"Content-Length: banana\r\n\r\n"
            b'{"tau_good": 1}'
            b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        with _connect(server) as sock:
            sock.sendall(request)
            responses = _parse_responses(_read_until_eof(sock))
        assert len(responses) == 1
        status, headers, raw = responses[0]
        assert status == 400
        assert headers.get("connection") == "close"
        assert json.loads(raw)["error"] == "bad Content-Length"
        assert service.submitted == []

    def test_half_closed_body_maps_to_truncated_400(self, stub_server):
        """Bug 2: a short body read is named, not blamed on JSON.

        The client declares 100 body bytes, sends 40, and half-closes.
        Pre-fix the 40 bytes went straight to ``json.loads`` and the
        client got a JSON-parse error for a transport problem; post-fix
        the read loops to EOF and answers 400 "truncated request body"
        with the connection closed.
        """
        service, server = stub_server
        head = (
            b"POST /v1/join HTTP/1.1\r\n"
            b"Host: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 100\r\n\r\n"
        )
        with _connect(server) as sock:
            sock.sendall(head + b'{"tau_good": 40, "tau_bad": 100'[:40])
            sock.shutdown(socket.SHUT_WR)
            responses = _parse_responses(_read_until_eof(sock))
        assert len(responses) == 1
        status, headers, raw = responses[0]
        assert status == 400
        assert headers.get("connection") == "close"
        assert json.loads(raw)["error"] == "truncated request body"
        assert service.submitted == []


class TestRequestTimeoutBackstop:
    def test_wedged_worker_maps_to_504(self, stub_server):
        """Bug 3: a never-resolving future answers 504, not a hang.

        The stub returns a future that never resolves — the wedged-worker
        case.  With ``request_timeout=1.0`` the handler must answer a
        504 within the timeout (plus slack) and close the connection;
        pre-fix it blocked in ``future.result()`` forever and this test
        timed out on the socket read.
        """
        service, server = stub_server
        service.never_resolve = True
        payload = json.dumps({"tau_good": 40, "tau_bad": 1000}).encode()
        request = (
            b"POST /v1/join HTTP/1.1\r\n"
            b"Host: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(payload)
        ) + payload
        with _connect(server) as sock:
            sock.sendall(request)
            responses = _parse_responses(_read_until_eof(sock, limit=8.0))
        assert len(responses) == 1
        status, headers, raw = responses[0]
        assert status == 504
        assert headers.get("connection") == "close"
        body = json.loads(raw)
        assert body["error"] == "request timed out in service"
        assert body["timeout_seconds"] == 1.0
        assert len(service.submitted) == 1


class _RecordingHandler(ServiceRequestHandler):
    """Records the accepted socket's TCP_NODELAY and every wfile write."""

    def setup(self):
        super().setup()
        self.server.nodelay.append(
            self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        write = self.wfile.write
        writes = self.server.writes

        def counting_write(data):
            writes.append(bytes(data))
            return write(data)

        self.wfile.write = counting_write


@pytest.fixture()
def recording_server(stub_server):
    service, server = stub_server
    server.nodelay, server.writes = [], []
    server.RequestHandlerClass = _RecordingHandler
    yield service, server


def _join_request(payload: bytes) -> bytes:
    return (
        b"POST /v1/join HTTP/1.1\r\n"
        b"Host: t\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % len(payload)
    ) + payload


def _read_one_response(sock: socket.socket) -> bytes:
    """The raw bytes of exactly one response (status line to body end)."""
    buffer = b""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-head: {buffer!r}"
        buffer += chunk
    head_end = buffer.index(b"\r\n\r\n") + 4
    length = 0
    for line in buffer[:head_end].split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    end = head_end + length
    while len(buffer) < end:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        buffer += chunk
    assert len(buffer) == end, f"unexpected trailing bytes: {buffer!r}"
    return buffer


class TestOneWritePerResponse:
    """Headers and body leave in one write on a TCP_NODELAY socket.

    Two writes (headers, then body) on a socket with Nagle's algorithm
    on make the kernel hold the body until the client ACKs the headers,
    and a client delaying that ACK stalls every keep-alive request by
    ~40 ms.  These tests count writes instead of timing them.
    """

    def test_accepted_socket_has_tcp_nodelay(self, recording_server):
        _service, server = recording_server
        with _connect(server) as sock:
            sock.sendall(b"GET /v1/nonsense HTTP/1.1\r\nHost: t\r\n\r\n")
            _read_one_response(sock)
        assert server.nodelay and all(server.nodelay)

    def test_join_response_is_one_write_on_keep_alive(self, recording_server):
        service, server = recording_server
        service.resolve_with = {"plan": "p1", "feasible": True}
        payload = json.dumps({"tau_good": 40, "tau_bad": 1000}).encode()
        with _connect(server) as sock:
            responses = []
            for _ in range(3):  # one connection, three requests
                sock.sendall(_join_request(payload))
                responses.append(_read_one_response(sock))
        assert len(server.writes) == 3, "one write per response"
        assert server.writes == responses
        for raw in responses:
            ((status, headers, body),) = _parse_responses(raw)
            assert status == 200
            assert headers.get("connection") != "close"
            assert json.loads(body) == service.resolve_with
        assert len(service.submitted) == 3


@pytest.fixture(params=["threaded", "async"])
def stub_frontend(request):
    if request.param == "threaded":
        yield request.getfixturevalue("stub_server")
        return
    service = StubService()
    server = AsyncServiceServer(
        service, request_timeout=1.0, executor_workers=4
    ).start()
    try:
        yield service, server
    finally:
        server.shutdown()


def _expected(status_line: str, body: dict, *headers: str) -> bytes:
    payload = response_json(body).encode()
    head = [
        status_line,
        "Server: repro-join-service/1.0",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        *headers,
    ]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + payload


class TestWireFormat:
    """Both front ends put the same bytes on the wire for one response."""

    PAYLOAD = json.dumps({"tau_good": 40, "tau_bad": 1000}).encode()

    def test_join_response_bytes_on_keep_alive(self, stub_frontend):
        service, server = stub_frontend
        service.resolve_with = {"plan": "p1", "feasible": True}
        expected = _expected("HTTP/1.1 200 OK", service.resolve_with)
        with _connect(server) as sock:
            for _ in range(2):
                sock.sendall(_join_request(self.PAYLOAD))
                assert _read_one_response(sock) == expected

    def test_shed_response_bytes(self, stub_frontend):
        service, server = stub_frontend
        service.busy = 2.4
        with _connect(server) as sock:
            sock.sendall(_join_request(self.PAYLOAD))
            assert _read_one_response(sock) == _expected(
                "HTTP/1.1 503 Service Unavailable",
                {"error": "overloaded", "retry_after": 2.4},
                "Retry-After: 3",
            )

    def test_connection_close_response_bytes(self, stub_frontend):
        _service, server = stub_frontend
        request = _join_request(self.PAYLOAD).replace(
            b"Host: t\r\n", b"Host: t\r\nConnection: close\r\n"
        )
        with _connect(server) as sock:
            sock.sendall(request)
            assert _read_one_response(sock) == _expected(
                "HTTP/1.1 200 OK", {"ok": True}, "Connection: close"
            )
            assert _read_until_eof(sock) == b"", "connection must close"
