"""Raw-socket framing tests for the asyncio HTTP/1.1 bridge.

``http.client`` always frames requests correctly, so these tests speak
bytes over a plain socket to pin how the bridge answers framing it does not
accept: it must reply with a well-formed error and close the connection,
never drop it silently or parse leftover body bytes as the next request.
"""

import json
import socket
import time

import pytest

from repro.api import Session
from repro.server import ServerThread, create_app, http


@pytest.fixture(scope="module")
def server():
    session = Session()
    with ServerThread(create_app(session)) as running:
        yield running
    session.close()


def _exchange(server, payload: bytes, timeout: float = 30) -> bytes:
    """Send raw bytes, then read everything until the server closes."""
    with socket.create_connection((server.host, server.port),
                                  timeout=timeout) as conn:
        conn.sendall(payload)
        received = b""
        while True:
            data = conn.recv(65536)
            if not data:
                return received
            received += data


def _status_lines(raw: bytes):
    return [line for line in raw.decode("latin-1").split("\r\n")
            if line.startswith("HTTP/1.1 ")]


def test_negative_content_length_is_a_400_and_closes(server):
    raw = _exchange(server, b"POST /v1/estimate HTTP/1.1\r\n"
                            b"host: localhost\r\n"
                            b"content-length: -5\r\n\r\n")
    assert _status_lines(raw) == ["HTTP/1.1 400 Bad Request"]
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"connection: close" in head.lower()
    assert body == b"bad content-length\n"


def test_chunked_request_body_is_a_411_and_closes(server):
    chunked = (b"POST /v1/estimate HTTP/1.1\r\n"
               b"host: localhost\r\n"
               b"content-type: application/json\r\n"
               b"transfer-encoding: chunked\r\n\r\n"
               b"15\r\n{\"network\": \"alexnet\"}\r\n"
               b"0\r\n\r\n")
    follow_up = b"GET /healthz HTTP/1.1\r\nhost: localhost\r\n\r\n"
    raw = _exchange(server, chunked + follow_up)
    # exactly one answer, then EOF: neither the chunk bytes nor the
    # pipelined request behind them is ever parsed.
    assert _status_lines(raw) == ["HTTP/1.1 411 Length Required"]
    head, _, _ = raw.partition(b"\r\n\r\n")
    assert b"connection: close" in head.lower()


@pytest.mark.parametrize("partial", [
    b"GET /healthz HTTP/1.1\r\nhost: local",
    b"POST /v1/estimate HTTP/1.1\r\nhost: localhost\r\n"
    b"content-type: application/json\r\ncontent-length: 100\r\n\r\n"
    b"{\"network\"",
], ids=["head", "body"])
def test_stalled_client_is_disconnected(server, monkeypatch, partial):
    monkeypatch.setattr(http, "READ_TIMEOUT_S", 0.2)
    started = time.monotonic()
    # the server closes without answering; a server that waits forever
    # makes the client's 5 s socket timeout fail the test.
    assert _exchange(server, partial, timeout=5) == b""
    assert time.monotonic() - started < 5
    fresh = _exchange(server, b"GET /healthz HTTP/1.1\r\nhost: localhost\r\n"
                              b"connection: close\r\n\r\n", timeout=5)
    assert _status_lines(fresh) == ["HTTP/1.1 200 OK"]


def test_head_answer_ends_at_its_header_block(server):
    """A HEAD answer carries the GET answer's headers and no body, so a
    pipelined request behind it is framed from the next byte."""
    raw = _exchange(server, b"HEAD /healthz HTTP/1.1\r\nhost: localhost\r\n\r\n"
                            b"GET /healthz HTTP/1.1\r\nhost: localhost\r\n"
                            b"connection: close\r\n\r\n")
    assert _status_lines(raw) == ["HTTP/1.1 200 OK", "HTTP/1.1 200 OK"]
    head, _, rest = raw.partition(b"\r\n\r\n")
    assert b"content-length: 21" in head.lower()
    assert rest.startswith(b"HTTP/1.1 200")
    get_head, _, get_body = rest.partition(b"\r\n\r\n")
    assert b"content-length: 21" in get_head.lower()
    assert json.loads(get_body) == {"status": "ok"}
