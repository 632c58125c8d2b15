"""Integration test: the request loop's answers to edge-case and malformed
requests, sent over a raw socket.

Each case sends its bytes to a live server and records the transcript: the
status code of each answer, in order, and whether the connection is still
open afterwards (the server answers a follow-up ``GET /v1/healthz`` on it).
An answer without a status line (the stdlib answers HTTP/0.9, and request
lines it cannot read a version from, with the body alone) is recorded as
``"no status line"``.  The table pins the server's behaviour on the stdlib's
own request parser, so a request loop that replaces it must give every
case the same transcript.  Five cases depart from the stdlib on purpose:
an HTTP/0.9 GET with ``Connection: keep-alive``, version-less or naming
``HTTP/0.9``, is closed after its answer (the stdlib holds it open, though
a body with no status line or length ends only at the close); a body cut
short of its ``Content-Length`` by a half-close is refused with 400 (the
stdlib-era server answered the part that arrived); and a ``Content-Length``
with a sign or an underscore is refused with 400 (``int`` read both, but
RFC 9110 allows digits only, and a proxy that frames the request
differently is how request smuggling starts).
"""

import json
import socket
import threading

import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.encoders import RecordEncoder
from repro.serve import ModelRegistry, PackedInferenceEngine, ServeApp, create_server

#: A valid single-row predict for the fixture's 24-feature model.
_BODY = json.dumps({"features": [0.5] * 24}).encode("utf-8")
_LENGTH = f"Content-Length: {len(_BODY)}"
_PREDICT = "POST /v1/predict HTTP/1.1"
_PROBE = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"
_NO_STATUS_LINE = "no status line"


def _raw(request_line, *fields, body=b""):
    """A request as bytes: its line, its header *fields*, a blank line, *body*."""
    head = "".join(f"{line}\r\n" for line in (request_line, *fields, ""))
    return head.encode("latin-1") + body


def _headers(count):
    return [f"X-Field-{index}: value" for index in range(count)]


#: case -> (bytes sent, (status of each answer, connection state after)).
_CASES = {
    "keep-alive-post": (
        _raw(_PREDICT, "Host: t", _LENGTH, body=_BODY),
        (["200"], "open"),
    ),
    "lowercase-content-length": (
        _raw(_PREDICT, "Host: t", _LENGTH.lower(), body=_BODY),
        (["200"], "open"),
    ),
    "http-1.0": (
        _raw("POST /v1/predict HTTP/1.0", _LENGTH, body=_BODY),
        (["200"], "closed"),
    ),
    "http-1.0-keep-alive": (
        _raw("POST /v1/predict HTTP/1.0", "Connection: keep-alive", _LENGTH, body=_BODY),
        (["200"], "open"),
    ),
    "connection-close": (
        _raw(_PREDICT, "Host: t", "Connection: close", _LENGTH, body=_BODY),
        (["200"], "closed"),
    ),
    "connection-close-in-capitals": (
        _raw(_PREDICT, "HOST: t", "CONNECTION: CLOSE", _LENGTH, body=_BODY),
        (["200"], "closed"),
    ),
    "two-posts-pipelined": (
        _raw(_PREDICT, "Host: t", _LENGTH, body=_BODY) * 2,
        (["200", "200"], "open"),
    ),
    "no-content-length": (
        _raw(_PREDICT, "Host: t"),
        (["400"], "closed"),
    ),
    "signed-content-length": (
        _raw(_PREDICT, "Host: t", f"Content-Length: +{len(_BODY)}", body=_BODY),
        (["400"], "closed"),
    ),
    "underscored-content-length": (
        _raw(_PREDICT, "Host: t", f"Content-Length: {len(_BODY) // 10}_{len(_BODY) % 10}",
             body=_BODY),
        (["400"], "closed"),
    ),
    "duplicate-content-length": (
        _raw(_PREDICT, "Host: t", _LENGTH, "Content-Length: 3", body=_BODY),
        (["200"], "open"),
    ),
    "folded-content-length": (
        _raw(_PREDICT, "Host: t", "Content-Length:", f"  {len(_BODY)}", body=_BODY),
        (["200"], "open"),
    ),
    "expect-100-continue": (
        _raw(_PREDICT, "Host: t", "Expect: 100-continue", _LENGTH, body=_BODY),
        (["100", "200"], "open"),
    ),
    "expect-100-continue-on-http-1.0": (
        _raw("POST /v1/predict HTTP/1.0", "Expect: 100-continue", _LENGTH, body=_BODY),
        (["200"], "closed"),
    ),
    "folded-header": (
        _raw(_PREDICT, "Host: t", "X-Note: first", "  second", _LENGTH, body=_BODY),
        (["200"], "open"),
    ),
    "header-without-colon": (
        _raw(_PREDICT, "Host: t", _LENGTH, "no colon here", body=_BODY),
        (["200"], "open"),
    ),
    # A line that is not a header field ends the fields: a Content-Length
    # after it is not read, so the predict has no body.
    "header-without-colon-before-content-length": (
        _raw(_PREDICT, "Host: t", "no colon here", _LENGTH, body=_BODY),
        (["400"], "closed"),
    ),
    "garbage-request-line": (b"GARBAGE\r\n", ([_NO_STATUS_LINE], "closed")),
    "bad-version": (b"GET /v1/healthz HTTP/x.y\r\n", ([_NO_STATUS_LINE], "closed")),
    "http-2.0": (b"GET /v1/healthz HTTP/2.0\r\n", ([_NO_STATUS_LINE], "closed")),
    "version-less-get": (b"GET /v1/healthz\r\n\r\n", ([_NO_STATUS_LINE], "closed")),
    "version-less-post": (b"POST /v1/predict\r\n", ([_NO_STATUS_LINE], "closed")),
    # The stdlib keeps these connections open, yet an HTTP/0.9 answer has no
    # status line or length: only the close tells the client where it ends.
    "version-less-get-keep-alive": (
        b"GET /v1/healthz\r\nConnection: keep-alive\r\n\r\n",
        ([_NO_STATUS_LINE], "closed"),
    ),
    "http-0.9-get-keep-alive": (
        b"GET /v1/healthz HTTP/0.9\r\nConnection: keep-alive\r\n\r\n",
        ([_NO_STATUS_LINE], "closed"),
    ),
    "empty-request-line": (b"\r\n", ([], "closed")),
    "put": (_raw("PUT /v1/predict HTTP/1.1", "Host: t"), (["501"], "closed")),
    "70000-byte-request-line": (
        _raw("GET /" + "a" * 70_000 + " HTTP/1.1", "Host: t"),
        (["414"], "closed"),
    ),
    "70000-byte-header": (
        _raw("GET /v1/healthz HTTP/1.1", "X-Long: " + "a" * 70_000),
        (["431"], "closed"),
    ),
    # The stdlib counts the blank line that ends the fields against its
    # limit of 100 lines.
    "99-headers": (_raw("GET /v1/healthz HTTP/1.1", *_headers(99)), (["200"], "open")),
    "100-headers": (_raw("GET /v1/healthz HTTP/1.1", *_headers(100)), (["431"], "closed")),
    "101-headers": (_raw("GET /v1/healthz HTTP/1.1", *_headers(101)), (["431"], "closed")),
    "double-slash-path": (_raw("GET //v1/healthz HTTP/1.1", "Host: t"), (["200"], "open")),
}


@pytest.fixture(scope="module")
def port(small_problem):
    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=0)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=0))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    registry = ModelRegistry()
    registry.register("har", PackedInferenceEngine(pipeline, name="har"))
    app = ServeApp(registry)
    server = create_server(app, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()


def _read_answer(stream) -> str:
    """The status code of the next answer on *stream*, after reading it whole."""
    try:
        line = stream.readline()
        if not line:
            return "no answer"
        if not line.startswith(b"HTTP/"):
            stream.read()  # the bare body, up to the close
            return _NO_STATUS_LINE
        length = 0
        while True:
            field = stream.readline()
            if field in (b"\r\n", b""):
                break
            name, _, value = field.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        stream.read(length)
    except ConnectionResetError:
        # A server that closes with request bytes unread resets the
        # connection; what it sent before the reset was read above.
        return "no answer" if not line else _NO_STATUS_LINE
    return line.split()[1].decode("ascii")


def _transcript(port, request, answers, half_close=False):
    """Send *request*, read *answers* answers, and check whether the server
    still answers a follow-up request on the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        try:
            sock.sendall(request)
        except ConnectionError:
            pass  # the server answered and closed before reading it all
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        stream = sock.makefile("rb")
        statuses = []
        for _ in range(answers):
            statuses.append(_read_answer(stream))
            if statuses[-1] in (_NO_STATUS_LINE, "no answer"):
                return statuses, "closed"
        if half_close:
            return statuses, "closed" if _read_answer(stream) == "no answer" else "open"
        try:
            sock.sendall(_PROBE)
            probe = _read_answer(stream)
        except ConnectionError:
            return statuses, "closed"
        if probe == "no answer":
            return statuses, "closed"
        return statuses, "open" if probe == "200" else f"open, follow-up answered {probe}"


@pytest.mark.parametrize("case", list(_CASES))
def test_edge_case_transcript(port, case):
    request, expected = _CASES[case]
    assert _transcript(port, request, len(expected[0])) == expected


def test_body_shorter_than_its_content_length_then_a_half_close(port):
    # The body read stops at the end of the stream, short of its length: the
    # request is incomplete, so it is refused, even though the part that
    # arrived is valid JSON.
    request = _raw(_PREDICT, "Host: t", f"Content-Length: {len(_BODY) + 10}", body=_BODY)
    assert _transcript(port, request, 1, half_close=True) == (["400"], "closed")
