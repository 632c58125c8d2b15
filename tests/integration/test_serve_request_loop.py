"""Integration test: the server's own request loop.

``_Handler`` reads the request line and header fields itself and answers a
routed request in one write.  These tests pin what that loop keeps of a
request (``test_serve_http_edges.py`` pins its answers to malformed ones),
that every routed answer is one write carrying the stdlib's ``Server`` and
``Date`` fields, and that the stdlib's ``parse_request`` and its email-based
``http.client.parse_headers`` are never reached.
"""

import email.utils
import http.client
import io
import json
import socket
import threading
import types

import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.encoders import RecordEncoder
from repro.serve import ModelRegistry, PackedInferenceEngine, ServeApp, create_server
from repro.serve.server import _Handler
from repro.serve.tenancy import TenantQuotas


class _Writes(io.BytesIO):
    """A write stream that keeps each write apart."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return super().write(data)


def _handler(request: bytes) -> _Handler:
    """A handler reading *request* from memory, as its connection would."""
    handler = _Handler.__new__(_Handler)
    handler.rfile = io.BytesIO(request)
    handler.wfile = _Writes()
    handler.server = types.SimpleNamespace(access_logger=None)
    handler.client_address = ("127.0.0.1", 0)
    return handler


def _read(*lines: str) -> _Handler:
    handler = _handler("".join(f"{line}\r\n" for line in (*lines, "")).encode("latin-1"))
    assert handler._read_request()
    return handler


class TestReadRequest:
    def test_keeps_the_request_line_and_the_fields_the_routes_read(self):
        handler = _read(
            "POST //v1/predict HTTP/1.1",
            "Host: t",
            "Content-Type: application/json",
            "Content-Length: 12",
            "Connection: keep-alive",
        )
        assert (handler.command, handler.path, handler.request_version) == (
            "POST",
            "/v1/predict",
            "HTTP/1.1",
        )
        assert handler.requestline == "POST //v1/predict HTTP/1.1"
        assert handler.headers == {"content-length": "12", "connection": "keep-alive"}
        assert handler.close_connection is False

    def test_names_match_in_any_case_and_the_first_value_wins(self):
        handler = _read(
            "POST / HTTP/1.1", "CONTENT-length: 12", "Content-Length: 99", "connection: Close"
        )
        assert handler.headers == {"content-length": "12", "connection": "Close"}
        assert handler.close_connection is True

    def test_a_folded_value_keeps_its_continuation_lines(self):
        handler = _read("POST / HTTP/1.1", "Content-Length:", "  12", "X-Note: a", " b")
        # As email.message.Message.get reads it; int() strips the blanks.
        assert handler.headers == {"content-length": "\r\n  12"}
        assert int(handler.headers["content-length"]) == 12

    @pytest.mark.parametrize(
        "line", ["no colon here", "Content Length: 5", "Bad\x7fName: 5"]
    )
    def test_a_line_that_is_not_a_field_ends_the_fields(self, line):
        handler = _read("POST / HTTP/1.1", "Expect: 100-continue", line, "Content-Length: 12")
        assert handler.headers == {"expect": "100-continue"}

    @pytest.mark.parametrize("line", [": no name", "From sender@example.org"])
    def test_a_nameless_or_envelope_line_is_skipped_with_its_continuation(self, line):
        handler = _read("POST / HTTP/1.1", line, " Content-Length: 99", "Content-Length: 12")
        assert handler.headers == {"content-length": "12"}

    @pytest.mark.parametrize(
        "version, close",
        [("HTTP/1.1", False), ("HTTP/1.0", True), ("HTTP/01.01", False), ("HTTP/1.9", False)],
    )
    def test_versions_below_1_1_close_the_connection(self, version, close):
        handler = _read(f"GET /v1/healthz {version}", "Host: t")
        assert handler.request_version == version
        assert handler.close_connection is close

    def test_an_end_of_stream_is_no_request(self):
        handler = _handler(b"")
        assert not handler._read_request()
        assert handler.close_connection is True
        assert handler.wfile.writes == []


class TestSendBody:
    def test_an_answer_is_one_write_with_the_stdlib_fields(self):
        handler = _read("GET /v1/healthz HTTP/1.1", "Host: t")
        handler._send_json(429, {"error": "slow down"}, retry_after=2)
        (write,) = handler.wfile.writes
        head, _, body = write.partition(b"\r\n\r\n")
        status, *fields = head.decode("latin-1").split("\r\n")
        assert status == "HTTP/1.1 429 Too Many Requests"
        fields = dict(field.split(": ", 1) for field in fields)
        assert fields["Server"] == handler.version_string()
        assert email.utils.parsedate_to_datetime(fields["Date"]).tzname() == "UTC"
        assert fields["Date"].endswith(" GMT")
        assert fields["Content-Type"] == "application/json"
        assert int(fields["Content-Length"]) == len(body)
        assert (fields["Retry-After"], fields["Connection"]) == ("2", "close")
        assert list(fields) == [
            "Server", "Date", "Content-Type", "Content-Length", "Retry-After", "Connection"
        ]
        assert json.loads(body) == {"error": "slow down"}
        assert handler.close_connection is True

    def test_a_success_keeps_the_connection_and_sends_no_connection_field(self):
        handler = _read("GET /v1/healthz HTTP/1.1", "Host: t")
        handler._send_json(200, {"status": "ok"})
        (write,) = handler.wfile.writes
        assert write.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection:" not in write
        assert handler.close_connection is False

    def test_an_http_0_9_answer_is_the_body_alone(self):
        handler = _read("GET /v1/healthz")
        handler._send_json(200, {"status": "ok"})
        assert handler.wfile.writes == [b'{"status": "ok"}']


@pytest.fixture(scope="module")
def served(small_problem):
    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=0)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=0))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    registry = ModelRegistry()
    for name in ("har", "limited"):
        registry.register(name, PackedInferenceEngine(pipeline, name=name))
    quotas = TenantQuotas(tenants={"limited": {"rps": 0.001, "burst": 1}})
    app = ServeApp(registry, tenant_quotas=quotas)
    server = create_server(app, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1], small_problem["test_features"][0].tolist()
    server.shutdown()
    server.server_close()


@pytest.fixture()
def writes(monkeypatch):
    """The size of every ``send`` the server makes to a connection, from now
    on (the client here sends with ``sendall``, on this thread)."""
    writes = []
    send = socket.socket.send
    client = threading.current_thread()

    def counted(self, data, *flags):
        if threading.current_thread() is not client:
            writes.append(len(data))
        return send(self, data, *flags)

    monkeypatch.setattr(socket.socket, "send", counted)
    return writes


def _record_server_calls(monkeypatch, owner, name, calls):
    """Wrap *owner.name* to record its calls from threads other than this one
    (the client here reads its answers with ``http.client`` too)."""
    original = getattr(owner, name)
    client = threading.current_thread()

    def recorded(*args, **kwargs):
        if threading.current_thread() is not client:
            calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)


class TestLiveLoop:
    def test_every_routed_answer_is_one_write(self, served, writes):
        port, row = served
        requests = [
            ("POST", "/v1/predict", {"model": "har", "features": row}, 200),
            ("POST", "/v1/predict", {"model": "har", "features": [row, row]}, 200),
            ("POST", "/v1/predict", {"model": "limited", "features": row}, 200),
            ("POST", "/v1/predict", {"model": "limited", "features": row}, 429),
            ("POST", "/v1/predict", {"model": "har"}, 400),
            ("POST", "/v1/nowhere", {}, 404),
            ("GET", "/v1/healthz", None, 200),
            ("GET", "/v1/models", None, 200),
            ("GET", "/metrics", None, 200),
            ("GET", "/v1/nowhere", None, 404),
        ]
        for method, route, payload, status in requests:
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                body = None if payload is None else json.dumps(payload)
                connection.request(method, route, body=body)
                response = connection.getresponse()
                data = response.read()
            finally:
                connection.close()
            assert response.status == status, (route, data)
            assert len(writes) == 1, (route, writes)
            assert writes.pop() > len(data)

    def test_the_stdlib_request_parser_is_never_reached(self, served, monkeypatch):
        port, row = served
        calls = []
        _record_server_calls(monkeypatch, _Handler, "parse_request", calls)
        _record_server_calls(monkeypatch, http.client, "parse_headers", calls)
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            for _ in range(3):
                connection.request(
                    "POST", "/v1/predict", body=json.dumps({"model": "har", "features": row})
                )
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            connection.request("GET", "/v1/healthz")
            response = connection.getresponse()
            response.read()
            assert response.status == 200
            assert not response.will_close
        finally:
            connection.close()
        assert calls == []
