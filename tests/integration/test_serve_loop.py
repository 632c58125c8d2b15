"""Integration test: one selector loop serves every connection.

``create_server``'s server runs every connection on the thread that calls
``serve_forever``.  These tests pin what that must not cost: a connection
that is idle, half-sent, pipelining without reading or failing holds no
thread and delays no other client; a head that trickles in is parsed at
most once a line; a limit applies as soon as the bytes that break it
arrive; ``100 Continue`` is written once, before the body;
idle and half-sent connections close after ``_IDLE_TIMEOUT_S``; at the
descriptor limit the loop waits for a close instead of spinning; and a
drain (``shutdown()`` or SIGTERM) refuses new connections, answers a
request still arriving, closes the idle and ends within ``_DRAIN_GRACE_S``.
"""

import contextlib
import errno
import http.client
import json
import logging
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from http.client import _MAXLINE
from pathlib import Path

import pytest

import repro
from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.encoders import RecordEncoder
from repro.io import save_model
from repro.serve import ModelRegistry, PackedInferenceEngine, ServeApp, create_server
from repro.serve import server as server_module
from repro.serve.server import RequestError, _content_length, _Handler

_HEALTHZ = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"


@pytest.fixture(scope="module")
def pipeline(small_problem):
    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=0)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=0))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    return pipeline


@pytest.fixture(scope="module")
def engine(pipeline):
    return PackedInferenceEngine(pipeline, name="har")


@pytest.fixture(scope="module")
def model_file(pipeline, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-loop") / "har.npz"
    return save_model(path, pipeline, strategy_name="baseline")


@pytest.fixture(scope="module")
def rows(small_problem):
    return small_problem["test_features"]


def _start(engine, log_level=None):
    """A server for *engine* and the thread its loop runs on."""
    registry = ModelRegistry()
    registry.register("har", engine)
    server = create_server(ServeApp(registry), port=0, log_level=log_level)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


@contextlib.contextmanager
def _serving(engine, log_level=None):
    """A live server for *engine*, its loop on a thread of its own."""
    server, _ = _start(engine, log_level)
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        logging.getLogger("repro.serve.access").handlers.clear()


@pytest.fixture()
def server(engine):
    with _serving(engine) as server:
        yield server


def _port(server):
    return server.server_address[1]


def _predict(row, top_k=1, fields=()):
    """A predict's head and body, as bytes."""
    body = json.dumps({"features": row.tolist(), "top_k": top_k}).encode("utf-8")
    lines = ["POST /v1/predict HTTP/1.1", f"Content-Length: {len(body)}", *fields, ""]
    return "".join(f"{line}\r\n" for line in lines).encode("latin-1"), body


class _Client:
    """A raw connection, and a buffered reader of its answers."""

    def __init__(self, port, timeout=10.0, receive_buffer=None):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if receive_buffer is not None:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, receive_buffer)
        self.sock.settimeout(timeout)
        self.sock.connect(("127.0.0.1", port))
        self.stream = self.sock.makefile("rb")

    def send(self, data):
        self.sock.sendall(data)

    def answer(self):
        """``(status, body)`` of the next answer; ``None`` at the end of the
        stream."""
        line = self.stream.readline()
        if not line:
            return None
        length = 0
        while (field := self.stream.readline()) not in (b"\r\n", b""):
            name, _, value = field.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        return int(line.split()[1]), self.stream.read(length)

    def rest(self):
        """Every byte up to the end of the stream (a reset ends it too)."""
        try:
            return self.stream.read()
        except ConnectionResetError:
            return b"<reset>"

    def close(self):
        self.stream.close()
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _served_predict(port, row, timeout=10.0):
    """One predict on a fresh ``http.client`` connection: its status."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("POST", "/v1/predict", body=json.dumps({"features": row.tolist()}))
        response = connection.getresponse()
        response.read()
        return response.status
    finally:
        connection.close()


def _server_side(server, client, timeout=5.0):
    """The loop's connection for *client*, once it has been accepted."""
    port = client.sock.getsockname()[1]
    deadline = time.monotonic() + timeout
    while True:
        for connection in list(server._connections.values()):
            if connection.address[1] == port:
                return connection
        assert time.monotonic() < deadline, "the connection was never accepted"
        time.sleep(0.01)


@contextlib.contextmanager
def _repro_serve(model_file, prelude=""):
    """A ``repro serve`` process for *model_file* on a free port, and that
    port; *prelude* is Python the process runs before the CLI."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = prelude + "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))"
    process = subprocess.Popen(
        [sys.executable, "-u", "-c", code, "serve", "--model", f"har={model_file}", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=dict(os.environ, PYTHONPATH=src),
    )
    try:
        for line in process.stdout:
            if match := re.search(rb"listening on http://[\d.]+:(\d+)", line):
                break
        else:
            raise AssertionError("repro serve exited before it listened")
        yield process, int(match.group(1))
    finally:
        if process.poll() is None:
            process.kill()
        process.communicate(timeout=30)


def _fail_the_next_accept(server, monkeypatch, name):
    """Make the listener's next ``accept`` raise ``OSError`` *name* (an
    ``errno`` name); the list returned holds *name* once it has."""
    accept = socket.socket.accept
    failed = []

    def accept_or_fail(sock):
        if sock is server.socket and not failed:
            failed.append(name)
            raise OSError(getattr(errno, name), name)
        return accept(sock)

    monkeypatch.setattr(socket.socket, "accept", accept_or_fail)
    return failed


def _cpu_seconds(pid):
    """The user and system CPU seconds process *pid* has used."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _expected_labels(engine, row, top_k):
    return engine.top_k(row[None, :], k=top_k)[0].tolist()


def _labels(body):
    answer = json.loads(body)
    return answer.get("top_k_labels", [answer["labels"]])


class TestIsolation:
    def test_idle_connections_hold_no_thread(self, server):
        before = threading.active_count()
        clients = []
        try:
            for _ in range(100):
                clients.append(_Client(_port(server)))
            # One answer on each: every connection has been accepted.
            for client in clients:
                client.send(_HEALTHZ)
            assert [client.answer()[0] for client in clients] == [200] * 100
            assert threading.active_count() == before
        finally:
            for client in clients:
                client.close()

    def test_a_client_that_pipelines_and_never_reads_delays_no_other(
        self, server, engine, rows
    ):
        requests = [(rows[index % len(rows)], 1 + index % 3) for index in range(200)]
        with _Client(_port(server)) as hog:
            hog.send(b"".join(b"".join(_predict(row, top_k)) for row, top_k in requests))
            connection = http.client.HTTPConnection("127.0.0.1", _port(server), timeout=10)
            try:
                for row in rows[:50]:
                    started = time.monotonic()
                    connection.request(
                        "POST", "/v1/predict", body=json.dumps({"features": row.tolist()})
                    )
                    response = connection.getresponse()
                    response.read()
                    assert response.status == 200
                    assert time.monotonic() - started < 1.0
            finally:
                connection.close()
            answers = [hog.answer() for _ in requests]
        assert [status for status, _ in answers] == [200] * len(requests)
        assert [_labels(body) for _, body in answers] == [
            _expected_labels(engine, row, top_k) for row, top_k in requests
        ]

    def test_unsent_answers_over_the_bound_stop_the_reads(self, server, rows):
        # A client pipelines requests for ~11 MB of answers and reads none
        # through a small receive window.  Once the kernel holds what it
        # will, the loop keeps at most the bound and one answer unsent,
        # answers no more of its requests, serves other clients meanwhile,
        # and answers the rest, in order, once the client reads.
        assert _served_predict(_port(server), rows[0]) == 200  # /metrics: ~7 KB
        requests = ([b"GET /metrics HTTP/1.1\r\n\r\n"] * 9 + [_HEALTHZ]) * 150
        with _Client(_port(server), receive_buffer=4096) as hog:
            hog.send(b"".join(requests))
            connection = _server_side(server, hog)
            deadline = time.monotonic() + 10
            while True:
                held = len(connection.received), len(connection.unsent)
                time.sleep(0.2)
                stalled = held == (len(connection.received), len(connection.unsent))
                if stalled and held[1] > server_module._MAX_UNSENT:
                    break
                assert time.monotonic() < deadline, held
            assert held[0] > 0, "every request was answered: the bound never held"
            assert held[1] < server_module._MAX_UNSENT + 8192
            assert _served_predict(_port(server), rows[1], timeout=1.0) == 200
            answers = [hog.answer() for _ in requests]
        assert [status for status, _ in answers] == [200] * len(requests)
        assert [
            index for index, (_, body) in enumerate(answers) if body.startswith(b"{")
        ] == list(range(9, len(requests), 10))

    def test_a_half_sent_request_delays_no_other(self, server, rows):
        head, body = _predict(rows[0])
        with _Client(_port(server)) as slow:
            slow.send(head)
            assert _served_predict(_port(server), rows[1], timeout=1.0) == 200
            slow.send(body)
            assert slow.answer()[0] == 200

    def test_a_head_that_trickles_in_is_parsed_once_per_line(
        self, server, engine, rows, monkeypatch
    ):
        # A 200 KB head, then one field line a byte a segment: the loop
        # parses the head again when a line ends, not for each segment, and
        # answers other clients meanwhile.
        read_request = _Handler._read_request
        parses = []

        def counted(handler):
            parses.append(handler.client_address[1])
            return read_request(handler)

        monkeypatch.setattr(_Handler, "_read_request", counted)
        body = json.dumps({"features": rows[0].tolist()}).encode("utf-8")
        lines = [b"POST /v1/predict HTTP/1.1", b"Content-Length: %d" % len(body)]
        lines += [b"X-Pad-%d: %s" % (index, b"a" * 4096) for index in range(50)]
        head = b"".join(line + b"\r\n" for line in lines) + b"X-Trickle: "
        with _Client(_port(server)) as slow:
            slow.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            slow.send(head)
            for index in range(300):
                slow.send(b"a")
                time.sleep(0.002)
                if index % 50 == 0:
                    started = time.monotonic()
                    assert _served_predict(_port(server), rows[1], timeout=1.0) == 200
                    assert time.monotonic() - started < 1.0
            # Each byte is searched for a newline once: the next search
            # starts where the last one ended.
            connection, sent = _server_side(server, slow), len(head) + 300
            deadline = time.monotonic() + 5
            while (connection.scan, len(connection.received)) != (sent, sent):
                assert time.monotonic() < deadline, (connection.scan, sent)
                time.sleep(0.01)
            slow.send(b"\r\n\r\n" + body)
            status, answer = slow.answer()
            ours = parses.count(slow.sock.getsockname()[1])
        assert status == 200
        assert _labels(answer) == _expected_labels(engine, rows[0], 1)
        # One parse per line at most: the 52 sent, the trickled one, the
        # blank one, and one for the body.
        assert ours <= len(lines) + 3, ours

    def test_an_exception_closes_only_its_connection(self, server, rows, monkeypatch, capfd):
        read_request = _Handler._read_request
        with _Client(_port(server)) as failing:
            failing_port = failing.sock.getsockname()[1]

            def read_or_fail(handler):
                if handler.client_address[1] == failing_port:
                    raise RuntimeError("reading this request failed")
                return read_request(handler)

            monkeypatch.setattr(_Handler, "_read_request", read_or_fail)
            capfd.readouterr()
            failing.send(_HEALTHZ)
            assert failing.rest() == b""
            assert _served_predict(_port(server), rows[0]) == 200
        err = capfd.readouterr().err
        assert "Exception occurred during processing of request from" in err
        assert "RuntimeError: reading this request failed" in err


class TestIncrementalParse:
    def test_requests_split_at_every_point_are_answered_in_order(self, server, engine, rows):
        requests = [(rows[index], 1 + index % 3) for index in range(3)]
        data = b"".join(b"".join(_predict(row, top_k)) for row, top_k in requests)
        chunks = random.Random(0)
        with _Client(_port(server)) as client:
            start = 0
            while start < len(data):
                end = start + chunks.randint(1, 40)
                client.send(data[start:end])
                start = end
                time.sleep(0.001)
            answers = [client.answer() for _ in requests]
        assert [status for status, _ in answers] == [200] * 3
        assert [_labels(body) for _, body in answers] == [
            _expected_labels(engine, row, top_k) for row, top_k in requests
        ]

    @pytest.mark.parametrize(
        "request_bytes, answer",
        [
            (b"GET /" + b"a" * 70_000, b"HTTP/1.1 414 "),
            (b"GET /v1/healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000, b"HTTP/1.1 431 "),
            (b"GET /v1/healthz HTTP/1.1\r\n" + b"X-Field: value\r\n" * 101, b"HTTP/1.1 431 "),
            (
                b"POST /v1/predict HTTP/1.1\r\nContent-Length: 67108865\r\n\r\n",
                b"HTTP/1.1 413 ",
            ),
            (b"GARBAGE\r\n", b"<!DOCTYPE HTML>"),
            (b"GET /v1/healthz HTTP/x.y\r\n", b"<!DOCTYPE HTML>"),
            (b"GET /v1/healthz HTTP/2.0\r\n", b"<!DOCTYPE HTML>"),
            (b"POST /v1/predict\r\n", b"<!DOCTYPE HTML>"),
        ],
        ids=[
            "request-line-over-64-kib",
            "header-line-over-64-kib",
            "101st-header-line",
            "body-over-the-cap",
            "garbage-request-line",
            "bad-version",
            "http-2.0",
            "version-less-post",
        ],
    )
    def test_a_limit_answers_as_soon_as_its_bytes_arrive(
        self, server, request_bytes, answer
    ):
        # The request never completes: its answer and the close must not
        # wait for a newline, a blank line or a body that is not coming.
        with _Client(_port(server), timeout=1.0) as client:
            client.send(request_bytes)
            assert client.rest().startswith(answer)

    @pytest.mark.parametrize(
        "head, line, answer",
        [
            (b"", b"GET /", b"HTTP/1.1 414 "),
            (b"GET /v1/healthz HTTP/1.1\r\n", b"X-Long: ", b"HTTP/1.1 431 "),
        ],
        ids=["request-line", "field-line"],
    )
    def test_a_line_is_refused_at_its_first_byte_over_the_limit(
        self, server, head, line, answer
    ):
        # A line of _MAXLINE bytes without a newline may still end; the
        # next byte makes it too long, and its answer leaves at once.
        with _Client(_port(server), timeout=1.0) as client:
            client.send(head + line + b"a" * (_MAXLINE - len(line)))
            client.sock.settimeout(0.2)
            with pytest.raises(socket.timeout):
                client.sock.recv(1)
            client.sock.settimeout(1.0)
            client.send(b"a")
            assert client.rest().startswith(answer)

    @pytest.mark.parametrize(
        "request_bytes, answer",
        [
            (b"GET /v1/healthz HTTP/1.1", b"HTTP/1.1 200 "),
            (b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n", b"HTTP/1.1 200 "),
            (b"POST /v1/predict HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}", b"HTTP/1.1 400 "),
        ],
        ids=["request-line-without-newline", "head-without-blank-line", "short-body"],
    )
    def test_the_end_of_the_stream_ends_what_was_cut_off(
        self, server, request_bytes, answer
    ):
        # As a socket file reads at the end of the stream: the request is
        # what arrived (the stdlib answered these the same way).
        with _Client(_port(server), timeout=1.0) as client:
            client.send(request_bytes)
            client.sock.shutdown(socket.SHUT_WR)
            assert client.rest().startswith(answer)

    def test_100_continue_is_written_once_before_the_body(self, server, engine, rows):
        head, body = _predict(rows[0], fields=["Expect: 100-continue"])
        with _Client(_port(server), timeout=1.0) as client:
            client.send(head)
            assert client.stream.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert client.stream.readline() == b"\r\n"
            # The body in two parts: the head is parsed again once it is
            # whole, and must not answer 100 again.
            client.send(body[:10])
            time.sleep(0.05)
            client.send(body[10:])
            status, answer = client.answer()
            assert status == 200
            assert _labels(answer) == _expected_labels(engine, rows[0], 1)
            client.send(_HEALTHZ)
            assert client.answer()[0] == 200

    @pytest.mark.parametrize(
        "value, length", [("134", 134), ("0134", 134), (" 134\t", 134), ("\r\n  134", 134)]
    )
    def test_content_length_is_ascii_digits_between_blanks(self, value, length):
        assert _content_length(value) == length

    @pytest.mark.parametrize(
        "value", ["+134", "-134", "1_34", "13 4", "0x86", "1e3", "١٣٤", "²", ""]
    )
    def test_any_other_content_length_is_refused(self, value):
        with pytest.raises(RequestError) as refused:
            _content_length(value)
        assert refused.value.status == 400
        assert str(refused.value) == "Content-Length must be an integer"


@pytest.fixture()
def quick_timeout(monkeypatch):
    monkeypatch.setattr(server_module, "_IDLE_TIMEOUT_S", 0.2)


class TestIdleTimeout:
    def test_an_idle_keep_alive_connection_is_closed(self, engine, quick_timeout, caplog):
        with caplog.at_level(logging.INFO, logger="repro.serve.access"):
            with _serving(engine, log_level="info") as server, _Client(_port(server)) as client:
                client.send(_HEALTHZ)
                assert client.answer()[0] == 200
                started = time.monotonic()
                assert client.rest() == b""
                assert 0.1 < time.monotonic() - started < 2.0
        lines = [record.getMessage() for record in caplog.records]
        assert len([line for line in lines if "timed out" in line]) == 1, lines

    def test_a_half_sent_request_is_closed_without_an_answer(self, engine, quick_timeout):
        with _serving(engine) as server, _Client(_port(server)) as client:
            client.send(b"POST /v1/predict HTTP/1.1\r\nHost: t\r\n")
            started = time.monotonic()
            assert client.rest() == b""
            assert time.monotonic() - started < 2.0

    def test_a_client_that_pauses_less_than_the_timeout_stays_open(
        self, engine, rows, quick_timeout
    ):
        with _serving(engine) as server:
            connection = http.client.HTTPConnection("127.0.0.1", _port(server), timeout=10)
            connection.connect()
            sock = connection.sock
            answered = 0
            try:
                deadline = time.monotonic() + 1.0
                while time.monotonic() < deadline:
                    connection.request(
                        "POST", "/v1/predict", body=json.dumps({"features": rows[0].tolist()})
                    )
                    response = connection.getresponse()
                    response.read()
                    assert response.status == 200
                    assert connection.sock is sock, "the server closed the connection"
                    answered += 1
                    time.sleep(0.05)
            finally:
                connection.close()
        assert answered >= 10


class TestLifecycle:
    def test_shutdown_and_close_end_every_idle_connection(self, engine):
        server, thread = _start(engine)
        clients = [_Client(_port(server), timeout=5.0) for _ in range(3)]
        try:
            for client in clients:
                client.send(_HEALTHZ)
                assert client.answer()[0] == 200
            started = time.monotonic()
            server.shutdown()
            assert time.monotonic() - started < 1.0
            thread.join(timeout=1.0)
            assert not thread.is_alive()
            server.server_close()
            assert [client.rest() for client in clients] == [b""] * 3
        finally:
            for client in clients:
                client.close()

    def test_shutdown_with_no_connection_open_returns_at_once(self, engine):
        server, thread = _start(engine)
        try:
            started = time.monotonic()
            server.shutdown()
            assert time.monotonic() - started < 1.0
            thread.join(timeout=1.0)
            assert not thread.is_alive()
        finally:
            server.server_close()

    def test_a_request_never_finished_holds_shutdown_only_for_the_grace(
        self, engine, rows, monkeypatch
    ):
        monkeypatch.setattr(server_module, "_DRAIN_GRACE_S", 0.3)
        head, body = _predict(rows[0])
        server, thread = _start(engine)
        with _Client(_port(server)) as client:
            try:
                client.send(head + body[:10])
                _server_side(server, client)
                started = time.monotonic()
                server.shutdown()
                assert 0.3 <= time.monotonic() - started < 2.0
                thread.join(timeout=1.0)
                assert not thread.is_alive()
            finally:
                server.server_close()
            assert client.rest() == b""

    @pytest.mark.parametrize(
        "request_, status, field, value",
        [
            pytest.param("healthz", 200, "status", "ok", id="healthz"),
            pytest.param("predict", 503, "code", "draining", id="predict"),
        ],
    )
    def test_a_connection_in_the_accept_backlog_is_answered_at_the_drain(
        self, engine, rows, monkeypatch, request_, status, field, value
    ):
        entered, release = threading.Event(), threading.Event()

        class Held:
            def top_k(self, features, k):
                entered.set()
                release.wait(timeout=30)
                return engine.top_k(features, k=k)

        head, body = _predict(rows[0])
        server, thread = _start(engine)
        monkeypatch.setattr(server.app, "engine_for", lambda name: Held())
        stopping = threading.Thread(target=server.shutdown)
        try:
            with _Client(_port(server)) as held:
                held.send(head + body)
                assert entered.wait(timeout=10)
                # The loop is inside the engine, so this connection waits in
                # the accept backlog, its request sent, until the drain.
                with _Client(_port(server)) as waiting:
                    waiting.send(_HEALTHZ if request_ == "healthz" else head + body)
                    stopping.start()
                    deadline = time.monotonic() + 5
                    while not server._stop:
                        assert time.monotonic() < deadline, "shutdown() never asked to stop"
                        time.sleep(0.01)
                    release.set()
                    assert held.answer()[0] == 200
                    answered, payload = waiting.answer()
                    assert (answered, json.loads(payload)[field]) == (status, value)
                    assert waiting.rest() == b""
                stopping.join(timeout=5)
                assert not stopping.is_alive()
                thread.join(timeout=1.0)
                assert not thread.is_alive()
        finally:
            release.set()
            server.server_close()

    def test_sigterm_answers_a_predict_still_arriving_and_closes_the_idle(
        self, model_file, rows
    ):
        head, body = _predict(rows[0])
        with _repro_serve(model_file) as (process, port):
            with _Client(port) as idle, _Client(port) as arriving:
                for client in (idle, arriving):
                    client.send(_HEALTHZ)
                    assert client.answer()[0] == 200
                arriving.send(head + body[: len(body) // 2])
                process.send_signal(signal.SIGTERM)
                signalled = time.monotonic()
                assert idle.rest() == b""
                with pytest.raises(ConnectionRefusedError):
                    socket.create_connection(("127.0.0.1", port), timeout=5).close()
                arriving.send(body[len(body) // 2 :])
                answer = arriving.rest()
            output, _ = process.communicate(timeout=30)
            exited = time.monotonic() - signalled
        fields, _, payload = answer.partition(b"\r\n\r\n")
        status, *fields = fields.decode("latin-1").split("\r\n")
        fields = dict(field.split(": ", 1) for field in fields)
        assert status == "HTTP/1.1 503 Service Unavailable", answer
        assert (fields["Retry-After"], fields["Connection"]) == ("1", "close")
        assert len(payload) == int(fields["Content-Length"])
        assert json.loads(payload)["code"] == "draining"
        assert process.returncode == 0, output
        assert exited < server_module._DRAIN_GRACE_S


class TestDescriptorLimit:
    def test_at_the_limit_the_loop_waits_for_a_close_without_spinning(self, model_file):
        # The limit is the process's own: a child lowers it for itself.
        limit = 48
        prelude = f"import resource; resource.setrlimit(resource.RLIMIT_NOFILE, ({limit}, {limit})); "
        with _repro_serve(model_file, prelude) as (process, port):
            descriptors = f"/proc/{process.pid}/fd"
            held = limit - len(os.listdir(descriptors))  # the connections it can hold
            clients = []
            try:
                for _ in range(60):
                    clients.append(_Client(port))
                deadline = time.monotonic() + 10
                while len(os.listdir(descriptors)) < limit:
                    assert time.monotonic() < deadline, "the server never reached its limit"
                    time.sleep(0.01)
                # The first connection left in the backlog asks, and waits.
                waiting = clients[held]
                waiting.send(_HEALTHZ)
                used = _cpu_seconds(process.pid)
                time.sleep(1.0)
                assert _cpu_seconds(process.pid) - used < 0.1
                waiting.sock.setblocking(False)
                with pytest.raises(BlockingIOError):
                    waiting.sock.recv(1)
                waiting.sock.settimeout(10.0)
                for client in clients[:20]:
                    client.close()
                assert waiting.answer()[0] == 200
            finally:
                for client in clients:
                    client.close()
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=30)
        assert process.returncode == 0, output

    @pytest.mark.parametrize("name", ["EMFILE", "ENFILE", "ENOBUFS", "ENOMEM"])
    def test_out_of_descriptors_the_listener_waits_for_a_close(
        self, server, monkeypatch, name
    ):
        with _Client(_port(server)) as open_:
            open_.send(_HEALTHZ)
            assert open_.answer()[0] == 200
            failed = _fail_the_next_accept(server, monkeypatch, name)
            with _Client(_port(server)) as next_:
                next_.send(_HEALTHZ)
                time.sleep(0.2)
                # One failed accept, then the listener is not selected: not
                # even the accept that would now succeed is tried.
                assert failed == [name]
                next_.sock.setblocking(False)
                with pytest.raises(BlockingIOError):
                    next_.sock.recv(1)
                next_.sock.settimeout(10.0)
                open_.close()
                assert next_.answer()[0] == 200

    def test_a_drain_at_the_descriptor_limit_closes_what_is_open(self, engine, monkeypatch):
        server, thread = _start(engine)
        with _Client(_port(server)) as open_, contextlib.ExitStack() as stack:
            try:
                open_.send(_HEALTHZ)
                assert open_.answer()[0] == 200
                failed = _fail_the_next_accept(server, monkeypatch, "EMFILE")
                stack.enter_context(_Client(_port(server)))
                deadline = time.monotonic() + 5
                while not failed:
                    assert time.monotonic() < deadline, "the loop never tried to accept"
                    time.sleep(0.01)
                started = time.monotonic()
                server.shutdown()
                assert time.monotonic() - started < 1.0
                thread.join(timeout=1.0)
                assert not thread.is_alive()
                assert open_.rest() == b""
            finally:
                server.server_close()

    def test_a_drain_at_the_descriptor_limit_leaves_the_backlog_alone(
        self, engine, monkeypatch
    ):
        # At the limit every accept fails until a descriptor frees, so the
        # drain does not try the backlog of a paused listener.
        server, thread = _start(engine)
        accept, tried = socket.socket.accept, []

        def out_of_descriptors(sock):
            if sock is server.socket:
                tried.append(sock)
                raise OSError(errno.EMFILE, "EMFILE")
            return accept(sock)

        with _Client(_port(server), timeout=2.0) as open_, contextlib.ExitStack() as stack:
            try:
                open_.send(_HEALTHZ)
                assert open_.answer()[0] == 200
                monkeypatch.setattr(socket.socket, "accept", out_of_descriptors)
                stack.enter_context(_Client(_port(server)))
                deadline = time.monotonic() + 5
                while not tried:
                    assert time.monotonic() < deadline, "the loop never tried to accept"
                    time.sleep(0.01)
                server.shutdown()
                thread.join(timeout=1.0)
                assert not thread.is_alive()
                assert len(tried) == 1
                assert open_.rest() == b""
            finally:
                server.server_close()

    def test_a_drain_whose_accept_runs_out_of_descriptors_closes_what_is_open(
        self, engine, monkeypatch
    ):
        # The drain's own accept of the backlog can pause the listener, which
        # unregisters it: the drain must not unregister it a second time.
        server, thread = _start(engine)
        with _Client(_port(server), timeout=2.0) as open_:
            try:
                open_.send(_HEALTHZ)
                assert open_.answer()[0] == 200
                failed = _fail_the_next_accept(server, monkeypatch, "EMFILE")
                started = time.monotonic()
                server.shutdown()
                assert time.monotonic() - started < 1.0
                thread.join(timeout=1.0)
                assert not thread.is_alive()
                assert failed == ["EMFILE"]
                assert open_.rest() == b""
            finally:
                server.server_close()

    @pytest.mark.parametrize("name", ["ECONNABORTED", "EPROTO"])
    def test_a_failed_connection_leaves_the_listener_selected(
        self, server, monkeypatch, name
    ):
        # No connection is open: a listener left unselected would never
        # accept again.
        failed = _fail_the_next_accept(server, monkeypatch, name)
        with _Client(_port(server)) as client:
            client.send(_HEALTHZ)
            assert client.answer()[0] == 200
        assert failed == [name]
