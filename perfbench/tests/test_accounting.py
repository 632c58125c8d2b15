import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from ledger.client import KeepAliveClient, Record, RowFeed, run_closed_loop, tally


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers by the first feature: 0 right label, 1 wrong label, 2 a 429,
    3 a connection dropped without a response."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def do_POST(self):  # noqa: N802 - stdlib naming
        body = self.rfile.read(int(self.headers["Content-Length"]))
        action = int(json.loads(body)["features"][0])
        if action == 3:
            self.close_connection = True
            return
        if action == 2:
            self._reply(429, {"error": "overloaded"}, close=True)
        else:
            self._reply(200, {"labels": [1 if action == 0 else 2]})

    def _reply(self, status, payload, close=False):
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(data)))
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture
def scripted_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_wrong_label_429_and_dropped_connection_each_count_once(scripted_server):
    host, port = scripted_server
    rows = np.zeros((6, 4))
    rows[:, 0] = [0, 1, 2, 0, 3, 0]
    client = KeepAliveClient(host, port, timeout=10)
    try:
        records = run_closed_loop(client, RowFeed(rows))
    finally:
        client.close()
    counts = tally(records, {index: 1 for index in range(len(rows))})
    assert counts.attempted == 6
    assert counts.failed == 3
    assert dict(counts.reasons) == {"wrong_label": 1, "http_429": 1, "dropped": 1}
    # One connection, a new one after the 429's close and after the drop.
    assert client.connects == 3


def test_row_feed_hands_out_each_row_once_across_threads():
    feed = RowFeed(np.zeros((1000, 2)))
    taken = []

    def take_all():
        while (index := feed.take()) is not None:
            taken.append(index)

    threads = [threading.Thread(target=take_all) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert sorted(taken) == list(range(1000))


def test_a_timeout_counts_once_and_a_missing_reference_is_a_failure():
    records = [Record(0, 0, 1, None, None, "timeout"), Record(1, 0, 1, 200, 4)]
    counts = tally(records, {0: 4})
    assert (counts.attempted, counts.failed) == (2, 2)
    assert dict(counts.reasons) == {"timeout": 1, "wrong_label": 1}
