"""Closed-loop keep-alive HTTP client and per-request failure accounting.

Each client thread holds one persistent ``http.client.HTTPConnection`` and
reconnects on close or error, the way a real keep-alive caller behaves (a
connection per request would hide socket-level stalls).  Every request
carries a row no other request in the run carries, taken from a shared
:class:`RowFeed`.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ledger.tracer import row_key

PREDICT_PATH = "/v1/predict"


@dataclass
class Record:
    """One request as the client saw it.  Times are ``monotonic_ns``."""

    index: int
    start: int
    end: int
    status: Optional[int]
    label: Optional[int]
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) / 1e6


class RowFeed:
    """Hands out each row index once, across threads."""

    def __init__(self, rows: np.ndarray, start: int = 0):
        self.rows = rows
        self._next = start
        self._lock = threading.Lock()

    def take(self) -> Optional[int]:
        with self._lock:
            if self._next >= len(self.rows):
                return None
            index = self._next
            self._next += 1
            return index

    @property
    def used(self) -> int:
        return self._next


class KeepAliveClient:
    """One persistent connection; reconnects lazily after a close or error."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connects = 0
        self._conn: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def post(self, body: bytes) -> Tuple[Optional[int], Optional[int], Optional[str]]:
        """POST one predict body; returns ``(status, label, error)``."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
            self.connects += 1
        try:
            self._conn.request(
                "POST", PREDICT_PATH, body=body, headers={"Content-Type": "application/json"}
            )
            response = self._conn.getresponse()
            payload = response.read()
        except TimeoutError:
            self.close()
            return None, None, "timeout"
        except (OSError, http.client.HTTPException):
            self.close()
            return None, None, "dropped"
        if response.will_close:
            self.close()
        if response.status != 200:
            return response.status, None, None
        try:
            return 200, int(json.loads(payload)["labels"][0]), None
        except (ValueError, KeyError, IndexError, TypeError):
            return 200, None, "bad_body"


def run_closed_loop(
    client: KeepAliveClient,
    feed: RowFeed,
    stop_ns: Optional[int] = None,
    max_requests: Optional[int] = None,
    tracer=None,
) -> List[Record]:
    """Send rows back to back until *stop_ns*, *max_requests* or the feed ends.

    With a *tracer*, each request is an ``op.request`` span keyed by its row,
    so server-side spans can be joined to it.
    """
    records: List[Record] = []
    while True:
        if max_requests is not None and len(records) >= max_requests:
            break
        if stop_ns is not None and time.monotonic_ns() >= stop_ns:
            break
        index = feed.take()
        if index is None:
            break
        row = feed.rows[index]
        body = json.dumps({"features": row.tolist()}).encode("utf-8")
        span = (
            tracer.span("op.request", request=row_key(row), rows=1)
            if tracer is not None else contextlib.nullcontext()
        )
        with span:
            start = time.monotonic_ns()
            status, label, error = client.post(body)
            end = time.monotonic_ns()
        records.append(Record(index, start, end, status, label, error))
    return records


def run_clients(host: str, port: int, feed: RowFeed, clients: int,
                stop_ns: Optional[int] = None, per_client: Optional[int] = None,
                tracer=None, timeout: float = 10.0) -> List[Record]:
    """Run *clients* closed-loop threads; returns every record, in send order."""
    results: List[List[Record]] = [[] for _ in range(clients)]
    errors: List[Exception] = []

    def worker(slot: int) -> None:
        client = KeepAliveClient(host, port, timeout=timeout)
        try:
            results[slot] = run_closed_loop(client, feed, stop_ns, per_client, tracer)
        except Exception as error:  # re-raised below: a dead client must fail the run
            errors.append(error)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    records = [record for batch in results for record in batch]
    records.sort(key=lambda record: record.start)
    return records


# ---------------------------------------------------------------- accounting
def outcome(record: Record, expected: Optional[int]) -> str:
    """``"ok"`` or the one reason this request failed."""
    if record.error is not None:
        return record.error
    if record.status != 200:
        return f"http_{record.status}"
    if expected is None or record.label != expected:
        return "wrong_label"
    return "ok"


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    def add(self, other: "Tally") -> "Tally":
        return Tally(
            self.attempted + other.attempted,
            self.failed + other.failed,
            self.reasons + other.reasons,
        )

    def describe(self) -> str:
        text = f"attempted={self.attempted} succeeded={self.succeeded} failed={self.failed}"
        if self.reasons:
            text += " (" + ", ".join(f"{k}={v}" for k, v in sorted(self.reasons.items())) + ")"
        return text


def tally(records: Sequence[Record], expected: Mapping[int, int]) -> Tally:
    """Count each record once: a failure is a non-200, a timeout, a dropped
    connection, an unreadable body or a label that differs from *expected*."""
    result = Tally()
    for record in records:
        result.attempted += 1
        reason = outcome(record, expected.get(record.index))
        if reason != "ok":
            result.failed += 1
            result.reasons[reason] += 1
    return result


def ok_latencies_ms(records: Sequence[Record], expected: Mapping[int, int]) -> List[float]:
    return [r.latency_ms for r in records if outcome(r, expected.get(r.index)) == "ok"]


def expected_labels(records: Sequence[Record], labels: Sequence[int]) -> Dict[int, int]:
    """Reference label per sent row index, from a label array over the pool."""
    return {record.index: int(labels[record.index]) for record in records}
