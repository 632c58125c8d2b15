"""The three workloads and the run sequence they share.

A run sets the workload up :data:`SETUP_REPEATS` times (``setup_s`` is the
median), measures the last set-up for the requested seconds, then checks
every output against a reference computed outside the timed region.  With
tracing on, it measures half the time untraced and half traced, so the
difference between the two halves is the tracing overhead.

Every input is generated here from the run's seed; the program receives
only generated inputs and deployment settings.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ledger import host, layers, stats
from ledger.client import RowFeed, Tally, expected_labels, ok_latencies_ms, run_clients, tally
from ledger.tracer import Span, Tracer

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: name → (unit, better): the end-to-end metrics every workload reports, over
#: its timed operation (a training run, a 64-row ``top_k`` call, a request).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "accuracy": ("fraction", "higher"),
    "rows_per_s": ("rows/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

LAUNCHER = Path(__file__).resolve().parent / "serve_traced.py"


_now = time.perf_counter


@dataclass
class Outcome:
    """What one run measured and whether its outputs were right."""

    phases: Dict[str, Tally] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)

    def phase(self, name: str) -> Tally:
        return self.phases.setdefault(name, Tally())

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks) and self.failed == 0

    @property
    def attempted(self) -> int:
        return sum(t.attempted for t in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.phases.values())


def _dense_labels(pipeline, features: np.ndarray) -> np.ndarray:
    """Reference labels over the dense path: Eq. 1 to int8, then dot scores."""
    encoded = pipeline.encoder.encode(features)
    return np.argmax(pipeline.classifier.decision_scores(encoded), axis=1)


def _count_mismatches(counts: Tally, outputs: List[np.ndarray], reference: np.ndarray) -> None:
    """One failure per output (a label array) that differs from *reference*."""
    for labels in outputs:
        if not np.array_equal(labels, reference[: len(labels)]):
            counts.failed += 1
            counts.reasons["wrong_label"] += 1


def _baseline_pipeline(size, seed: int):
    """The model the inference workloads serve: Eq. 1 encoder + centroid classes."""
    from repro.classifiers.baseline import BaselineHDC
    from repro.classifiers.pipeline import HDCPipeline

    return HDCPipeline(_record_encoder(size, seed), BaselineHDC(seed=seed))


def _record_encoder(size, seed: int):
    from repro.hdc.encoders import RecordEncoder

    return RecordEncoder(
        dimension=size.dimension, num_levels=size.levels, tie_break="positive", seed=seed
    )


# ------------------------------------------------------------------ workloads
class Workload:
    """One traffic mix: set-up, a timed phase, and output checks."""

    name = ""
    headline = ""

    def __init__(self, seed: int, workdir: Path, size):
        self.seed = seed
        self.workdir = workdir
        self.size = size
        self.outcome = Outcome()
        self.warm_labels: List[np.ndarray] = []
        self.peak_rss: Optional[float] = None

    def _record_peak_rss(self) -> None:
        """Peak RSS through set-up and the first timed operation.

        Later operations are left out: with glibc's default allocator the
        high-water mark creeps with every fit (236 → 258 MB over four), so
        it would measure how many operations the seconds allowed.
        """
        if self.peak_rss is None:
            self.peak_rss = host.peak_rss_mb()

    def setup(self, repeat: int) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> float:
        """Time operations for *seconds*; returns the headline metric."""
        raise NotImplementedError

    def discard(self) -> None:
        """Release a set-up that will not be measured (outside ``setup_s``)."""

    def finish(self) -> None:
        """Stop what the run started; called once, even after a failure."""

    def verify(self) -> None:
        raise NotImplementedError

    def end_to_end(self) -> Dict[str, float]:
        raise NotImplementedError

    def traced(self, seconds: float, tracer: Tracer) -> Tuple[List[Span], layers.Attribution,
                                                              float]:
        """Measure with spans; returns program spans, attribution, headline."""
        tracer.install(layers.IN_PROCESS_TARGETS)
        try:
            headline = self.measure(seconds, tracer)
        finally:
            tracer.uninstall()
        spans = list(tracer.spans)
        return spans, layers.attribute_in_process(spans), headline

    def trace_context(self) -> Dict[str, float]:
        """Per-layer values measured outside spans (``hdc.table_bytes``)."""
        raise NotImplementedError

    def shape(self) -> layers.Shape:
        raise NotImplementedError

    def fits_traced(self, spans: List[Span]) -> int:
        return 0


@dataclass(frozen=True)
class TrainSize:
    dataset: str = "fashion_mnist"
    profile: str = "small"
    dimension: int = 4000
    levels: int = 16
    epochs: int = 20
    warmup_rows: int = 256


class TrainLeHDC(Workload):
    """LeHDC training on the fashion_mnist substitute, then test-split scoring."""

    name = "train-lehdc"
    headline = "latency_p50_ms"

    def setup(self, repeat: int) -> None:
        from repro.datasets.registry import get_dataset

        self.data = get_dataset(
            self.size.dataset, profile=self.size.profile, seed=self.seed, prefer_real=False
        )
        # Warm-up: one short fit and score, so the first timed fit pays no
        # first-call costs (imports, BLAS start-up, page faults).
        rows = self.size.warmup_rows
        self.warm_pipeline = self._pipeline().fit(
            self.data.train_features[:rows], self.data.train_labels[:rows], epochs=1
        )
        self.warm_labels.append(self.warm_pipeline.predict(self.data.test_features[:rows]))
        self.outcome.phase("warm-up").attempted += 1
        self.samples: List[Tuple[float, float, np.ndarray]] = []

    def _pipeline(self):
        from repro.classifiers.pipeline import HDCPipeline
        from repro.core.configs import PAPER_CONFIGS
        from repro.core.lehdc import LeHDCClassifier

        return HDCPipeline(
            _record_encoder(self.size, self.seed),
            LeHDCClassifier(PAPER_CONFIGS["fashion_mnist"], seed=self.seed),
        )

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> float:
        data = self.data
        deadline = _now() + seconds
        fits = []
        while True:
            pipeline = self._pipeline()
            with _maybe_span(tracer, "op.fit"):
                started = _now()
                pipeline.fit(data.train_features, data.train_labels, epochs=self.size.epochs)
                fitted = _now()
            with _maybe_span(tracer, "op.score"):
                labels = pipeline.predict(data.test_features)
                scored = _now()
            self.samples.append((fitted - started, scored - fitted, labels))
            fits.append(fitted - started)
            self.pipeline = pipeline
            self._record_peak_rss()
            if _now() >= deadline:
                break
        return stats.median(fits) * 1e3

    def verify(self) -> None:
        # Every set-up is identical, so every warm-up must match the last one's
        # dense reference.
        rows = self.data.test_features[: self.size.warmup_rows]
        _count_mismatches(self.outcome.phase("warm-up"), self.warm_labels,
                          _dense_labels(self.warm_pipeline, rows))
        reference = _dense_labels(self.pipeline, self.data.test_features)
        measured = self.outcome.phase("measure")
        measured.attempted += len(self.samples)
        _count_mismatches(measured, [labels for _, _, labels in self.samples], reference)
        self.accuracy = float(np.mean(reference == self.data.test_labels))
        classes = int(self.data.train_labels.max()) + 1
        self.outcome.check(
            "labels equal the dense Eq. 1 reference on every fit",
            measured.failed == 0, f"{measured.attempted} fits",
        )
        self.outcome.check(
            "accuracy beats chance by 50%", self.accuracy > 1.5 / classes,
            f"{self.accuracy:.4f} vs chance {1 / classes:.3f}",
        )

    def end_to_end(self) -> Dict[str, float]:
        fit_s = [s[0] for s in self.samples]
        score_s = [s[1] for s in self.samples]
        self.outcome.lines.append(
            f"fit: {stats.describe(fit_s, 's')}; test predict: {stats.describe(score_s, 's')}"
        )
        rows = len(self.data.train_labels) * self.size.epochs
        return {
            "accuracy": self.accuracy,
            "rows_per_s": rows / stats.median(fit_s),
            "latency_p50_ms": stats.median(fit_s) * 1e3,
            "peak_rss_mb": self.peak_rss,
        }

    def shape(self) -> layers.Shape:
        return layers.Shape(
            self.data.train_features.shape[1], self.size.dimension,
            int(self.data.train_labels.max()) + 1,
        )

    def fits_traced(self, spans: List[Span]) -> int:
        return sum(1 for span in spans if span.name == "op.fit")

    def trace_context(self) -> Dict[str, float]:
        from repro.serve.engine import PackedInferenceEngine

        return {"hdc.table_bytes": PackedInferenceEngine(self.pipeline).info()["table_bytes"]}


@dataclass(frozen=True)
class OfflineSize:
    features: int = 561
    classes: int = 6
    dimension: int = 4000
    levels: int = 16
    train_rows: int = 600
    eval_rows: int = 640
    batch: int = 64


class OfflineBatch(Workload):
    """In-process ``engine.top_k`` over seeded labelled rows at UCIHAR's width."""

    name = "offline-batch"
    headline = "rows_per_s"

    def setup(self, repeat: int) -> None:
        from repro.datasets.synthetic import make_gaussian_classes
        from repro.serve.engine import PackedInferenceEngine

        size = self.size
        # UCIHAR's real feature count with the registry substitute's shape.
        train_x, train_y, self.rows, self.labels = make_gaussian_classes(
            size.classes, size.features, size.train_rows, size.eval_rows,
            class_sep=1.4, clusters_per_class=4, noise_std=1.0,
            noise_feature_fraction=0.15, seed=self.seed,
        )
        self.pipeline = _baseline_pipeline(size, self.seed).fit(train_x, train_y)
        self.engine = PackedInferenceEngine(self.pipeline, name="ucihar")
        self.batches = [
            (start, self.rows[start:start + size.batch])
            for start in range(0, size.eval_rows, size.batch)
        ]
        self.warm_labels.append(self.engine.top_k(self.batches[0][1], k=1)[0][:, 0])
        self.outcome.phase("warm-up").attempted += 1
        self.samples: List[Tuple[int, float, np.ndarray]] = []

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> float:
        deadline = _now() + seconds
        times = []
        call = 0
        while True:
            start, batch = self.batches[call % len(self.batches)]
            with _maybe_span(tracer, "op.top_k", rows=len(batch)):
                began = _now()
                labels, _ = self.engine.top_k(batch, k=1)
                elapsed = _now() - began
            self.samples.append((start, elapsed, labels[:, 0]))
            times.append(elapsed)
            self._record_peak_rss()
            call += 1
            if _now() >= deadline:
                break
        return self.size.batch / stats.median(times)

    def verify(self) -> None:
        reference = _dense_labels(self.pipeline, self.rows)
        # The warm-up scores the first batch.
        _count_mismatches(self.outcome.phase("warm-up"), self.warm_labels, reference)
        measured = self.outcome.phase("measure")
        measured.attempted += len(self.samples)
        for start, _, labels in self.samples:
            _count_mismatches(measured, [labels], reference[start:])
        self.accuracy = float(np.mean(reference == self.labels))
        self.outcome.check(
            "engine labels equal the dense Eq. 1 reference", measured.failed == 0,
            f"{measured.attempted} batches of {self.size.batch}",
        )
        self.outcome.check(
            "accuracy beats chance by 50%", self.accuracy > 1.5 / self.size.classes,
            f"{self.accuracy:.4f}",
        )

    def end_to_end(self) -> Dict[str, float]:
        times = [s[1] for s in self.samples]
        self.outcome.lines.append(f"batch of {self.size.batch}: {stats.describe(times, 's')}")
        return {
            "accuracy": self.accuracy,
            "rows_per_s": self.size.batch / stats.median(times),
            "latency_p50_ms": stats.median(times) * 1e3,
            "peak_rss_mb": self.peak_rss,
        }

    def shape(self) -> layers.Shape:
        return layers.Shape(self.size.features, self.size.dimension, self.size.classes)

    def trace_context(self) -> Dict[str, float]:
        return {"hdc.table_bytes": self.engine.info()["table_bytes"]}


@dataclass(frozen=True)
class ServeSize:
    features: int = 64
    classes: int = 12
    dimension: int = 4000
    levels: int = 16
    train_rows: int = 1800
    pool_rows: int = 60_000
    eval_rows: int = 5000
    clients: int = 2
    warmup_per_client: int = 10
    start_timeout_s: float = 60.0


class _Server:
    """A ``repro serve`` subprocess started with deployment settings only."""

    _LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")

    def __init__(self, model: Path, workdir: Path, tag: str, spans: Optional[Path] = None,
                 timeout: float = 60.0):
        root = Path(__file__).resolve().parents[2]
        argv = ["serve", "--model", f"pamap={model}", "--host", "127.0.0.1", "--port", "0"]
        if spans is None:
            command = [sys.executable, "-m", "repro", *argv]
        else:
            command = [sys.executable, str(LAUNCHER), str(spans), *argv]
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        self.log = workdir / f"server-{tag}.log"
        with open(self.log, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(root)
            )
        self.host, self.port = self._await_ready(timeout)

    def _await_ready(self, timeout: float) -> Tuple[str, int]:
        deadline = _now() + timeout
        address = None
        while _now() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}: "
                                   f"{self.log.read_text(encoding='utf-8')[-2000:]}")
            if address is None:
                match = self._LISTENING.search(self.log.read_text(encoding="utf-8"))
                if match:
                    address = (match.group(1), int(match.group(2)))
            if address is not None:
                try:
                    url = f"http://{address[0]}:{address[1]}/v1/readyz"
                    with urllib.request.urlopen(url, timeout=5) as response:
                        if response.status == 200:
                            return address
                except (urllib.error.URLError, OSError):
                    pass
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"server not ready within {timeout:.0f} s")

    def stop(self) -> None:
        """SIGTERM (graceful drain, traced servers write spans), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class ServeKeepalive(Workload):
    """Closed-loop keep-alive clients against a ``repro serve`` subprocess."""

    name = "serve-keepalive"
    headline = "rows_per_s"

    def __init__(self, seed: int, workdir: Path, size):
        super().__init__(seed, workdir, size)
        self.server: Optional[_Server] = None
        self.feed: Optional[RowFeed] = None
        self.records: Dict[str, list] = {"warm-up": [], "measure": []}
        self.measure_s: List[float] = []

    def setup(self, repeat: int) -> None:
        from repro.datasets.synthetic import make_gaussian_classes
        from repro.io import save_model

        size = self.size
        # PAMAP's width and noise; the test split is the pool of distinct
        # request rows.  Three clusters per class, not the registry's six,
        # keep accuracy steady across seeds (six spread it 4.4%, three 1%).
        train_x, train_y, pool, self.pool_labels = make_gaussian_classes(
            size.classes, size.features, size.train_rows, size.pool_rows,
            class_sep=2.0, clusters_per_class=3, noise_std=0.8,
            noise_feature_fraction=0.1, seed=self.seed,
        )
        pipeline = _baseline_pipeline(size, self.seed).fit(train_x, train_y)
        self.model = save_model(self.workdir / f"pamap-{repeat}.npz", pipeline, "baseline")
        # One feed for the whole run, so no row repeats across set-ups.
        self.feed = RowFeed(pool, start=self.feed.used if self.feed else 0)
        self.server = _Server(self.model, self.workdir, f"setup{repeat}",
                              timeout=size.start_timeout_s)
        self._warm_up(self.server)

    def _warm_up(self, server: _Server) -> None:
        self.records["warm-up"] += run_clients(
            server.host, server.port, self.feed, self.size.clients,
            per_client=self.size.warmup_per_client,
        )

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> float:
        server = self.server
        started = time.monotonic_ns()
        records = run_clients(
            server.host, server.port, self.feed, self.size.clients,
            stop_ns=started + int(seconds * 1e9), tracer=tracer,
        )
        self.peak_rss = host.peak_rss_mb(server.proc.pid)
        self.records["measure"] += records
        ended = max((r.end for r in records), default=started + 1)
        ok = sum(1 for r in records if r.status == 200 and r.error is None)
        self.measure_s.append((ended - started) / 1e9)
        self._throughput = ok / ((ended - started) / 1e9)
        return self._throughput

    def traced(self, seconds: float, tracer: Tracer):
        self.server.stop()
        spans_path = self.workdir / "server-spans.json"
        self.server = _Server(self.model, self.workdir, "traced", spans=spans_path,
                              timeout=self.size.start_timeout_s)
        self._warm_up(self.server)
        measure_start = time.monotonic_ns()
        headline = self.measure(seconds, tracer)
        self.server.stop()
        self.server = None
        written = json.loads(spans_path.read_text(encoding="utf-8"))
        tracer.missing.extend(written["missing"])
        program = [
            span for span in map(Span.from_dict, written["spans"])
            if span.start >= measure_start
        ]
        client = list(tracer.spans)
        return program, layers.attribute_requests(client, program), headline

    def discard(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    finish = discard

    def verify(self) -> None:
        from repro.serve.engine import PackedInferenceEngine

        self.reference_engine = PackedInferenceEngine.from_file(self.model)
        sent = sorted({r.index for records in self.records.values() for r in records})
        reference = np.full(len(self.feed.rows), -1, dtype=np.int64)
        for start in range(0, len(sent), 256):
            chunk = np.asarray(sent[start:start + 256])
            reference[chunk] = self.reference_engine.top_k(self.feed.rows[chunk], k=1)[0][:, 0]
        for phase, records in self.records.items():
            expected = expected_labels(records, reference)
            self.outcome.phases[phase] = self.outcome.phase(phase).add(tally(records, expected))
        self.expected = expected_labels(self.records["measure"], reference)
        evaluation = slice(0, self.size.eval_rows)
        predicted = self.reference_engine.top_k(self.feed.rows[evaluation], k=1)[0][:, 0]
        self.accuracy = float(np.mean(predicted == self.pool_labels[evaluation]))
        self.outcome.check(
            "every served label equals the in-process engine's",
            self.outcome.failed == 0, self.outcome.phase("measure").describe(),
        )
        self.outcome.check(
            "no row repeats within the run",
            len(sent) == sum(len(r) for r in self.records.values()), f"{len(sent)} rows",
        )
        self.outcome.check(
            "accuracy beats chance by 50%", self.accuracy > 1.5 / self.size.classes,
            f"{self.accuracy:.4f}",
        )

    def end_to_end(self) -> Dict[str, float]:
        latencies = ok_latencies_ms(self.records["measure"], self.expected)
        self.outcome.lines.append(
            f"client latency: {stats.describe(latencies, 'ms')}; "
            f"{self.size.clients} closed-loop keep-alive clients"
        )
        self.outcome.lines.append(
            f"throughput: {self._throughput:.2f} req/s over {sum(self.measure_s):.2f} s "
            "(one row per request, so req/s = rows/s)"
        )
        return {
            "accuracy": self.accuracy,
            "rows_per_s": self._throughput,
            "latency_p50_ms": stats.median(latencies),
            "peak_rss_mb": self.peak_rss,
        }

    def shape(self) -> layers.Shape:
        return layers.Shape(self.size.features, self.size.dimension, self.size.classes)

    def trace_context(self) -> Dict[str, float]:
        return {"hdc.table_bytes": self.reference_engine.info()["table_bytes"]}


WORKLOADS = {cls.name: cls for cls in (TrainLeHDC, OfflineBatch, ServeKeepalive)}
FULL_SIZES = {"train-lehdc": TrainSize(), "offline-batch": OfflineSize(),
              "serve-keepalive": ServeSize()}
#: The smallest sizes, for smoke tests of the benchmark itself.
SMOKE_SIZES = {
    "train-lehdc": TrainSize(profile="tiny", dimension=512, epochs=1, warmup_rows=32),
    "offline-batch": OfflineSize(dimension=512, train_rows=60, eval_rows=128),
    "serve-keepalive": ServeSize(dimension=512, train_rows=240, pool_rows=2000,
                                 eval_rows=200, warmup_per_client=2),
}


def _maybe_span(tracer: Optional[Tracer], name: str, **attrs):
    return tracer.span(name, **attrs) if tracer is not None else contextlib.nullcontext()


def _overhead(headline: str, untraced: float, traced: float) -> float:
    """Relative cost of tracing; positive when the traced half did worse."""
    if END_TO_END[headline][1] == "lower":
        return traced / untraced - 1.0
    return untraced / traced - 1.0


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        size=None) -> Outcome:
    """One benchmark run; the caller prints the outcome."""
    workload = WORKLOADS[name](seed, workdir, size or FULL_SIZES[name])
    outcome = workload.outcome
    setup_s = []
    try:
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.discard()
            started = _now()
            workload.setup(repeat)
            setup_s.append(_now() - started)
        if trace:
            untraced = workload.measure(seconds / 2)
            tracer = Tracer()
            program, attribution, traced = workload.traced(seconds / 2, tracer)
        else:
            workload.measure(seconds)
    finally:
        workload.finish()
    workload.verify()
    metrics = {"setup_s": stats.median(setup_s), **workload.end_to_end()}
    outcome.lines.insert(0, "set-up: " + ", ".join(f"{s:.3f}" for s in setup_s) + " s")
    fingerprint = host.fingerprint()
    outcome.lines.append("host: " + ", ".join(f"{k}={v}" for k, v in fingerprint.items()))
    if not trace:
        outcome.metrics = metrics
        return outcome
    context = {
        **workload.trace_context(),
        "host.effective_parallelism": fingerprint["effective_parallelism"],
        "host.blas_threads": fingerprint["blas_threads"] or 0,
        "trace.overhead": _overhead(workload.headline, untraced, traced),
        "trace.spans": len(program),
    }
    ops = sum(1 for s in tracer.spans if s.layer == "op" and s.parent is None)
    outcome.metrics = layers.per_layer_metrics(
        program, attribution, workload.shape(), workload.fits_traced(tracer.spans), context
    )
    outcome.lines.extend(layers.layer_table(attribution, ops))
    outcome.lines.append(
        f"tracing overhead: {workload.headline} untraced {untraced:.4g}, traced {traced:.4g}"
    )
    if tracer.missing:
        outcome.lines.append("targets not found: " + ", ".join(tracer.missing))
    return outcome


def clean(workdir: Path) -> None:
    """Delete the run's scratch directory, and its parent once empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass
