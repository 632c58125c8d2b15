"""Which public callables each layer is timed at, and the per-layer metrics.

Layers are the program's modules: ``repro.hdc`` (quantiser and encoders,
with ``repro.kernels.encode`` under them), ``repro.classifiers`` (packed
scoring and top-k), ``repro.core`` + ``repro.nn`` (the LeHDC trainer),
``repro.serve.engine``, ``repro.serve.batching`` and ``repro.serve.server``.
A target that no longer resolves is skipped and listed as missing, so a
refactor degrades the traced table instead of failing the run.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ledger import stats
from ledger.tracer import OP_LAYER, Span, Target, children_index, row_key, self_times, subtree


def _len_of(position: int):
    return lambda args: len(args[position])


def _batch_keys(args) -> List[str]:
    return [row_key(row) for row in np.asarray(args[1], dtype=np.float64)]


HDC_TARGETS = (
    Target("repro.hdc.encoders:Encoder.encode", "hdc.encode", "hdc"),
    Target("repro.hdc.encoders:Encoder.encode_packed", "hdc.encode_packed", "hdc"),
    Target("repro.hdc.quantize:UniformQuantizer.transform", "hdc.quantize", "hdc", rows=_len_of(1)),
    Target("repro.kernels.encode:RecordAccumulator.__call__", "hdc.accumulate", "hdc"),
    Target("repro.serve.engine:sign_fuse_bits", "hdc.sign_fuse", "hdc"),
    Target("repro.serve.engine:pack_bits", "hdc.pack", "hdc"),
)
SCORING_TARGETS = (
    Target(
        "repro.classifiers.base:HDCClassifierBase.decision_scores_packed",
        "classifiers.score", "classifiers", rows=_len_of(1),
    ),
    Target("repro.serve.engine:top_k_from_scores", "classifiers.top_k", "classifiers",
           rows=_len_of(0)),
)
PIPELINE_TARGETS = (
    Target("repro.classifiers.pipeline:HDCPipeline.fit", "classifiers.pipeline_fit",
           "classifiers"),
    Target("repro.classifiers.pipeline:HDCPipeline.predict", "classifiers.pipeline_predict",
           "classifiers"),
)
TRAINER_TARGETS = (
    Target("repro.core.lehdc:LeHDCClassifier.fit", "core.fit", "core"),
    Target("repro.nn.layers:Dropout.forward", "nn.dropout_forward", "nn"),
    Target("repro.nn.layers:BinaryLinear.forward", "nn.linear_forward", "nn",
           flag=lambda args: args[0].training),
    Target("repro.core.bnn_model:cross_entropy_from_logits", "nn.loss", "nn"),
    Target("repro.nn.layers:BinaryLinear.backward", "nn.linear_backward", "nn"),
    Target("repro.nn.layers:Dropout.backward", "nn.dropout_backward", "nn"),
    Target("repro.nn.optim:Adam.step", "nn.optimizer_step", "nn"),
)

#: Wrapped in the benchmark process (train-lehdc, offline-batch).
IN_PROCESS_TARGETS = HDC_TARGETS + SCORING_TARGETS + PIPELINE_TARGETS + TRAINER_TARGETS + (
    Target("repro.serve.engine:PackedInferenceEngine.top_k", "engine.top_k", "engine",
           rows=_len_of(1)),
)

#: Wrapped inside the server process (serve-keepalive).  Batch spans carry the
#: keys of their rows and request spans the key of theirs, so each client
#: request joins the server spans that served it.
SERVER_TARGETS = HDC_TARGETS + SCORING_TARGETS + (
    Target("repro.serve.engine:PackedInferenceEngine.top_k", "engine.top_k", "engine",
           rows=_len_of(1), keys=_batch_keys),
    Target("repro.serve.batching:BatchScheduler.top_k", "batching.top_k", "batching",
           request=lambda args: row_key(args[1])),
    Target("repro.serve.server:ServeApp.predict", "server.predict", "server",
           request=lambda args: row_key(args[1]["features"])),
)

#: Rows of the printed layer table, in data-flow order.
TABLE_ROWS = (
    ("server.http", "repro.serve.server (HTTP, JSON, TCP)"),
    ("server", "repro.serve.server (app)"),
    ("batching", "repro.serve.batching (wait)"),
    ("engine", "repro.serve.engine (self)"),
    ("hdc", "repro.hdc + kernels.encode"),
    ("classifiers", "repro.classifiers + kernels.packed"),
    ("core", "repro.core (trainer loop)"),
    ("nn", "repro.nn"),
    (OP_LAYER, "unattributed"),
)

#: Per-layer metrics: name → (unit, better).  Every traced run prints all of
#: them; a layer a workload does not exercise reads 0.
PER_LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "hdc.encode_us_per_row": ("us", "lower"),
    "hdc.encode_share": ("fraction", "lower"),
    "hdc.ns_per_model_op": ("ns", "lower"),
    "hdc.table_bytes": ("bytes", "lower"),
    "classifiers.score_us_per_row": ("us", "lower"),
    "classifiers.topk_us_per_row": ("us", "lower"),
    "classifiers.ns_per_model_op": ("ns", "lower"),
    "engine.top_k_ms_p50": ("ms", "lower"),
    "engine.top_k_ms_tail": ("ms", "lower"),
    "engine.top_k_tail_percentile": ("percentile", "higher"),
    "engine.top_k_calls": ("count", "higher"),
    "engine.overhead_us_per_row": ("us", "lower"),
    "batching.wait_ms": ("ms", "lower"),
    "batching.rows_per_batch": ("rows", "higher"),
    "server.app_ms": ("ms", "lower"),
    "server.http_ms": ("ms", "lower"),
    "server.rows_scored_per_request": ("rows", "lower"),
    "core.fit_s": ("s", "lower"),
    "nn.dropout_forward_s": ("s", "lower"),
    "nn.linear_forward_s": ("s", "lower"),
    "nn.loss_s": ("s", "lower"),
    "nn.linear_backward_s": ("s", "lower"),
    "nn.dropout_backward_s": ("s", "lower"),
    "nn.optimizer_step_s": ("s", "lower"),
    "nn.steps": ("count", "lower"),
    "host.effective_parallelism": ("x", "higher"),
    "host.blas_threads": ("count", "higher"),
    "trace.overhead": ("fraction", "lower"),
    "trace.unattributed": ("fraction", "lower"),
    "trace.spans": ("count", "lower"),
}

_NN_METRICS = {
    "nn.dropout_forward_s": "nn.dropout_forward",
    "nn.linear_forward_s": "nn.linear_forward",
    "nn.loss_s": "nn.loss",
    "nn.linear_backward_s": "nn.linear_backward",
    "nn.dropout_backward_s": "nn.dropout_backward",
    "nn.optimizer_step_s": "nn.optimizer_step",
}


@dataclass
class Shape:
    """The model sizes per-op counts are normalised by (Eq. 1 and XOR+popcount)."""

    features: int
    dimension: int
    classes: int


@dataclass
class Attribution:
    """Time of the workload's operations split into table rows (ns)."""

    op_total: int
    rows: Dict[str, int]
    matched: int = 0
    per_request: Optional[Dict[str, List[int]]] = None


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def attribute_in_process(spans: Sequence[Span]) -> Attribution:
    """Self time per layer, with the benchmark's own op spans as roots."""
    own = self_times(spans)
    rows: Dict[str, int] = defaultdict(int)
    op_total = 0
    for span in spans:
        rows[span.layer] += own[span.sid]
        if span.layer == OP_LAYER and span.parent is None:
            op_total += span.duration
    return Attribution(op_total, dict(rows))


def attribute_requests(client: Sequence[Span], server: Sequence[Span]) -> Attribution:
    """Split each client request into HTTP, app, batching wait and its batch.

    A request's batch is the ``engine.top_k`` call whose row keys include the
    request's row; every layer under that call counts in full for each
    request it served, which is what each of them waited for.  Requests
    without matching server spans count as unattributed.
    """
    index = children_index(server)
    own = self_times(server)
    predict = {s.request: s for s in server if s.name == "server.predict" and s.request}
    schedule = {s.request: s for s in server if s.name == "batching.top_k" and s.request}
    batch_of: Dict[str, Span] = {}
    batch_layers: Dict[int, Dict[str, int]] = {}
    for span in server:
        if span.name == "engine.top_k" and span.keys:
            split: Dict[str, int] = defaultdict(int)
            for inner in subtree(span, index):
                split[inner.layer] += own[inner.sid]
            batch_layers[span.sid] = dict(split)
            for key in span.keys:
                batch_of[key] = span
    rows: Dict[str, int] = defaultdict(int)
    per_request: Dict[str, List[int]] = defaultdict(list)
    op_total = matched = 0
    for request in client:
        if request.layer != OP_LAYER or request.parent is not None:
            continue
        op_total += request.duration
        app, sched, batch = (
            predict.get(request.request), schedule.get(request.request),
            batch_of.get(request.request),
        )
        if app is None or sched is None or batch is None:
            rows[OP_LAYER] += request.duration
            continue
        matched += 1
        split = {
            "server.http": request.duration - app.duration,
            "server": app.duration - sched.duration,
            "batching": sched.duration - batch.duration,
        }
        for layer, value in split.items():
            rows[layer] += value
            per_request[layer].append(value)
        for layer, value in batch_layers[batch.sid].items():
            rows[layer] += value
    return Attribution(op_total, dict(rows), matched, dict(per_request))


def _named(spans: Sequence[Span], name: str) -> List[Span]:
    return [span for span in spans if span.name == name]


def _total(spans: Sequence[Span]) -> int:
    return sum(span.duration for span in spans)


def _row_count(spans: Sequence[Span]) -> int:
    return sum(span.rows or 0 for span in spans)


def per_layer_metrics(
    program: Sequence[Span],
    attribution: Attribution,
    shape: Shape,
    fits: int,
    context: Dict[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER_METRICS` value from the spans of one traced phase.

    *program* holds the spans recorded inside the program's process (the
    server's for serve-keepalive), *fits* the number of training runs timed,
    and *context* the values measured outside spans (``hdc.table_bytes``,
    ``host.*``, ``trace.overhead``).
    """
    own = self_times(program)
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER_METRICS}

    hdc_ns = sum(own[s.sid] for s in program if s.layer == "hdc")
    encoded = _row_count(_named(program, "hdc.quantize"))
    encode_ns_per_row = _ratio(hdc_ns, encoded)
    values["hdc.encode_us_per_row"] = encode_ns_per_row / 1e3
    values["hdc.encode_share"] = _ratio(attribution.rows.get("hdc", 0), attribution.op_total)
    values["hdc.ns_per_model_op"] = _ratio(encode_ns_per_row, shape.features * shape.dimension)

    scores = _named(program, "classifiers.score")
    score_ns_per_row = _ratio(_total(scores), _row_count(scores))
    values["classifiers.score_us_per_row"] = score_ns_per_row / 1e3
    top_k = _named(program, "classifiers.top_k")
    values["classifiers.topk_us_per_row"] = _ratio(_total(top_k), _row_count(top_k)) / 1e3
    words = shape.classes * math.ceil(shape.dimension / 64)
    values["classifiers.ns_per_model_op"] = _ratio(score_ns_per_row, words)

    engine = _named(program, "engine.top_k")
    if engine:
        durations = [span.duration / 1e6 for span in engine]
        values["engine.top_k_ms_p50"] = stats.percentile(durations, 50)
        tail = stats.tail_percentile(len(durations))
        if tail is not None:
            values["engine.top_k_ms_tail"] = stats.percentile(durations, tail)
            values["engine.top_k_tail_percentile"] = tail
        values["engine.top_k_calls"] = len(engine)
        engine_self = sum(own[span.sid] for span in engine)
        values["engine.overhead_us_per_row"] = _ratio(engine_self, _row_count(engine)) / 1e3

    if attribution.per_request:
        def mean_ms(layer: str) -> float:
            samples = attribution.per_request.get(layer, [])
            return _ratio(sum(samples), len(samples)) / 1e6

        values["batching.wait_ms"] = mean_ms("batching")
        values["server.app_ms"] = mean_ms("server")
        values["server.http_ms"] = mean_ms("server.http")
        values["batching.rows_per_batch"] = _ratio(_row_count(engine), len(engine))
        values["server.rows_scored_per_request"] = _ratio(
            _row_count(engine), len(_named(program, "server.predict"))
        )

    if fits:
        values["core.fit_s"] = _total(_named(program, "core.fit")) / 1e9 / fits
        for metric, name in _NN_METRICS.items():
            values[metric] = _total(_named(program, name)) / 1e9 / fits
        steps = [s for s in _named(program, "nn.linear_forward") if s.flag]
        values["nn.steps"] = len(steps) / fits

    values["trace.unattributed"] = _ratio(
        attribution.rows.get(OP_LAYER, 0), attribution.op_total
    )
    for name, value in context.items():
        values[name] = value
    return values


def layer_table(attribution: Attribution, ops: int) -> List[str]:
    """The printed per-layer table: self time per op and share of op time."""
    lines = [f"{'layer':<40} {'ms/op':>10} {'share':>8}"]
    for key, label in TABLE_ROWS:
        value = attribution.rows.get(key)
        if value is None and key != OP_LAYER:
            continue
        value = value or 0
        lines.append(
            f"{label:<40} {value / 1e6 / max(ops, 1):>10.3f} "
            f"{_ratio(value, attribution.op_total):>8.1%}"
        )
    lines.append(f"{'total (ops timed: ' + str(ops) + ')':<40} "
                 f"{attribution.op_total / 1e6 / max(ops, 1):>10.3f} {1:>8.1%}")
    return lines
