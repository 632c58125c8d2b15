"""The inference worker process: one engine view, one duplex pipe.

Each worker rebuilds a full :class:`~repro.serve.engine.PackedInferenceEngine`
from a :class:`~repro.cluster.shared.WorkerModelSpec` — encoder tables private,
packed model bank mapped zero-copy from the parent's shared segment — then
answers a tiny request protocol over the duplex pipe the dispatcher handed
it.  Every request and every reply is one pickled frame.

Requests are ``(header, arrays)`` pairs; replies are ``("ok", scalar,
arrays, spans)`` or ``("error", kind, message)``:

=====================================  =======================================
request header (+ arrays)              ok-reply payload
=====================================  =======================================
``{"op": "top_k", "k", ...}``          ``arrays = [labels, scores]``
``+ [features | packed words]``
``{"op": "scores", ...}``              ``arrays = [scores]``
``+ [features | packed words]``
``{"op": "ping"}``                     ``scalar = pid``
``{"op": "poison"}``                   ``scalar = None`` *(then die on next
                                       request)*
``{"op": "stop"}``                     *(none; the worker exits)*
=====================================  =======================================

``header["kind"]`` selects the scoring path.  ``"packed"`` means the
dispatcher already validated and encoded the batch — the array is the shard's
packed ``uint64`` query words — so the worker goes straight to XOR+popcount
(``decision_scores_packed``) plus the same stable ``top_k_from_scores`` the
engine itself uses, which keeps the merged result bit-identical to a
single-process call.  ``"dense"`` ships raw float rows and defers to the
engine's public entry points (validation included), the pre-packing fallback
for engines without a fused accumulator.

``header["ctx"]`` is an optional trace span context.  When present the worker
times its scoring and ships a finished ``worker:score`` span record back in
the reply's span slot; the dispatcher writes it into the parent's trace sink,
which is how a single request's trace stitches across the process boundary
without the worker ever opening the trace file.

Independent of tracing, every scoring request is recorded into the worker's
shared-memory stats slab (requests, samples, busy seconds, and a scoring
latency histogram) when the dispatcher handed one over — that is the
lock-free channel behind the fleet-wide utilisation view in ``/v1/metrics``.

``poison`` arms a hard ``os._exit`` on the *next* request, which is how the
crash-recovery tests (and chaos drills) provoke a deterministic mid-batch
worker death — the dispatcher's send succeeds, the reply never comes.

Request-level Python exceptions (for example a feature-width mismatch on the
dense path) are caught and shipped back as ``("error", type_name, message)``
so one bad request never takes the process down.  Only a genuine crash
(segfault, kill, OOM) breaks the pipe, which the dispatcher detects and
handles by respawning.  A ``("ready", pid)`` handshake is sent once the
engine is compiled so the dispatcher can distinguish slow startup from
startup failure.
"""

from __future__ import annotations

from repro.cluster.shared import WorkerModelSpec, build_worker_engine


def worker_main(
    spec: WorkerModelSpec,
    connection,
    stats_slab_name=None,
    worker_index: int = 0,
    fault_plan=None,
) -> None:
    """Process entry point: build the engine, serve until EOF."""
    import os
    import time

    import numpy as np

    from repro.classifiers.base import top_k_from_scores
    from repro.kernels.packed import PackedHypervectors
    from repro.obs.shm_metrics import WorkerStatsSlab
    from repro.obs.trace import span_record

    injector = None if fault_plan is None else fault_plan.injector(worker_index)
    stats = None
    try:
        attached, engine = build_worker_engine(spec)
        engine.warmup()
        if stats_slab_name is not None:
            stats = WorkerStatsSlab.attach(stats_slab_name)
    except BaseException as error:
        try:
            connection.send(("failed", f"{type(error).__name__}: {error}"))
        finally:
            connection.close()
        return
    connection.send(("ready", os.getpid()))

    def send_ok(scalar, arrays, spans):
        connection.send(("ok", scalar, list(arrays), spans))

    def send_error(kind, message):
        connection.send(("error", kind, message))

    def _score(header, arrays):
        """Run one scoring op; returns ``(arrays, spans)`` + records stats."""
        op = header["op"]
        started_wall = time.time()
        started = time.perf_counter()
        if header.get("kind") == "packed":
            # The dispatcher validated + encoded once; the shard is packed
            # uint64 query words, so scoring is pure XOR+popcount here.
            words = np.ascontiguousarray(arrays[0], dtype=np.uint64)
            queries = PackedHypervectors(words=words, dimension=engine.dimension)
            scores = engine.classifier.decision_scores_packed(queries)
            rows = int(words.shape[0])
            if op == "top_k":
                labels, top_scores = top_k_from_scores(scores, header["k"])
                payload = [labels, top_scores]
            else:
                payload = [scores]
        else:
            features = arrays[0]
            rows = int(features.shape[0]) if features.ndim == 2 else 1
            if op == "top_k":
                labels, top_scores = engine.top_k(features, k=header["k"])
                payload = [labels, top_scores]
            else:
                payload = [engine.decision_scores(features)]
        elapsed = time.perf_counter() - started
        if stats is not None:
            stats.record(rows, elapsed)
        spans = []
        ctx = header.get("ctx")
        if ctx is not None:
            spans.append(
                span_record(
                    "worker:score",
                    ctx,
                    started_wall,
                    elapsed,
                    attrs={
                        "op": op,
                        "rows": rows,
                        "worker": worker_index,
                        "kind": header.get("kind", "dense"),
                    },
                )
            )
        return payload, spans

    poisoned = False
    try:
        while True:
            try:
                header, arrays = connection.recv()
            except (EOFError, OSError):
                break
            op = header["op"]
            if op == "stop":
                break
            if poisoned:
                os._exit(1)
            try:
                if op == "poison":
                    poisoned = True
                    send_ok(None, [], [])
                elif op in ("top_k", "scores"):
                    # Deterministic chaos: consult the fault plan once per
                    # scoring request.  Crash/drop never reply (the parent
                    # sees process death / a broken pipe); hang holds the
                    # shard past the dispatcher's watchdog; the rest reply —
                    # wrongly or slowly.
                    action = injector.draw() if injector is not None else None
                    if action == "crash":
                        os._exit(17)
                    if action == "drop":
                        # A dropped connection as seen from the parent:
                        # close the pipe mid-request and vanish.
                        connection.close()
                        os._exit(18)
                    if action in ("hang", "slow"):
                        time.sleep(
                            fault_plan.hang_seconds
                            if action == "hang"
                            else fault_plan.slow_seconds
                        )
                    deadline = header.get("deadline")
                    if deadline is not None and time.monotonic() >= deadline:
                        # The shard is already dead — refuse to score it so
                        # the dispatcher can answer 504 without waiting.
                        send_error(
                            "DeadlineExceededError",
                            "shard deadline expired before scoring",
                        )
                        continue
                    if action == "error":
                        send_error("InjectedFaultError", "injected error-reply fault")
                        continue
                    payload, spans = _score(header, arrays)
                    send_ok(None, payload, spans)
                elif op == "ping":
                    send_ok(os.getpid(), [], [])
                else:
                    send_error("ValueError", f"unknown op {op!r}")
            except Exception as error:
                if stats is not None:
                    stats.record_error()
                send_error(type(error).__name__, str(error))
    finally:
        connection.close()
        if stats is not None:
            stats.close()
        attached.close()


__all__ = ["worker_main"]
