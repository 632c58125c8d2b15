"""Command-line interface: ``python -m repro <command>``.

The CLI wraps the experiment harness so the paper's headline results can be
regenerated without writing any Python:

* ``python -m repro list-datasets`` — show the registered benchmarks and
  whether real data is available for them;
* ``python -m repro train --dataset ucihar --strategy lehdc --save model.npz``
  — train one strategy on one benchmark and optionally save the model;
* ``python -m repro compare --dataset fashion_mnist`` — the Table-1 style
  strategy comparison on one dataset;
* ``python -m repro sweep --dataset isolet`` — the Fig.-6 dimension sweep;
* ``python -m repro predict --model model.npz --dataset ucihar`` — load a
  saved model and evaluate it on a dataset's test split;
* ``python -m repro serve --model model.npz --port 8080`` — serve saved
  models over JSON/HTTP with micro-batched packed inference in one process
  (``--trace FILE`` writes JSONL request traces, ``--log-level info``
  enables the access log, and ``GET /metrics`` exposes Prometheus text
  format);
* ``python -m repro loadgen --url http://host:8080`` — soak-test a serving
  endpoint (or an in-process app) with seeded, reproducible traffic:
  open-loop Poisson or closed-loop, warm-up + measure phases, exact latency
  percentiles, JSON report output with server-side metric deltas;
  ``--quick`` for CI smoke, ``--trace FILE`` to record and check traces;
* ``python -m repro trace-summary trace.jsonl`` — per-stage latency
  breakdown (count/p50/p95/max per span name) of a recorded trace file;
  ``--exemplars K`` lists the K slowest request traces by ID;
* ``python -m repro top --url http://host:8080`` — live terminal dashboard
  over ``/v1/metrics``: per-tenant QPS, requests, errors, percentiles and
  queue depth; ``--once --json`` for scripts.

Performance is measured by ``perfbench/`` (see ``BENCHMARK.json``), not by
a CLI command.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.classifiers.adapthd import AdaptHDC
from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.enhanced import EnhancedRetrainingHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.classifiers.retraining import RetrainingHDC
from repro.core.configs import get_paper_config
from repro.core.lehdc import LeHDCClassifier
from repro.core.nonbinary_lehdc import NonBinaryLeHDCClassifier
from repro.datasets.loaders import try_load_real_dataset
from repro.datasets.registry import get_dataset, list_datasets
from repro.eval.sweep import run_dimension_sweep
from repro.eval.tables import format_table
from repro.hdc.encoders import NGramEncoder, RecordEncoder
from repro.io import load_model, save_model

STRATEGY_CHOICES = (
    "baseline",
    "multimodel",
    "retraining",
    "adapthd",
    "enhanced",
    "lehdc",
    "lehdc-nonbinary",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LeHDC reproduction command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list-datasets", help="list registered benchmark datasets")

    def add_common(sub):
        sub.add_argument("--dataset", default="ucihar", help="registry dataset name")
        sub.add_argument("--profile", default="tiny", choices=["tiny", "small", "full"])
        sub.add_argument("--dimension", type=int, default=2000)
        sub.add_argument("--num-levels", type=int, default=32)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--encoder", default="record", choices=["record", "ngram"], help="encoder kind"
        )

    # _build_classifier and command_sweep override Table 2's batch and rate.
    epochs_help = (
        "LeHDC epochs; LeHDC trains at batch 64 and learning rate 0.01 on every "
        "dataset, with the rest of its Table 2 row, so fashion_mnist (256, 0.1) "
        "and cifar10 (512, 0.001) do not train at their Table 2 batch and rate"
    )
    train = subparsers.add_parser("train", help="train one strategy on one dataset")
    add_common(train)
    train.add_argument("--strategy", default="lehdc", choices=STRATEGY_CHOICES)
    train.add_argument("--epochs", type=int, default=30, help=epochs_help)
    train.add_argument("--iterations", type=int, default=25, help="retraining iterations")
    train.add_argument("--save", default=None, help="path to save the trained model (.npz)")

    compare = subparsers.add_parser("compare", help="compare all strategies on one dataset")
    add_common(compare)
    compare.add_argument("--epochs", type=int, default=30, help=epochs_help)
    compare.add_argument("--iterations", type=int, default=25)

    sweep = subparsers.add_parser("sweep", help="accuracy vs dimension sweep (Fig. 6)")
    add_common(sweep)
    sweep.add_argument(
        "--dimensions", type=int, nargs="+", default=[1000, 2000, 4000], help="D values"
    )
    sweep.add_argument("--epochs", type=int, default=25, help=epochs_help)
    sweep.add_argument("--iterations", type=int, default=20)

    predict = subparsers.add_parser("predict", help="evaluate a saved model on a dataset")
    predict.add_argument("--model", required=True, help="path of a model saved with --save")
    predict.add_argument("--dataset", default="ucihar")
    predict.add_argument("--profile", default="tiny", choices=["tiny", "small", "full"])
    predict.add_argument("--seed", type=int, default=0)

    serve = subparsers.add_parser("serve", help="serve saved models over JSON/HTTP")
    serve.add_argument(
        "--model",
        action="append",
        required=True,
        metavar="[NAME=]PATH",
        help="saved .npz model to serve; repeatable; NAME defaults to the file stem",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--max-batch-size", type=int, default=64)
    serve.add_argument(
        "--max-resident",
        type=int,
        default=4,
        help=(
            "LRU cap on loaded model engines; the least-recently-used one "
            "is dropped and reloaded from its file on next use"
        ),
    )
    serve.add_argument(
        "--tenant-rps",
        type=float,
        default=None,
        help=(
            "per-tenant (per-model) token-bucket rate limit in requests/s; "
            "excess answers 429 tenant_rate_limited + Retry-After"
        ),
    )
    serve.add_argument(
        "--tenant-burst",
        type=float,
        default=None,
        help="token-bucket burst size (default: max(1, 2x --tenant-rps))",
    )
    serve.add_argument(
        "--tenant-max-concurrent",
        type=int,
        default=None,
        help=(
            "per-tenant cap on in-flight requests; excess answers 429 "
            "tenant_quota_exceeded + Retry-After"
        ),
    )
    serve.add_argument(
        "--tenant-quotas",
        default=None,
        metavar="FILE",
        help=(
            "JSON quota config with per-tenant overrides "
            '({"defaults": {...}, "tenants": {name: {rps, burst, '
            'max_concurrent}}}); flags above set the defaults'
        ),
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help=(
            "default per-request deadline in milliseconds (requests may "
            "override via the deadline_ms payload field); expired requests "
            "answer 504 instead of being scored"
        ),
    )
    serve.add_argument(
        "--log-level",
        default=None,
        choices=["debug", "info", "warning", "error"],
        help="enable the structured access log at this level (default: off)",
    )
    serve.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write request traces as JSONL to FILE; inspect with trace-summary",
    )
    serve.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="P",
        help="probability a request is traced (default 1.0; e.g. 0.01 for soaks)",
    )

    loadgen = subparsers.add_parser(
        "loadgen", help="soak-test a serving target with reproducible traffic"
    )
    loadgen.add_argument("--dataset", default="ucihar", help="registry dataset name")
    loadgen.add_argument("--profile", default="tiny", choices=["tiny", "small", "full"])
    loadgen.add_argument("--seed", type=int, default=0)
    target_group = loadgen.add_mutually_exclusive_group()
    target_group.add_argument(
        "--url", default=None, help="live endpoint, e.g. http://127.0.0.1:8080"
    )
    target_group.add_argument(
        "--model",
        default=None,
        metavar="PATH",
        help="saved .npz model served in-process (default: train a quick baseline)",
    )
    loadgen.add_argument("--mode", default="closed", choices=["closed", "open"])
    loadgen.add_argument(
        "--rate", type=float, default=200.0, help="open-loop arrival rate (req/s)"
    )
    loadgen.add_argument(
        "--concurrency", type=int, default=4, help="closed-loop client count"
    )
    loadgen.add_argument(
        "--requests", type=int, default=None, help="measured requests (default 400)"
    )
    loadgen.add_argument(
        "--warmup", type=int, default=None, help="warm-up requests (default 40)"
    )
    loadgen.add_argument("--top-k", type=int, default=1)
    loadgen.add_argument(
        "--dimension", type=int, default=2000, help="D for the trained default model"
    )
    loadgen.add_argument("--max-batch-size", type=int, default=64)
    loadgen.add_argument(
        "--models",
        type=int,
        default=1,
        help=(
            "multi-tenant fleet soak: register the trained model under this "
            "many tenant names and spread requests over them with a Zipf "
            "distribution (default 1: single tenant)"
        ),
    )
    loadgen.add_argument(
        "--zipf-s",
        type=float,
        default=1.1,
        help="Zipf exponent for the tenant distribution (default 1.1)",
    )
    loadgen.add_argument(
        "--tenant-rps",
        type=float,
        default=None,
        help="per-tenant token-bucket rate limit for the in-process target",
    )
    loadgen.add_argument(
        "--tenant-burst",
        type=float,
        default=None,
        help="token-bucket burst size (default: max(1, 2x --tenant-rps))",
    )
    loadgen.add_argument(
        "--tenant-max-concurrent",
        type=int,
        default=None,
        help="per-tenant in-flight request cap for the in-process target",
    )
    loadgen.add_argument(
        "--tenant-quotas",
        default=None,
        metavar="FILE",
        help="JSON quota config for the in-process target (see repro serve)",
    )
    loadgen.add_argument(
        "--retries",
        type=int,
        default=None,
        help=(
            "client-side retries of typed 429/503 answers, honouring "
            "Retry-After with capped deterministic backoff (default: 3 when "
            "the soak is multi-tenant, else 0)"
        ),
    )
    loadgen.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help=(
            "attach this deadline (milliseconds) to every request; late "
            "answers must be 504, and the report counts any successful "
            "response that outlived it as a deadline violation"
        ),
    )
    loadgen.add_argument(
        "--json", default=None, metavar="PATH", help="also write the report as JSON"
    )
    loadgen.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "JSONL request-trace file for the in-process target (with --quick "
            "the file is also parsed and its span trees checked after the "
            "run); for --url targets pass --trace to the server side instead"
        ),
    )
    loadgen.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="P",
        help="probability a request is traced (default 1.0)",
    )
    loadgen.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: small sizes, then assert a well-formed non-degenerate report",
    )

    trace_summary = subparsers.add_parser(
        "trace-summary",
        help="per-stage latency breakdown of a JSONL trace file",
    )
    trace_summary.add_argument("trace_file", metavar="FILE", help="JSONL trace file")
    trace_summary.add_argument(
        "--json", default=None, metavar="PATH", help="also write the summary as JSON"
    )
    trace_summary.add_argument(
        "--exemplars",
        type=int,
        nargs="?",
        const=5,
        default=None,
        metavar="K",
        help=(
            "also list the K slowest request spans with their trace IDs "
            "(default K=5) — the file-side view of the metrics exemplars"
        ),
    )

    top = subparsers.add_parser(
        "top",
        help="live terminal dashboard over a serving endpoint's /v1/metrics",
    )
    top.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="serving endpoint to poll (default http://127.0.0.1:8080)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="poll interval (default 2.0)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render a single poll and exit (no QPS column — rates need two)",
    )
    top.add_argument(
        "--json",
        action="store_true",
        help="emit the view as JSON instead of the ANSI screen (CI smoke mode)",
    )

    return parser


def _build_encoder(args) -> RecordEncoder:
    encoder_cls = RecordEncoder if args.encoder == "record" else NGramEncoder
    return encoder_cls(
        dimension=args.dimension, num_levels=args.num_levels, seed=args.seed
    )


def _build_classifier(name: str, dataset: str, args):
    lehdc_config = get_paper_config(dataset).with_overrides(
        epochs=args.epochs, batch_size=64, learning_rate=0.01
    )
    factories = {
        "baseline": lambda: BaselineHDC(seed=args.seed),
        "multimodel": lambda: MultiModelHDC(models_per_class=8, iterations=2, seed=args.seed),
        "retraining": lambda: RetrainingHDC(iterations=args.iterations, seed=args.seed),
        "adapthd": lambda: AdaptHDC(iterations=args.iterations, seed=args.seed),
        "enhanced": lambda: EnhancedRetrainingHDC(iterations=args.iterations, seed=args.seed),
        "lehdc": lambda: LeHDCClassifier(config=lehdc_config, seed=args.seed),
        "lehdc-nonbinary": lambda: NonBinaryLeHDCClassifier(config=lehdc_config, seed=args.seed),
    }
    return factories[name]()


def command_list_datasets() -> int:
    rows = []
    for name in list_datasets():
        real = try_load_real_dataset(name)
        source = "real files found" if real is not None else "synthetic substitute"
        rows.append([name, source])
    print(format_table(["dataset", "data source"], rows, title="Registered benchmarks"))
    return 0


def command_train(args) -> int:
    data = get_dataset(args.dataset, profile=args.profile, seed=args.seed)
    print(f"Dataset: {data.describe()}")
    pipeline = HDCPipeline(_build_encoder(args), _build_classifier(args.strategy, args.dataset, args))
    pipeline.fit(data.train_features, data.train_labels)
    train_accuracy = pipeline.score(data.train_features, data.train_labels)
    test_accuracy = pipeline.score(data.test_features, data.test_labels)
    print(f"{args.strategy}: train accuracy {train_accuracy:.4f}, test accuracy {test_accuracy:.4f}")
    if args.save:
        destination = save_model(args.save, pipeline, strategy_name=args.strategy)
        print(f"Model saved to {destination}")
    return 0


def command_compare(args) -> int:
    data = get_dataset(args.dataset, profile=args.profile, seed=args.seed)
    print(f"Dataset: {data.describe()}")
    encoder = _build_encoder(args)
    encoder.fit(data.train_features)
    train_encoded = encoder.encode(data.train_features)
    test_encoded = encoder.encode(data.test_features)

    rows = []
    for strategy in ("baseline", "multimodel", "retraining", "lehdc"):
        classifier = _build_classifier(strategy, args.dataset, args)
        classifier.fit(train_encoded, data.train_labels)
        rows.append(
            [
                strategy,
                f"{classifier.score(train_encoded, data.train_labels):.4f}",
                f"{classifier.score(test_encoded, data.test_labels):.4f}",
            ]
        )
        print(f"  trained {strategy}")
    print(
        format_table(
            ["strategy", "train acc", "test acc"],
            rows,
            title=f"Strategy comparison on {args.dataset} (D={args.dimension})",
        )
    )
    return 0


def command_sweep(args) -> int:
    lehdc_config = get_paper_config(args.dataset).with_overrides(
        epochs=args.epochs, batch_size=64, learning_rate=0.01
    )
    strategies = {
        "baseline": lambda rng: BaselineHDC(seed=rng),
        "retraining": lambda rng: RetrainingHDC(iterations=args.iterations, seed=rng),
        "lehdc": lambda rng: LeHDCClassifier(config=lehdc_config, seed=rng),
    }
    result = run_dimension_sweep(
        dataset_name=args.dataset,
        dimensions=args.dimensions,
        strategies=strategies,
        num_levels=args.num_levels,
        repetitions=1,
        profile=args.profile,
        seed=args.seed,
    )
    rows = [
        [dimension]
        + [f"{result.summary(name)[dimension].mean:.4f}" for name in strategies]
        for dimension in result.dimensions
    ]
    print(
        format_table(
            ["D"] + list(strategies),
            rows,
            title=f"Accuracy vs dimension on {args.dataset}",
        )
    )
    return 0


def command_predict(args) -> int:
    pipeline = load_model(args.model)
    data = get_dataset(args.dataset, profile=args.profile, seed=args.seed)
    accuracy = pipeline.score(data.test_features, data.test_labels)
    print(f"Loaded model from {args.model}")
    print(f"Test accuracy on {args.dataset} ({args.profile} profile): {accuracy:.4f}")
    return 0


def command_serve(args) -> int:  # pragma: no cover - blocking server loop
    from repro.serve import ModelRegistry, ServeApp
    from repro.serve.server import run_server

    from pathlib import Path

    if not _trace_sample_ok(args):
        return 1
    try:
        tenant_quotas = _build_tenant_quotas(args)
    except (OSError, ValueError) as error:
        print(f"error: bad tenant quotas: {error}", file=sys.stderr)
        return 1
    registry = ModelRegistry(max_resident=args.max_resident)
    for spec in args.model:
        # NAME=PATH syntax; a bare PATH takes the file stem as its name.
        name, _, path = spec.rpartition("=")
        path = path or spec
        try:
            registry.register(name or Path(path).stem, path)
        except (OSError, ValueError) as error:
            print(f"error: cannot load model {path!r}: {error}", file=sys.stderr)
            return 1
    tracer = _build_tracer(args)
    if tracer is not None:
        print(f"tracing to {args.trace} (sample rate {args.trace_sample:g})")
    app = ServeApp(
        registry,
        max_batch_size=args.max_batch_size,
        default_deadline_ms=args.deadline_ms,
        tenant_quotas=tenant_quotas,
        tracer=tracer,
    )
    try:
        run_server(app, host=args.host, port=args.port, log_level=args.log_level)
    finally:
        if tracer is not None:
            tracer.close()
    return 0


def _trace_sample_ok(args) -> bool:
    """Whether ``--trace-sample`` is a probability; if not, print the error.

    Checked before any model is loaded or trained and before ``--trace``
    opens its file, so a bad rate costs nothing and leaves no empty file.
    """
    if 0.0 <= args.trace_sample <= 1.0:
        return True
    print(
        f"error: --trace-sample must be in [0, 1], got {args.trace_sample:g}",
        file=sys.stderr,
    )
    return False


def _build_tracer(args):
    """A JSONL ``Tracer`` for ``--trace FILE`` (at ``--trace-sample``), or
    ``None``."""
    if not args.trace:
        return None
    from repro.obs import JsonlSink, Tracer

    return Tracer(JsonlSink(args.trace), sample_rate=args.trace_sample)


def _build_tenant_quotas(args):
    """``TenantQuotas`` from the CLI flags / config file, or ``None``.

    Explicit flags win over the config file's ``defaults``; ``None`` flags
    are simply not forwarded so the file's values survive.
    """
    from repro.serve.tenancy import TenantQuotas

    overrides = {}
    if args.tenant_rps is not None:
        overrides["rps"] = args.tenant_rps
    if args.tenant_burst is not None:
        overrides["burst"] = args.tenant_burst
    if args.tenant_max_concurrent is not None:
        overrides["max_concurrent"] = args.tenant_max_concurrent
    if args.tenant_quotas:
        return TenantQuotas.from_file(args.tenant_quotas, **overrides)
    if not overrides:
        return None
    return TenantQuotas(**overrides)


def command_loadgen(args) -> int:
    from pathlib import Path

    from repro.loadgen import (
        ClosedLoop,
        HTTPTarget,
        InProcessTarget,
        OpenLoop,
        RequestSampler,
        format_report,
        run_load_test,
        validate_exemplars,
        validate_report,
        write_report,
    )

    num_requests = args.requests if args.requests is not None else (120 if args.quick else 400)
    warmup = args.warmup if args.warmup is not None else (16 if args.quick else 40)
    dimension = min(args.dimension, 1000) if args.quick else args.dimension

    if args.models < 1:
        print("error: --models must be >= 1", file=sys.stderr)
        return 1
    if not _trace_sample_ok(args):
        return 1
    if args.models > 1 and args.url:
        print(
            "error: --models drives the in-process target (it registers the "
            "tenant fleet); register the models on the server for --url soaks",
            file=sys.stderr,
        )
        return 1

    tenant_names = None
    if args.models > 1:
        tenant_names = [f"{args.dataset}-t{i:02d}" for i in range(args.models)]
    sampler = RequestSampler(
        dataset=args.dataset,
        profile=args.profile,
        seed=args.seed,
        models=tenant_names,
        zipf_s=args.zipf_s,
    )
    if args.mode == "open":
        traffic = OpenLoop(rate_rps=args.rate, seed=args.seed)
    else:
        traffic = ClosedLoop(concurrency=args.concurrency)

    app = tracer = None
    if args.url:
        try:
            target = HTTPTarget(
                args.url, top_k=args.top_k, deadline_ms=args.deadline_ms
            )
        except ValueError as error:
            print(f"error: bad --url: {error}", file=sys.stderr)
            return 1
    else:
        from repro.serve import ModelRegistry, PackedInferenceEngine, ServeApp

        registry = ModelRegistry(max_resident=max(4, args.models))
        if args.model:
            try:
                for name in tenant_names or [Path(args.model).stem]:
                    registry.register(name, args.model)
            except (OSError, ValueError) as error:
                print(f"error: cannot load model {args.model!r}: {error}", file=sys.stderr)
                return 1
        else:
            # No model given: train a quick deterministic baseline on the
            # sampler's own dataset so the soak exercises a real pipeline.
            encoder = RecordEncoder(
                dimension=dimension,
                num_levels=16,
                tie_break="positive",
                seed=args.seed,
            )
            pipeline = HDCPipeline(encoder, BaselineHDC(seed=args.seed))
            pipeline.fit(sampler.train_features, sampler.train_labels)
            engine = PackedInferenceEngine(pipeline, name=args.dataset)
            if tenant_names is None:
                registry.register(args.dataset, engine)
            else:
                # Multi-tenant soak: every tenant serves the same trained
                # model (pinned, so registering N names costs one training
                # run); schedulers and quotas are still per tenant.
                for tenant in tenant_names:
                    registry.register(tenant, engine)
        try:
            tenant_quotas = _build_tenant_quotas(args)
        except (OSError, ValueError) as error:
            print(f"error: bad tenant quotas: {error}", file=sys.stderr)
            return 1
        tracer = _build_tracer(args)
        app = ServeApp(
            registry,
            max_batch_size=args.max_batch_size,
            tenant_quotas=tenant_quotas,
            tracer=tracer,
        )
        target = InProcessTarget(
            app, top_k=args.top_k, deadline_ms=args.deadline_ms
        )

    retries = args.retries
    if retries is None:
        # Multi-tenant soaks shed requests by design; the client's job is to
        # retry the typed answers, so default those on.
        retries = 3 if args.models > 1 else 0

    try:
        report = run_load_test(
            target,
            sampler,
            traffic,
            num_requests=num_requests,
            warmup_requests=warmup,
            max_retries=retries,
        )
    finally:
        if app is not None:
            app.close()
        if args.url:
            target.close()
        if tracer is not None:
            tracer.close()

    print(format_report(report))
    if args.json:
        destination = write_report(args.json, report)
        print(f"report written to {destination}")
    if args.quick:
        traced = bool(args.trace) and not args.url
        try:
            validate_report(report)
            if traced:
                # At least one latency bucket must link back to a trace_id.
                validate_exemplars(report)
        except ValueError as error:
            print(f"error: quick-mode report invalid: {error}", file=sys.stderr)
            return 1
        print(
            "quick-mode report validated: non-zero throughput, "
            "monotone percentiles, zero errors, every request counted by the server"
        )
        if traced:
            # The CI tracing smoke: the file must parse strictly, carry the
            # scheduler's spans, and stitch into whole trees — the queue_wait
            # and batch_execute spans are written by whichever caller leads
            # the batch and reach their request only through the handed-over
            # context.
            from repro.obs import parse_trace_file, summarize_spans

            spans = parse_trace_file(args.trace)
            summary = summarize_spans(spans)
            missing = {"request", "queue_wait", "batch_execute"} - set(summary["stages"])
            if missing:
                print(
                    f"error: trace has no {', '.join(sorted(missing))} spans "
                    f"(stages: {sorted(summary['stages'])})",
                    file=sys.stderr,
                )
                return 1
            if summary["orphans"]:
                print(
                    f"error: {summary['orphans']} orphan spans in trace "
                    "(a parent span never reached the file)",
                    file=sys.stderr,
                )
                return 1
            print(
                f"trace validated: {summary['traces']} traces, "
                f"{summary['spans']} spans, 0 orphans, "
                f"stages {', '.join(sorted(summary['stages']))}"
            )
    return 0


def command_trace_summary(args) -> int:
    from repro.obs import format_trace_summary, parse_trace_file, summarize_spans
    from repro.obs.summary import format_exemplars, slowest_exemplars

    try:
        spans = parse_trace_file(args.trace_file)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    summary = summarize_spans(spans)
    print(format_trace_summary(summary))
    exemplars = None
    if args.exemplars is not None:
        try:
            exemplars = slowest_exemplars(spans, k=args.exemplars)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(format_exemplars(exemplars))
    if args.json:
        import json

        if exemplars is not None:
            summary = dict(summary, exemplars=exemplars)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        print(f"summary written to {args.json}")
    return 0


def command_top(args) -> int:
    from repro.obs.console import DEFAULT_INTERVAL, run_console

    interval = args.interval if args.interval is not None else DEFAULT_INTERVAL
    if interval <= 0:
        print("error: --interval must be > 0", file=sys.stderr)
        return 1
    return run_console(
        args.url, interval=interval, once=args.once, as_json=args.json
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list-datasets":
        return command_list_datasets()
    if args.command == "train":
        return command_train(args)
    if args.command == "compare":
        return command_compare(args)
    if args.command == "sweep":
        return command_sweep(args)
    if args.command == "predict":
        return command_predict(args)
    if args.command == "serve":
        return command_serve(args)
    if args.command == "loadgen":
        return command_loadgen(args)
    if args.command == "trace-summary":
        return command_trace_summary(args)
    if args.command == "top":
        return command_top(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
