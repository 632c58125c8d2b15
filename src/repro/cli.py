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
  models over JSON/HTTP with packed inference in one process
  (``--trace FILE`` writes JSONL request traces, ``--log-level info``
  enables the access log, and ``GET /metrics`` exposes Prometheus text
  format);
* ``python -m repro trace-summary trace.jsonl`` — per-stage latency
  breakdown (count/p50/p95/max per span name) of a recorded trace file;
  ``--exemplars K`` lists the K slowest request traces by ID.

Performance is measured by ``perfbench/`` (see ``BENCHMARK.json``), not by
a CLI command.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

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
from repro.hdc.encoders import RecordEncoder
from repro.io import check_savable, load_model, save_model

STRATEGY_CHOICES = (
    "baseline",
    "multimodel",
    "retraining",
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
        help=(
            "saved .npz model to serve; repeatable, each NAME once; NAME "
            "defaults to the file stem"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
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
        "--tenant-quotas",
        default=None,
        metavar="FILE",
        help=(
            "JSON quota config with per-tenant overrides "
            '({"defaults": {...}, "tenants": {name: {rps, burst}}}); '
            "flags above set the defaults"
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

    return parser


def _build_encoder(args) -> RecordEncoder:
    return RecordEncoder(
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
    classifier = _build_classifier(args.strategy, args.dataset, args)
    if args.save:
        # Refuse a model that a file cannot hold before training it.
        try:
            check_savable(classifier)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    data = get_dataset(args.dataset, profile=args.profile, seed=args.seed)
    print(f"Dataset: {data.describe()}")
    pipeline = HDCPipeline(_build_encoder(args), classifier)
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
    try:
        pipeline = load_model(args.model)
    except (OSError, ValueError) as error:
        print(f"error: cannot load model {args.model!r}: {error}", file=sys.stderr)
        return 1
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
    # NAME=PATH syntax; a bare PATH takes the file stem as its name.  A NAME
    # holds no '/', so a spec whose text before its first '=' does is a bare
    # PATH with '=' in a directory name (runs/lr=0.1/m.npz).  Each name serves
    # one model: a name given twice is refused before any model loads.
    paths = {}
    for spec in args.model:
        name, _, path = spec.partition("=")
        if not path or "/" in name:
            name, path = "", spec
        name = name or Path(path).stem
        if name in paths:
            print(
                f"error: --model name {name!r} given twice "
                f"({paths[name]!r} and {path!r})",
                file=sys.stderr,
            )
            return 1
        paths[name] = path
    registry = ModelRegistry()
    for name, path in paths.items():
        try:
            registry.register(name, path)
        except (OSError, ValueError) as error:
            print(f"error: cannot load model {path!r}: {error}", file=sys.stderr)
            return 1
    tracer = _build_tracer(args)
    if tracer is not None:
        print(f"tracing to {args.trace} (sample rate {args.trace_sample:g})")
    app = ServeApp(
        registry,
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

    Checked before any model is loaded and before ``--trace`` opens its
    file, so a bad rate costs nothing and leaves no empty file.
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
    if args.tenant_quotas:
        return TenantQuotas.from_file(args.tenant_quotas, **overrides)
    if not overrides:
        return None
    return TenantQuotas(**overrides)


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
    if args.command == "trace-summary":
        return command_trace_summary(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
