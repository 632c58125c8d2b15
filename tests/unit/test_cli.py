"""Unit tests for the command-line interface (repro.cli)."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.cli import build_parser, main
from repro.hdc.encoders import RecordEncoder
from repro.io import save_model


def _retired(command, flag, *values):
    """A case passing the deleted *flag* (with its *values*) to *command*.

    The flag is spelled without its dashes so that searching the tree for
    live uses of a deleted flag does not match this list.
    """
    prefix = [command, "--model", "m.npz"] if command == "serve" else [command]
    dashed = "--" + flag
    return pytest.param(prefix + [dashed, *values], dashed, id=f"{command}-{flag}")


def _subparsers():
    parser = build_parser()
    action = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return action.choices


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_command_set(self):
        # perfbench is the one benchmark and load client: no bench, loadgen
        # or top command comes back.
        assert sorted(_subparsers()) == [
            "compare", "list-datasets", "predict", "serve", "sweep", "trace-summary",
            "train",
        ]

    def test_serve_keeps_its_ten_flags(self):
        serve = _subparsers()["serve"]
        flags = {
            option
            for action in serve._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        assert flags == {
            "--model", "--host", "--port", "--tenant-rps", "--tenant-burst",
            "--tenant-quotas", "--deadline-ms", "--log-level", "--trace",
            "--trace-sample",
        }

    def test_trace_summary_exemplars_flag(self):
        parse = build_parser().parse_args
        assert parse(["trace-summary", "t.jsonl"]).exemplars is None
        assert parse(["trace-summary", "t.jsonl", "--exemplars"]).exemplars == 5
        assert parse(["trace-summary", "t.jsonl", "--exemplars", "2"]).exemplars == 2

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.command == "train"
        assert args.strategy == "lehdc"
        assert args.profile == "tiny"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--strategy", "svm"])

    @pytest.mark.parametrize(
        "argv, retired",
        [
            pytest.param(
                ["serve", "--model", "m.npz", "--transport", "shm"],
                "--transport",
                id="serve-transport",
            ),
            pytest.param(
                ["serve", "--model", "m.npz", "--kernel-backend", "threaded"],
                "--kernel-backend",
                id="kernel-backend",
            ),
            pytest.param(["bench-dispatch", "--quick"], "bench-dispatch", id="bench-dispatch"),
            pytest.param(["bench-serve"], "bench-serve", id="bench-serve"),
            pytest.param(["bench-kernels", "--quick"], "bench-kernels", id="bench-kernels"),
            pytest.param(["bench-train", "--quick"], "bench-train", id="bench-train"),
            _retired("serve", "workers", "2"),
            _retired("serve", "max-resident-banks", "4"),
            _retired("serve", "request-timeout", "1.0"),
            _retired("serve", "faults", "quick"),
            _retired("serve", "cache-size", "0"),
            _retired("serve", "max-queue-depth", "8"),
            _retired("serve", "max-concurrent", "2"),
            _retired("serve", "verbose"),
            _retired("serve", "slo-config", "slo.json"),
            _retired("serve", "max-resident", "2"),
            _retired("serve", "max-batch-size", "64"),
            _retired("serve", "tenant-max-concurrent", "8"),
            _retired("train", "encoder", "ngram"),
            _retired("compare", "encoder", "ngram"),
            _retired("sweep", "encoder", "ngram"),
            pytest.param(
                ["train", "--strategy", "adapthd"],
                "invalid choice: 'adapthd'",
                id="train-strategy-adapthd",
            ),
            pytest.param(["loadgen", "--quick"], "loadgen", id="loadgen"),
            pytest.param(["top", "--once"], "top", id="top"),
        ],
    )
    def test_retired_flags_and_commands_are_rejected(self, argv, retired, capsys):
        # Serving runs in one process with tenant rate quotas as its one
        # admission limit, one engine call per predict, every model loaded
        # at start, no prediction cache and no SLO engine, the kernels have
        # one NumPy executor, the record encoder is the one encoder, and
        # perfbench is the only benchmark and the only load client: a stale
        # script fails at parse time.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert retired in capsys.readouterr().err


class TestCommands:
    def test_list_datasets(self, capsys):
        assert main(["list-datasets"]) == 0
        output = capsys.readouterr().out
        assert "mnist" in output
        assert "pamap" in output

    def test_train_baseline_quick(self, capsys):
        code = main(
            [
                "train",
                "--dataset",
                "pamap",
                "--strategy",
                "baseline",
                "--dimension",
                "512",
                "--profile",
                "tiny",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "test accuracy" in output

    def test_train_save_and_predict(self, tmp_path, capsys):
        model_path = tmp_path / "cli_model.npz"
        assert (
            main(
                [
                    "train",
                    "--dataset",
                    "pamap",
                    "--strategy",
                    "baseline",
                    "--dimension",
                    "512",
                    "--save",
                    str(model_path),
                ]
            )
            == 0
        )
        assert model_path.exists()
        assert (
            main(
                [
                    "predict",
                    "--model",
                    str(model_path),
                    "--dataset",
                    "pamap",
                    "--profile",
                    "tiny",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Test accuracy" in output

    def test_train_refuses_to_save_a_model_a_file_cannot_hold(self, tmp_path, capsys):
        # A model file holds binary class hypervectors scored by Hamming
        # distance; non-binary LeHDC scores by cosine over real weights, so
        # it is refused before it trains rather than saved to score
        # differently once loaded.
        path = tmp_path / "nb.npz"
        argv = ["train", "--strategy", "lehdc-nonbinary", "--epochs", "1", "--save", str(path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: NonBinaryLeHDCClassifier cannot be saved")
        assert not path.exists()

    def test_compare_quick(self, capsys):
        code = main(
            [
                "compare",
                "--dataset",
                "pamap",
                "--dimension",
                "512",
                "--epochs",
                "5",
                "--iterations",
                "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "lehdc" in output
        assert "baseline" in output

    def test_sweep_quick(self, capsys):
        code = main(
            [
                "sweep",
                "--dataset",
                "pamap",
                "--dimensions",
                "256",
                "512",
                "--epochs",
                "5",
                "--iterations",
                "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "256" in output and "512" in output


class TestTenantFlags:
    def test_serve_tenant_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "--model", "m.npz",
                "--tenant-rps", "50", "--tenant-burst", "100",
            ]
        )
        assert args.tenant_rps == 50.0
        assert args.tenant_burst == 100.0

    def test_build_tenant_quotas_from_flags_and_file(self, tmp_path):
        import json

        from repro.cli import _build_tenant_quotas

        def quotas(*flags):
            args = build_parser().parse_args(["serve", "--model", "m.npz", *flags])
            return _build_tenant_quotas(args)

        assert quotas() is None
        assert quotas("--tenant-rps", "5").default_rps == 5.0
        path = tmp_path / "quotas.json"
        path.write_text(json.dumps({"defaults": {"rps": 9, "burst": 3}}))
        from_file = quotas("--tenant-quotas", str(path))
        # File defaults survive when the flags are unset...
        assert from_file.default_rps == 9.0
        assert from_file.default_burst == 3
        overridden = quotas("--tenant-quotas", str(path), "--tenant-rps", "2")
        # ...and explicit flags beat the file.
        assert overridden.default_rps == 2.0
        assert overridden.default_burst == 3

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--tenant-quotas", '{"tenants": {"a": {"rps": 0}}}', "bad tenant quotas:"),
            ("--tenant-quotas", '{"defaults": {"rps": "abc"}}', "bad tenant quotas:"),
            ("--tenant-quotas", '{"defaults": {"max_concurrent": 1}}', "bad tenant quotas:"),
            ("--trace-sample", "1.5", "--trace-sample must be in [0, 1], got 1.5"),
            ("--trace-sample", "-1", "--trace-sample must be in [0, 1], got -1"),
            ("--trace-sample", "nan", "--trace-sample must be in [0, 1], got nan"),
            ("--model", "a=b.npz", "--model name 'a' given twice"),
            ("--model", "elsewhere/a.npz", "--model name 'a' given twice"),
        ],
        ids=[
            "quota-zero",
            "quota-not-a-number",
            "quota-max-concurrent",
            "trace-sample-above-one",
            "trace-sample-negative",
            "trace-sample-nan",
            "model-name-twice",
            "model-file-stem-twice",
        ],
    )
    def test_serve_rejects_a_bad_config_without_serving(
        self, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        import repro.serve.server as server
        from repro.serve.registry import ModelRegistry

        def refuse(*args, **kwargs):
            raise AssertionError("a bad config reached a model load or the server")

        monkeypatch.setattr(server, "run_server", refuse)
        monkeypatch.setattr(ModelRegistry, "register", refuse)
        if flag == "--tenant-quotas":
            config = tmp_path / "config.json"
            config.write_text(value)
            value = str(config)
        trace = tmp_path / "trace.jsonl"
        argv = ["serve", "--model", f"a={tmp_path / 'a.npz'}", "--trace", str(trace)]
        assert main(argv + [flag, value]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert err.count("error:") == 1
        assert not trace.exists()


    @pytest.mark.parametrize(
        "specs, registered",
        [
            (
                ["a=x/m.npz", "b=y/m.npz"],
                [("a", "x/m.npz"), ("b", "y/m.npz")],
            ),
            (["x/a.npz", "y/b.npz"], [("a", "x/a.npz"), ("b", "y/b.npz")]),
            (["a=x/m.npz", "y/m.npz"], [("a", "x/m.npz"), ("m", "y/m.npz")]),
            (["runs/lr=0.1/m.npz"], [("m", "runs/lr=0.1/m.npz")]),
            (["a=runs/lr=0.1/m.npz"], [("a", "runs/lr=0.1/m.npz")]),
        ],
        ids=[
            "names-share-a-file-stem",
            "bare-paths",
            "name-beside-bare-path",
            "bare-path-with-an-equals-sign",
            "name-and-path-with-an-equals-sign",
        ],
    )
    def test_serve_registers_each_distinct_name_once(
        self, monkeypatch, capsys, specs, registered
    ):
        # Names are compared, not files: two models may share a file stem
        # when their names differ, and each is registered exactly once.
        import repro.serve.server as server
        from repro.serve.registry import ModelRegistry

        calls = []
        served = []
        monkeypatch.setattr(
            ModelRegistry, "register", lambda self, name, path: calls.append((name, path))
        )
        monkeypatch.setattr(server, "run_server", lambda app, **kwargs: served.append(app))
        argv = ["serve"]
        for spec in specs:
            argv += ["--model", spec]
        assert main(argv) == 0
        assert calls == registered
        assert len(served) == 1
        assert "error:" not in capsys.readouterr().err


def _write_trace(path, spans):
    """A JSONL trace file of hand-built span records (durations fixed)."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    return path


def _trace_spans():
    """Two stitched predicts: trace ``slow`` (9 ms) and ``fast`` (2 ms)."""
    spans = []
    for trace, request_ms in (("slow", 9.0), ("fast", 2.0)):
        root = f"{trace}-request"
        spans.append(
            {"v": 1, "trace": trace, "span": root, "parent": None, "name": "request",
             "ts": 0.0, "dur_ms": request_ms, "attrs": {"model": "har"}}
        )
        for stage, dur_ms in (("validate", 0.1), ("batch_execute", 1.0),
                              ("respond", 0.5)):
            spans.append(
                {"v": 1, "trace": trace, "span": f"{trace}-{stage}", "parent": root,
                 "name": stage, "ts": 0.0, "dur_ms": dur_ms, "attrs": {}}
            )
    return spans


@pytest.fixture(scope="module")
def saved_model(small_problem, tmp_path_factory):
    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=0)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=0))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    return save_model(tmp_path_factory.mktemp("cli") / "model.npz", pipeline)


class TestServeModelFiles:
    @pytest.mark.parametrize(
        "kind",
        [
            "missing",
            "empty",
            "plain-text",
            "truncated",
            "no-class-hypervectors",
            "single-array",
            "no-num-levels",
        ],
    )
    def test_a_model_that_cannot_load_is_one_error_line(
        self, saved_model, tmp_path, capsys, monkeypatch, kind
    ):
        # Every model loads before the server starts, so a file that is not
        # a model stops `repro serve` with one line, not a traceback and not
        # a server that answers every predict 500.
        import repro.serve.server as server

        def refuse(*args, **kwargs):
            raise AssertionError("a model that cannot load reached the server")

        monkeypatch.setattr(server, "run_server", refuse)
        path = tmp_path / "m.npz"
        if kind == "empty":
            path.write_bytes(b"")
        elif kind == "plain-text":
            path.write_text("not a model\n")
        elif kind == "truncated":
            path.write_bytes(saved_model.read_bytes()[:200])
        elif kind == "no-class-hypervectors":
            with np.load(saved_model) as archive:
                arrays = {
                    key: archive[key]
                    for key in archive.files
                    if key != "class_hypervectors"
                }
            np.savez_compressed(path, **arrays)
        elif kind == "single-array":
            with open(path, "wb") as handle:
                np.save(handle, np.zeros(3))
        elif kind == "no-num-levels":
            with np.load(saved_model) as archive:
                arrays = {key: archive[key] for key in archive.files}
            metadata = json.loads(arrays["metadata_json"].tobytes())
            del metadata["num_levels"]
            arrays["metadata_json"] = np.frombuffer(
                json.dumps(metadata).encode(), dtype=np.uint8
            )
            np.savez_compressed(path, **arrays)
        assert main(["serve", "--model", str(path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: cannot load model {str(path)!r}: ")
        assert "pickle" not in line

    def test_one_model_that_cannot_load_stops_the_whole_set(
        self, saved_model, tmp_path, capsys, monkeypatch
    ):
        # Models load in the order given: a bad file after a good one still
        # stops `repro serve` before it listens, with one line naming it.
        import repro.serve.server as server

        def refuse(*args, **kwargs):
            raise AssertionError("a model that cannot load reached the server")

        monkeypatch.setattr(server, "run_server", refuse)
        bad = tmp_path / "bad.npz"
        bad.write_bytes(saved_model.read_bytes()[:200])
        argv = ["serve", "--model", f"a={saved_model}", "--model", f"b={bad}"]
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: cannot load model {str(bad)!r}: ")


class TestPredictModelFiles:
    @pytest.mark.parametrize("kind", ["missing", "truncated"])
    def test_a_model_that_cannot_load_is_one_error_line(
        self, saved_model, tmp_path, capsys, kind
    ):
        # As `repro serve` does: one line, exit 1, no traceback.
        path = tmp_path / "m.npz"
        if kind == "truncated":
            path.write_bytes(saved_model.read_bytes()[:200])
        assert main(["predict", "--model", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: cannot load model {str(path)!r}: ")


class TestTraceSummary:
    """``repro trace-summary``, the CI smoke's reader of ``repro serve --trace``."""

    def test_prints_one_row_per_stage(self, tmp_path, capsys):
        path = _write_trace(tmp_path / "trace.jsonl", _trace_spans())
        assert main(["trace-summary", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Trace summary: 2 traces, 8 spans"
        stages = [line.split(" | ")[0].strip() for line in lines[3:]]
        assert stages == ["request", "validate", "batch_execute", "respond"]

    def test_orphan_spans_are_flagged(self, tmp_path, capsys):
        spans = _trace_spans()
        spans[1]["parent"] = "never-written"
        path = _write_trace(tmp_path / "trace.jsonl", spans)
        assert main(["trace-summary", str(path)]) == 0
        assert "1 orphan spans" in capsys.readouterr().out

    def test_exemplars_list_the_slowest_requests(self, tmp_path, capsys):
        path = _write_trace(tmp_path / "trace.jsonl", _trace_spans())
        assert main(["trace-summary", str(path), "--exemplars", "1"]) == 0
        output = capsys.readouterr().out
        assert "Slowest 'request' spans (trace exemplars)" in output
        (row,) = [line for line in output.splitlines() if line.startswith("slow ")]
        assert [cell.strip() for cell in row.split(" | ")] == ["slow", "har", "9.000"]
        assert "fast" not in output

    def test_json_carries_the_summary_and_the_exemplars(self, tmp_path, capsys):
        path = _write_trace(tmp_path / "trace.jsonl", _trace_spans())
        out = tmp_path / "summary.json"
        argv = ["trace-summary", str(path), "--json", str(out)]
        assert main(argv + ["--exemplars", "2"]) == 0
        summary = json.loads(out.read_text())
        assert (summary["traces"], summary["spans"], summary["orphans"]) == (2, 8, 0)
        assert summary["stages"]["request"]["max_ms"] == 9.0
        assert [row["trace_id"] for row in summary["exemplars"]] == ["slow", "fast"]
        assert main(argv) == 0
        assert "exemplars" not in json.loads(out.read_text())
        assert f"summary written to {out}" in capsys.readouterr().out

    def test_a_bad_exemplar_count_is_one_error_line(self, tmp_path, capsys):
        path = _write_trace(tmp_path / "trace.jsonl", _trace_spans())
        out = tmp_path / "summary.json"
        argv = ["trace-summary", str(path), "--exemplars", "0", "--json", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: k must be >= 1, got 0" in err
        assert err.count("error:") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "No such file"),
            ('{"trace": "t"\n', "invalid JSON"),
            ('{"trace": "t", "span": "s", "name": "request", "ts": 0}\n',
             "missing 'dur_ms'"),
        ],
        ids=["missing-file", "invalid-json", "missing-field"],
    )
    def test_an_unreadable_trace_is_one_error_line(
        self, tmp_path, capsys, content, message
    ):
        path = tmp_path / "trace.jsonl"
        if content is not None:
            path.write_text(content)
        assert main(["trace-summary", str(path)]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.err.count("error:") == 1
        assert captured.out == ""


class TestImportCost:
    def test_importing_the_cli_does_not_load_scipy(self):
        """``repro serve`` needs only NumPy: SciPy loads on first use of a
        significance test, never on import."""
        src = str(Path(repro.__file__).resolve().parents[1])
        probe = (
            "import sys, repro.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "[]"

    def test_importing_repro_does_not_load_the_serving_stack(self):
        """A training run imports ``repro``: the serving stack and its HTTP
        modules load only with ``repro.serve``."""
        src = str(Path(repro.__file__).resolve().parents[1])
        probe = (
            "import sys, repro; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('repro.serve', 'http.server'))))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "[]"
