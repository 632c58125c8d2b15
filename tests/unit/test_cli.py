"""Unit tests for the command-line interface (repro.cli)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.classifiers.pipeline import HDCPipeline
from repro.cli import build_parser, main


def _retired(command, flag, *values):
    """A case passing the deleted *flag* (with its *values*) to *command*.

    The flag is spelled without its dashes so that searching the tree for
    live uses of a deleted flag does not match this list.
    """
    prefix = [command, "--model", "m.npz"] if command == "serve" else [command]
    dashed = "--" + flag
    return pytest.param(prefix + [dashed, *values], dashed, id=f"{command}-{flag}")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.command == "train"
        assert args.strategy == "lehdc"
        assert args.profile == "tiny"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--strategy", "svm"])

    def test_serve_residency_flag(self):
        args = build_parser().parse_args(
            ["serve", "--model", "m.npz", "--max-resident", "2"]
        )
        assert args.max_resident == 2

    @pytest.mark.parametrize(
        "argv, retired",
        [
            pytest.param(
                ["serve", "--model", "m.npz", "--transport", "shm"],
                "--transport",
                id="serve-transport",
            ),
            pytest.param(["loadgen", "--transport", "tcp"], "--transport", id="loadgen-transport"),
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
            _retired("loadgen", "workers", "2"),
            _retired("loadgen", "max-resident-banks", "4"),
            _retired("loadgen", "request-timeout", "1.0"),
            _retired("loadgen", "faults", "quick"),
            _retired("loadgen", "min-availability", "0.9"),
            _retired("serve", "cache-size", "0"),
            _retired("serve", "max-queue-depth", "8"),
            _retired("serve", "max-concurrent", "2"),
            _retired("serve", "verbose"),
            _retired("loadgen", "cache-size", "0"),
            _retired("loadgen", "max-queue-depth", "8"),
            _retired("loadgen", "max-concurrent", "2"),
            _retired("serve", "slo-config", "slo.json"),
            _retired("loadgen", "slo-config", "slo.json"),
        ],
    )
    def test_retired_flags_and_commands_are_rejected(self, argv, retired, capsys):
        # Serving runs in one process with tenant quotas as its one admission
        # limit, no prediction cache and no SLO engine, the kernels have one
        # NumPy executor, and perfbench is the only benchmark: a stale script
        # fails at parse time.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert retired in capsys.readouterr().err

    def test_loadgen_defaults_and_target_exclusivity(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.command == "loadgen"
        assert args.mode == "closed"
        assert args.url is None and args.model is None
        assert args.quick is False
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["loadgen", "--url", "http://x:1", "--model", "m.npz"]
            )


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

    def test_loadgen_quick_writes_validated_report(self, tmp_path, capsys):
        report_path = tmp_path / "soak" / "report.json"
        code = main(
            [
                "loadgen",
                "--quick",
                "--dataset",
                "pamap",
                "--dimension",
                "256",
                "--requests",
                "30",
                "--warmup",
                "4",
                "--json",
                str(report_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "throughput" in output
        assert "quick-mode report validated" in output
        assert report_path.exists()

    def test_loadgen_quick_trace_stitches(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "loadgen",
                "--quick",
                "--dataset",
                "pamap",
                "--dimension",
                "256",
                "--requests",
                "30",
                "--warmup",
                "4",
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "trace validated: 34 traces" in output
        assert "0 orphans" in output
        assert "batch_execute" in output and "queue_wait" in output

    def test_loadgen_quick_fleet_trace_runs_every_check(self, tmp_path, capsys):
        # A multi-tenant quick soak is held to the same report, exemplar and
        # stitching checks as a single-tenant one.
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "loadgen", "--quick", "--models", "3", "--dataset", "pamap",
                "--dimension", "256", "--requests", "30", "--warmup", "4",
                "--trace", str(trace_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "quick-mode report validated" in output
        assert "trace exemplars" in output
        assert "trace validated: 34 traces" in output and "0 orphans" in output

    def test_loadgen_quick_fails_a_soak_with_errors_in_one_line(self, capsys):
        # Five tokens that never refill: the warm-up spends four, one measured
        # request is answered and the other nine are shed.
        code = main(
            [
                "loadgen", "--quick", "--dataset", "pamap", "--dimension", "256",
                "--requests", "10", "--warmup", "4",
                "--tenant-rps", "0.001", "--tenant-burst", "5",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: quick-mode report invalid: report recorded 9 failed requests" in err
        assert err.count("error:") == 1

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
    def test_fleet_flag_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.models == 1
        assert args.zipf_s == 1.1
        assert args.retries is None
        assert args.tenant_rps is None
        assert args.tenant_quotas is None

    def test_serve_tenant_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "--model", "m.npz",
                "--tenant-rps", "50", "--tenant-burst", "100",
                "--tenant-max-concurrent", "8",
            ]
        )
        assert args.tenant_rps == 50.0
        assert args.tenant_burst == 100.0
        assert args.tenant_max_concurrent == 8

    def test_build_tenant_quotas_from_flags_and_file(self, tmp_path):
        import json

        from repro.cli import _build_tenant_quotas

        assert _build_tenant_quotas(build_parser().parse_args(["loadgen"])) is None
        flags_only = _build_tenant_quotas(
            build_parser().parse_args(["loadgen", "--tenant-rps", "5"])
        )
        assert flags_only.default_rps == 5.0
        path = tmp_path / "quotas.json"
        path.write_text(json.dumps({"defaults": {"rps": 9, "max_concurrent": 3}}))
        from_file = _build_tenant_quotas(
            build_parser().parse_args(
                ["loadgen", "--tenant-quotas", str(path)]
            )
        )
        # File defaults survive when the flags are unset...
        assert from_file.default_rps == 9.0
        assert from_file.default_max_concurrent == 3
        overridden = _build_tenant_quotas(
            build_parser().parse_args(
                ["loadgen", "--tenant-quotas", str(path), "--tenant-rps", "2"]
            )
        )
        # ...and explicit flags beat the file.
        assert overridden.default_rps == 2.0
        assert overridden.default_max_concurrent == 3

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--tenant-quotas", '{"tenants": {"a": {"max_concurrent": 0}}}', "bad tenant quotas:"),
            ("--tenant-quotas", '{"defaults": {"rps": "abc"}}', "bad tenant quotas:"),
            ("--trace-sample", "1.5", "--trace-sample must be in [0, 1], got 1.5"),
            ("--trace-sample", "-1", "--trace-sample must be in [0, 1], got -1"),
            ("--trace-sample", "nan", "--trace-sample must be in [0, 1], got nan"),
        ],
        ids=[
            "quota-zero",
            "quota-not-a-number",
            "trace-sample-above-one",
            "trace-sample-negative",
            "trace-sample-nan",
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

    def test_loadgen_rejects_a_bad_trace_sample_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a bad --trace-sample reached training")

        monkeypatch.setattr(HDCPipeline, "fit", refuse)
        trace = tmp_path / "trace.jsonl"
        argv = ["loadgen", "--quick", "--trace", str(trace), "--trace-sample", "-1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: --trace-sample must be in [0, 1], got -1" in err
        assert err.count("error:") == 1
        assert not trace.exists()

    def test_loadgen_fleet_validation(self, capsys):
        from repro.cli import main

        assert main(["loadgen", "--models", "0"]) == 1
        assert "models" in capsys.readouterr().err
        assert main(["loadgen", "--models", "4", "--url", "http://x:1"]) == 1


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
