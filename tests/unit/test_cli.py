"""Unit tests for the command-line interface (repro.cli)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
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
        ],
    )
    def test_retired_flags_and_commands_are_rejected(self, argv, retired, capsys):
        # Serving runs in one process with tenant quotas as its one admission
        # limit and no prediction cache, the kernels have one NumPy executor,
        # and perfbench is the only benchmark: a stale script fails at parse
        # time.
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
        "flag, payload, message",
        [
            ("--tenant-quotas", '{"tenants": {"a": {"max_concurrent": 0}}}', "bad tenant quotas"),
            ("--tenant-quotas", '{"defaults": {"rps": "abc"}}', "bad tenant quotas"),
            ("--slo-config", '{"default": null}', "bad SLO config"),
            ("--slo-config", '{"tenants": {"a": []}}', "bad SLO config"),
        ],
        ids=["quota-zero", "quota-not-a-number", "slo-default-null", "slo-tenant-list"],
    )
    def test_serve_rejects_a_bad_config_without_serving(
        self, tmp_path, capsys, monkeypatch, small_problem, flag, payload, message
    ):
        from repro.classifiers.baseline import BaselineHDC
        from repro.classifiers.pipeline import HDCPipeline
        from repro.hdc.encoders import RecordEncoder
        from repro.io import save_model
        import repro.serve.server as server

        pipeline = HDCPipeline(RecordEncoder(dimension=128, seed=0), BaselineHDC())
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        model = save_model(tmp_path / "a.npz", pipeline, strategy_name="baseline")

        def refuse(*args, **kwargs):
            raise AssertionError("a server started on a bad config")

        monkeypatch.setattr(server, "run_server", refuse)
        config = tmp_path / "config.json"
        config.write_text(payload)
        assert main(["serve", "--model", f"a={model}", flag, str(config)]) == 1
        assert f"error: {message}:" in capsys.readouterr().err

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
