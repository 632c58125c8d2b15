"""Unit tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


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

    def test_bench_train_defaults(self):
        args = build_parser().parse_args(["bench-train"])
        assert args.command == "bench-train"
        assert args.dimension == 4000
        assert args.quick is False
        assert args.json is None

    def test_serve_multiprocess_flags(self):
        args = build_parser().parse_args(
            ["serve", "--model", "m.npz", "--workers", "4", "--cache-size", "0"]
        )
        assert args.workers == 4
        assert args.cache_size == 0

    @pytest.mark.parametrize(
        "argv, retired",
        [
            (
                ["serve", "--model", "m.npz", "--workers", "2", "--transport", "shm"],
                "--transport",
            ),
            (["loadgen", "--workers", "2", "--transport", "tcp"], "--transport"),
            (
                ["serve", "--model", "m.npz", "--kernel-backend", "threaded"],
                "--kernel-backend",
            ),
            (["bench-dispatch", "--quick"], "bench-dispatch"),
        ],
        ids=["serve-transport", "loadgen-transport", "kernel-backend", "bench-dispatch"],
    )
    def test_retired_flags_and_commands_are_rejected(self, argv, retired, capsys):
        # Workers talk over one pipe each and the kernel backend is chosen
        # by REPRO_KERNEL_BACKEND alone: a stale script fails at parse time.
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

    def test_bench_train_quick_writes_json(self, tmp_path, capsys):
        json_path = tmp_path / "bench_train.json"
        code = main(["bench-train", "--quick", "--json", str(json_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "retraining" in output
        assert "bit-identical" in output
        import json

        results = json.loads(json_path.read_text())
        assert results["config"]["quick"] is True
        assert results["retraining"]["bit_identical"] is True


class TestTenantFlags:
    def test_fleet_flag_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.models == 1
        assert args.zipf_s == 1.1
        assert args.max_resident_banks is None
        assert args.retries is None
        assert args.tenant_rps is None
        assert args.tenant_quotas is None

    def test_serve_tenant_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "--model", "m.npz",
                "--max-resident-banks", "4",
                "--tenant-rps", "50", "--tenant-burst", "100",
                "--tenant-max-concurrent", "8",
            ]
        )
        assert args.max_resident_banks == 4
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

    def test_loadgen_fleet_validation(self, capsys):
        from repro.cli import main

        assert main(["loadgen", "--models", "0"]) == 1
        assert "models" in capsys.readouterr().err
        assert main(["loadgen", "--models", "4", "--url", "http://x:1"]) == 1
        assert main(["loadgen", "--max-resident-banks", "2"]) == 1
