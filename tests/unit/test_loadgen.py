"""Unit tests for repro.loadgen: sampler determinism, traffic, runner, report."""

from __future__ import annotations

import contextlib
import json
import socket
import threading

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.encoders import RecordEncoder
from repro.loadgen import (
    ClosedLoop,
    HTTPTarget,
    InProcessTarget,
    OpenLoop,
    RequestSampler,
    TargetError,
    build_report,
    format_report,
    run_load_test,
    validate_exemplars,
    validate_report,
    write_report,
)
from repro.serve import ModelRegistry, PackedInferenceEngine, ServeApp, create_server
from repro.serve.tenancy import TenantQuotas


class TestRequestSampler:
    def test_same_seed_same_stream(self):
        first = RequestSampler(dataset="ucihar", profile="tiny", seed=7)
        second = RequestSampler(dataset="ucihar", profile="tiny", seed=7)
        assert np.array_equal(first.indices(50), second.indices(50))
        assert first.digest(50) == second.digest(50)

    def test_different_seed_different_stream(self):
        first = RequestSampler(dataset="ucihar", profile="tiny", seed=7)
        second = RequestSampler(dataset="ucihar", profile="tiny", seed=8)
        assert first.digest(50) != second.digest(50)

    def test_indices_are_pure_in_the_seed(self):
        sampler = RequestSampler(dataset="ucihar", profile="tiny", seed=3)
        first = sampler.indices(20)
        sampler.indices(5)  # interleaved draws must not perturb the stream
        assert np.array_equal(sampler.indices(20), first)

    def test_prefix_stability(self):
        sampler = RequestSampler(dataset="ucihar", profile="tiny", seed=3)
        assert np.array_equal(sampler.indices(50)[:20], sampler.indices(20))

    def test_stream_yields_rows_from_split(self):
        sampler = RequestSampler(dataset="ucihar", profile="tiny", seed=0)
        pairs = list(sampler.stream(10))
        assert len(pairs) == 10
        for position, (index, row) in enumerate(pairs):
            assert index == position
            assert row.shape == (sampler.num_features,)

    def test_from_arrays(self):
        features = np.arange(12, dtype=np.float64).reshape(4, 3)
        sampler = RequestSampler.from_arrays(features, seed=1)
        assert sampler.num_features == 3
        assert sampler.digest(8) == RequestSampler.from_arrays(features, seed=1).digest(8)

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError, match="split"):
            RequestSampler(dataset="ucihar", split="validation")


class TestTraffic:
    def test_open_loop_arrivals_deterministic_and_rate_consistent(self):
        traffic = OpenLoop(rate_rps=100.0, seed=5)
        offsets = traffic.arrival_offsets(2000)
        assert np.array_equal(offsets, OpenLoop(rate_rps=100.0, seed=5).arrival_offsets(2000))
        assert np.all(np.diff(offsets) >= 0)
        mean_gap = float(np.diff(offsets, prepend=0.0).mean())
        assert mean_gap == pytest.approx(1.0 / 100.0, rel=0.1)

    def test_open_loop_validation(self):
        with pytest.raises(ValueError, match="rate_rps"):
            OpenLoop(rate_rps=0.0)
        with pytest.raises(ValueError, match="max_outstanding"):
            OpenLoop(rate_rps=1.0, max_outstanding=0)

    def test_closed_loop_validation(self):
        with pytest.raises(ValueError, match="concurrency"):
            ClosedLoop(concurrency=0)
        assert ClosedLoop(concurrency=3).describe() == {
            "mode": "closed",
            "concurrency": 3,
        }


@pytest.fixture(scope="module")
def loadgen_app():
    sampler = RequestSampler(dataset="ucihar", profile="tiny", seed=0)
    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=0)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=0))
    pipeline.fit(sampler.train_features, sampler.train_labels)
    registry = ModelRegistry()
    registry.register("ucihar", PackedInferenceEngine(pipeline, name="ucihar"))
    app = ServeApp(registry)
    yield app, sampler
    app.close()


class TestRunner:
    def test_closed_loop_run_produces_valid_report(self, loadgen_app):
        app, sampler = loadgen_app
        report = run_load_test(
            InProcessTarget(app),
            sampler,
            ClosedLoop(concurrency=3),
            num_requests=40,
            warmup_requests=8,
        )
        validate_report(report)
        assert report["results"]["completed"] == 40
        assert report["config"]["traffic"]["mode"] == "closed"
        assert report["stream_digest"] == sampler.digest(48)

    def test_open_loop_run_produces_valid_report(self, loadgen_app):
        app, sampler = loadgen_app
        report = run_load_test(
            InProcessTarget(app),
            sampler,
            OpenLoop(rate_rps=400.0, seed=0),
            num_requests=30,
            warmup_requests=4,
        )
        validate_report(report)
        assert report["config"]["traffic"]["rate_rps"] == 400.0

    def test_errors_are_counted_not_fatal(self, loadgen_app):
        app, _ = loadgen_app
        # A sampler whose rows have the wrong width: every request is a 400.
        bad = RequestSampler.from_arrays(np.zeros((4, 3)), seed=0)
        report = run_load_test(
            InProcessTarget(app),
            bad,
            ClosedLoop(concurrency=2),
            num_requests=10,
            warmup_requests=0,
        )
        assert report["results"]["errors"] == 10
        assert report["results"]["completed"] == 0
        with pytest.raises(ValueError, match="no completed requests"):
            validate_report(report)

    def test_target_error_on_unknown_model(self, loadgen_app):
        app, sampler = loadgen_app
        target = InProcessTarget(app, model="nope")
        with pytest.raises(TargetError, match="404"):
            target.send(sampler.features[0])

    def test_input_validation(self, loadgen_app):
        app, sampler = loadgen_app
        target = InProcessTarget(app)
        with pytest.raises(ValueError, match="num_requests"):
            run_load_test(target, sampler, ClosedLoop(), num_requests=0)
        with pytest.raises(ValueError, match="warmup"):
            run_load_test(
                target, sampler, ClosedLoop(), num_requests=1, warmup_requests=-1
            )


@contextlib.contextmanager
def _serving(app):
    """Serve *app* on an ephemeral port; yields the URL and a list that
    records every TCP connection the server accepts."""
    server = create_server(app, port=0)
    accepted = []
    get_request = server.get_request

    def counting_get_request():
        connection = get_request()
        accepted.append(connection[1])
        return connection

    server.get_request = counting_get_request
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", accepted
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


class TestHTTPTarget:
    def test_closed_loop_keeps_one_connection_per_client(self, loadgen_app):
        app, sampler = loadgen_app
        with _serving(app) as (url, accepted):
            target = HTTPTarget(url)
            try:
                report = run_load_test(
                    target,
                    sampler,
                    ClosedLoop(concurrency=3),
                    num_requests=60,
                    warmup_requests=12,
                )
            finally:
                target.close()
        validate_report(report)
        assert report["results"]["completed"] == 60
        assert report["server_metrics_delta"] is not None
        # Warm-up, measure and both metrics snapshots share the pool.
        assert 1 <= len(accepted) <= 3

    def test_error_answer_then_success_on_one_thread(self, loadgen_app):
        app, sampler = loadgen_app
        (_, row), = sampler.stream(1)
        with _serving(app) as (url, accepted):
            target = HTTPTarget(url)
            try:
                with pytest.raises(TargetError) as excinfo:
                    target.send(row, model="nope")
                body = target.send(row)
            finally:
                target.close()
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"
        assert body["model"] == "ucihar"
        # The 404 answered with Connection: close, so the 200 reconnected.
        assert len(accepted) == 2

    def test_shed_answer_carries_retry_after(self, loadgen_app):
        app, sampler = loadgen_app
        (_, row), = sampler.stream(1)
        quotas = TenantQuotas(max_concurrent=1)
        shedding = ServeApp(app.registry, tenant_quotas=quotas)
        lease = quotas.admit("ucihar")
        try:
            with _serving(shedding) as (url, _):
                target = HTTPTarget(url)
                try:
                    with pytest.raises(TargetError) as excinfo:
                        target.send(row)
                finally:
                    target.close()
        finally:
            lease.release()
            shedding.close()
        assert excinfo.value.status == 429
        assert excinfo.value.code == "tenant_quota_exceeded"
        assert excinfo.value.retry_after == 1.0

    def test_unreachable_endpoint_is_an_untyped_error(self):
        with contextlib.closing(socket.socket()) as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        target = HTTPTarget(f"http://127.0.0.1:{port}", timeout=5.0)
        with pytest.raises(TargetError) as excinfo:
            target.send(np.zeros(3))
        assert excinfo.value.status is None
        assert target.metrics_snapshot() is None

    def test_rejects_non_http_url(self):
        with pytest.raises(ValueError, match="URL"):
            HTTPTarget("localhost:8080")


class TestReport:
    def _report(self):
        sampler = RequestSampler.from_arrays(np.zeros((4, 3)), seed=0)
        return build_report(
            target={"kind": "in-process", "model": None, "top_k": 1},
            traffic={"mode": "closed", "concurrency": 2},
            sampler=sampler,
            num_requests=8,
            warmup_requests=2,
            warmup_errors=0,
            latencies=[0.001, 0.002, 0.003, 0.004],
            errors=0,
            duration_seconds=0.5,
        )

    def test_build_and_validate(self):
        report = self._report()
        validate_report(report)
        assert report["results"]["throughput_rps"] == pytest.approx(8.0)
        latency = report["results"]["latency_ms"]
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
        assert latency["max_ms"] == pytest.approx(4.0)

    def test_validate_rejects_degenerate_reports(self):
        report = self._report()
        report["results"]["throughput_rps"] = 0.0
        with pytest.raises(ValueError, match="throughput"):
            validate_report(report)
        missing = self._report()
        del missing["stream_digest"]
        with pytest.raises(ValueError, match="stream_digest"):
            validate_report(missing)

    @staticmethod
    def _counted_by_server(requests, completed=120):
        sampler = RequestSampler.from_arrays(np.zeros((4, 3)), seed=0)
        return build_report(
            target={"kind": "in-process", "model": None, "top_k": 1},
            traffic={"mode": "closed", "concurrency": 4},
            sampler=sampler,
            num_requests=completed,
            warmup_requests=0,
            warmup_errors=0,
            latencies=[0.001] * completed,
            errors=0,
            duration_seconds=0.5,
            server_metrics={
                "requests": requests,
                "samples": completed,
                "errors": 0,
                "batches": 48,
            },
        )

    def test_validate_rejects_a_server_that_counted_fewer_requests(self):
        # A server that counts micro-batches as requests: 48 for 120 answered.
        with pytest.raises(ValueError, match="counted 48 requests for 120"):
            validate_report(self._counted_by_server(48))

    def test_validate_accepts_server_traffic_beyond_the_soak(self):
        # A shared server also answers other clients during the measure phase.
        validate_report(self._counted_by_server(130))

    def test_format_report_mentions_key_numbers(self):
        text = format_report(self._report())
        assert "throughput" in text and "p99" in text

    def test_write_report_round_trips(self, tmp_path):
        report = self._report()
        path = write_report(tmp_path / "soak" / "report.json", report)
        assert json.loads(path.read_text()) == report


class TestResilience:
    def _failing_report(self, completed=95, errors=5):
        sampler = RequestSampler.from_arrays(np.zeros((4, 3)), seed=0)
        return build_report(
            target={"kind": "in-process", "model": None, "top_k": 1},
            traffic={"mode": "closed", "concurrency": 2},
            sampler=sampler,
            num_requests=completed + errors,
            warmup_requests=0,
            warmup_errors=0,
            latencies=[0.001] * completed,
            errors=errors,
            duration_seconds=0.5,
            errors_by_status={"429": errors},
            errors_by_code={"tenant_quota_exceeded": errors},
        )

    def test_resilience_block_and_availability(self):
        report = self._failing_report()
        resilience = report["resilience"]
        assert resilience["availability"] == pytest.approx(0.95)
        assert resilience["errors_by_status"] == {"429": 5}
        assert resilience["errors_by_code"] == {"tenant_quota_exceeded": 5}
        assert resilience["untyped_errors"] == 0

    def test_format_report_shows_resilience_when_requests_fail(self):
        text = format_report(self._failing_report())
        assert "availability" in text
        assert "429" in text
        assert "tenant_quota_exceeded" in text

    def test_typed_errors_flow_from_app_to_report(self, loadgen_app):
        app, _ = loadgen_app
        # Wrong feature width: every request is a typed 400 bad_request, so
        # the breakdown must bucket them by status and code with zero
        # untyped errors.
        bad = RequestSampler.from_arrays(np.zeros((4, 3)), seed=0)
        report = run_load_test(
            InProcessTarget(app),
            bad,
            ClosedLoop(concurrency=2),
            num_requests=10,
            warmup_requests=0,
        )
        resilience = report["resilience"]
        assert resilience["availability"] == 0.0
        assert resilience["errors_by_status"] == {"400": 10}
        assert resilience["errors_by_code"] == {"bad_request": 10}
        assert resilience["untyped_errors"] == 0


    @pytest.mark.parametrize(
        "case, status, code, retry_after",
        [
            ("wrong_width", 400, "bad_request", None),
            ("unknown_model", 404, "not_found", None),
            ("shed", 429, "tenant_quota_exceeded", 1),
            ("deadline", 504, "deadline_exceeded", None),
        ],
    )
    def test_in_process_target_types_every_failure(
        self, loadgen_app, case, status, code, retry_after
    ):
        app, sampler = loadgen_app
        row = sampler.train_features[0]
        target_app = app
        options = {}
        if case == "shed":
            quotas = TenantQuotas(max_concurrent=1)
            quotas.admit("ucihar")  # the one slot stays taken
            target_app = ServeApp(app.registry, tenant_quotas=quotas)
        if case == "deadline":
            options["deadline_ms"] = 1e-6
        target = InProcessTarget(
            target_app, model="ghost" if case == "unknown_model" else None, **options
        )
        try:
            with pytest.raises(TargetError) as excinfo:
                target.send(row[:-1] if case == "wrong_width" else row)
        finally:
            if target_app is not app:
                target_app.close()
        error = excinfo.value
        assert (error.status, error.code, error.retry_after) == (
            status,
            code,
            retry_after,
        )
        assert str(error).startswith(f"{status}: ")

class TestZipfTenants:
    def test_model_stream_is_deterministic_in_the_seed(self):
        models = [f"t{i:02d}" for i in range(8)]
        first = RequestSampler(
            dataset="ucihar", profile="tiny", seed=5, models=models, zipf_s=1.1
        )
        second = RequestSampler(
            dataset="ucihar", profile="tiny", seed=5, models=models, zipf_s=1.1
        )
        assert first.model_names(64) == second.model_names(64)
        assert first.digest(64) == second.digest(64)

    def test_model_stream_independent_of_row_stream(self):
        models = ["a", "b", "c"]
        plain = RequestSampler(dataset="ucihar", profile="tiny", seed=5)
        multi = RequestSampler(
            dataset="ucihar", profile="tiny", seed=5, models=models
        )
        np.testing.assert_array_equal(plain.indices(32), multi.indices(32))
        assert plain.digest(32) != multi.digest(32)  # tenants fold in

    def test_zipf_skews_towards_low_ranks(self):
        models = [f"t{i:02d}" for i in range(16)]
        sampler = RequestSampler(
            dataset="ucihar", profile="tiny", seed=5, models=models, zipf_s=1.5
        )
        indices = sampler.model_indices(2000)
        head = float(np.mean(indices < 4))
        assert head > 0.5  # the hot set dominates
        assert len(np.unique(indices)) > 4  # but the tail is visited

    def test_zipf_s_changes_the_stream(self):
        models = ["a", "b", "c", "d"]
        flat = RequestSampler(
            dataset="ucihar", profile="tiny", seed=5, models=models, zipf_s=0.2
        )
        steep = RequestSampler(
            dataset="ucihar", profile="tiny", seed=5, models=models, zipf_s=3.0
        )
        assert flat.model_names(128) != steep.model_names(128)

    def test_no_models_means_no_model_stream(self):
        sampler = RequestSampler(dataset="ucihar", profile="tiny", seed=5)
        assert sampler.models is None
        assert sampler.model_indices(8) is None
        assert sampler.model_names(8) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="models"):
            RequestSampler(dataset="ucihar", profile="tiny", models=[])
        with pytest.raises(ValueError, match="zipf_s"):
            RequestSampler(
                dataset="ucihar", profile="tiny", models=["a"], zipf_s=0
            )


class TestRetryPolicy:
    def _error(self, status=503, retry_after=None):
        from repro.loadgen.runner import TargetError

        return TargetError("boom", status=status, retry_after=retry_after)

    def test_retries_only_backpressure_statuses(self):
        from repro.loadgen import RetryPolicy

        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry(self._error(429), attempt=0)
        assert policy.should_retry(self._error(503), attempt=1)
        assert not policy.should_retry(self._error(503), attempt=2)  # spent
        assert not policy.should_retry(self._error(400), attempt=0)
        assert not policy.should_retry(self._error(500), attempt=0)
        assert not policy.should_retry(self._error(None), attempt=0)  # untyped

    def test_delay_honours_server_hint_and_caps(self):
        from repro.loadgen import RetryPolicy

        policy = RetryPolicy(
            max_retries=3, backoff_seconds=0.1, max_backoff_seconds=1.0, seed=9
        )
        hinted = policy.delay(self._error(retry_after=0.5), index=0, attempt=0)
        assert 0.25 <= hinted < 0.5  # hint times jitter in [0.5, 1.0)
        capped = policy.delay(self._error(retry_after=30.0), index=0, attempt=0)
        assert capped < 1.0  # the cap beats an absurd hint

    def test_delay_backs_off_exponentially_without_a_hint(self):
        from repro.loadgen import RetryPolicy

        policy = RetryPolicy(
            max_retries=4, backoff_seconds=0.1, max_backoff_seconds=10.0, seed=9
        )
        error = self._error(retry_after=None)
        base = [0.1 * 2**attempt for attempt in range(3)]
        for attempt, expected in enumerate(base):
            delay = policy.delay(error, index=3, attempt=attempt)
            assert 0.5 * expected <= delay < expected

    def test_delays_are_seed_deterministic(self):
        from repro.loadgen import RetryPolicy

        error = self._error()
        first = RetryPolicy(seed=7).delay(error, index=11, attempt=1)
        second = RetryPolicy(seed=7).delay(error, index=11, attempt=1)
        third = RetryPolicy(seed=8).delay(error, index=11, attempt=1)
        assert first == second
        assert first != third

    def test_validation(self):
        from repro.loadgen import RetryPolicy

        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=1.0, max_backoff_seconds=0.5)

    def test_run_load_test_counts_retries(self):
        from repro.loadgen import RetryPolicy  # noqa: F401 - exported

        class FlakyTarget:
            kind = "in-process"

            def __init__(self):
                self.calls = 0

            def send(self, features):
                from repro.loadgen.runner import TargetError

                self.calls += 1
                if self.calls % 3 == 0:
                    raise TargetError(
                        "shed", status=429, code="tenant_rate_limited",
                        retry_after=0.001,
                    )
                return 0.0001

            def describe(self):
                return {"kind": self.kind, "model": None, "top_k": 1}

        sampler = RequestSampler.from_arrays(np.zeros((4, 3)), seed=0)
        report = run_load_test(
            FlakyTarget(),
            sampler,
            ClosedLoop(concurrency=1),
            num_requests=12,
            warmup_requests=0,
            max_retries=2,
        )
        resilience = report["resilience"]
        assert report["results"]["errors"] == 0  # all sheds retried to success
        assert resilience["retries"] > 0
        assert resilience["retries_by_status"] == {
            "429": resilience["retries"]
        }
        assert report["config"]["retry_policy"]["max_retries"] == 2


class TestMultiTenantReport:
    def test_tenant_config_recorded(self):
        sampler = RequestSampler.from_arrays(
            np.zeros((4, 3)), seed=0, models=["a", "b"], zipf_s=1.1
        )
        report = build_report(
            target={"kind": "in-process", "model": None, "top_k": 1},
            traffic={"mode": "closed", "concurrency": 2},
            sampler=sampler,
            num_requests=20,
            warmup_requests=0,
            warmup_errors=0,
            latencies=[0.001] * 20,
            errors=0,
            duration_seconds=0.5,
        )
        assert report["config"]["models"] == 2
        assert report["config"]["zipf_s"] == 1.1


class TestExemplars:
    _EXEMPLAR = {"model": "ucihar", "le": "0.01", "trace_id": "ab" * 8, "value_ms": 4.2}

    def _report(self, exemplars=None):
        sampler = RequestSampler.from_arrays(np.zeros((4, 3)), seed=0)
        return build_report(
            target={"kind": "in-process", "model": None, "top_k": 1},
            traffic={"mode": "closed", "concurrency": 2},
            sampler=sampler,
            num_requests=8,
            warmup_requests=2,
            warmup_errors=0,
            latencies=[0.001, 0.002, 0.003, 0.004],
            errors=0,
            duration_seconds=0.5,
            exemplars=exemplars,
        )

    def test_exemplar_requirement(self):
        with pytest.raises(ValueError, match="no latency exemplars"):
            validate_exemplars(self._report())
        with pytest.raises(ValueError, match="without a trace_id"):
            validate_exemplars(
                self._report(exemplars=[dict(self._EXEMPLAR, trace_id=None)])
            )
        validate_exemplars(self._report(exemplars=[self._EXEMPLAR]))

    def test_format_report_shows_exemplars(self):
        text = format_report(self._report(exemplars=[self._EXEMPLAR]))
        assert "trace exemplars" in text
        assert "1 (slowest abababababababab @ 4.20 ms)" in text

    def test_runner_collects_exemplars(self, loadgen_app):
        # A traced soak must surface at least one histogram exemplar.
        from repro.obs.trace import MemorySink, Tracer

        app, sampler = loadgen_app
        app.tracer = Tracer(MemorySink(), sample_rate=1.0)
        report = run_load_test(
            InProcessTarget(app),
            sampler,
            ClosedLoop(concurrency=2),
            num_requests=20,
            warmup_requests=2,
        )
        validate_report(report)
        validate_exemplars(report)
        assert report["exemplars"][0]["trace_id"]
        assert "slo" not in report
