"""Unit tests for repro.obs.prometheus, including the golden-format test."""

import pytest

from repro.obs.prometheus import CONTENT_TYPE, render_prometheus, validate_exposition
from repro.serve.metrics import ModelMetrics


def _snapshot():
    """A hand-built ``ServeApp.metrics_snapshot()`` covering every rendered
    family."""
    return {
        "models": {
            "har": {
                "requests": 12,
                "samples": 40,
                "errors": 1,
                "deadline_exceeded": 1,
                "batches": 5,
                "latency": {
                    "count": 12,
                    "sum_seconds": 0.06,
                    "buckets": [
                        {"le": "0.001", "count": 2},
                        {
                            "le": "0.01",
                            "count": 10,
                            "exemplar": {
                                "trace_id": "deadbeefdeadbeef",
                                "value": 0.0089,
                                "timestamp": 1700000000.0,
                            },
                        },
                        {"le": "+Inf", "count": 12},
                    ],
                },
                "stages": {
                    "validate": {
                        "count": 12,
                        "sum_seconds": 0.001,
                        "buckets": [
                            {"le": "0.001", "count": 12},
                            {"le": "+Inf", "count": 12},
                        ],
                    },
                },
            },
        },
        "schedulers": {"har": {"queue_depth": 3}},
    }


GOLDEN = """\
# HELP repro_requests_total Completed inference requests.
# TYPE repro_requests_total counter
repro_requests_total{model="har"} 12
# HELP repro_samples_total Samples scored.
# TYPE repro_samples_total counter
repro_samples_total{model="har"} 40
# HELP repro_errors_total Failed requests.
# TYPE repro_errors_total counter
repro_errors_total{model="har"} 1
# HELP repro_deadline_exceeded_total Requests that missed their deadline (HTTP 504).
# TYPE repro_deadline_exceeded_total counter
repro_deadline_exceeded_total{model="har"} 1
# HELP repro_batches_total Coalesced micro-batches executed.
# TYPE repro_batches_total counter
repro_batches_total{model="har"} 5
# HELP repro_request_latency_seconds End-to-end request latency.
# TYPE repro_request_latency_seconds histogram
repro_request_latency_seconds_bucket{model="har",le="0.001"} 2
repro_request_latency_seconds_bucket{model="har",le="0.01"} 10 # {trace_id="deadbeefdeadbeef"} 0.0089 1700000000
repro_request_latency_seconds_bucket{model="har",le="+Inf"} 12
repro_request_latency_seconds_sum{model="har"} 0.06
repro_request_latency_seconds_count{model="har"} 12
# HELP repro_stage_latency_seconds Per-stage latency (validate, queue_wait, batch_execute).
# TYPE repro_stage_latency_seconds histogram
repro_stage_latency_seconds_bucket{model="har",stage="validate",le="0.001"} 12
repro_stage_latency_seconds_bucket{model="har",stage="validate",le="+Inf"} 12
repro_stage_latency_seconds_sum{model="har",stage="validate"} 0.001
repro_stage_latency_seconds_count{model="har",stage="validate"} 12
# HELP repro_scheduler_queue_depth Requests waiting in the micro-batch queue.
# TYPE repro_scheduler_queue_depth gauge
repro_scheduler_queue_depth{model="har"} 3
"""


class TestRender:
    def test_golden_exposition(self):
        # The full output is pinned: any format drift is an API change for
        # whoever scrapes /metrics, and must show up in review.
        assert render_prometheus(_snapshot()) == GOLDEN

    def test_golden_output_validates(self):
        validate_exposition(GOLDEN)

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({}) == ""

    def test_label_values_are_escaped(self):
        text = render_prometheus(
            {"schedulers": {'m"odel\n': {"queue_depth": 1}}}
        )
        assert 'model="m\\"odel\\n"' in text
        validate_exposition(text)

    def test_content_type_is_prometheus_text(self):
        assert CONTENT_TYPE.startswith("text/plain; version=0.0.4")

    def test_tenant_series_render_one_per_tenant_in_name_order(self):
        stats = {"admitted": 7, "rate_limited": 2, "quota_exceeded": 1, "in_flight": 0}
        text = render_prometheus(
            {"tenancy": {"tenants": {"b": stats, "a": {"admitted": 1}}}}
        )
        samples = [line for line in text.splitlines() if not line.startswith("#")]
        assert samples == [
            'repro_tenant_admitted_total{tenant="a"} 1',
            'repro_tenant_rate_limited_total{tenant="a"} 0',
            'repro_tenant_quota_exceeded_total{tenant="a"} 0',
            'repro_tenant_in_flight{tenant="a"} 0',
            'repro_tenant_admitted_total{tenant="b"} 7',
            'repro_tenant_rate_limited_total{tenant="b"} 2',
            'repro_tenant_quota_exceeded_total{tenant="b"} 1',
            'repro_tenant_in_flight{tenant="b"} 0',
        ]
        assert "# TYPE repro_tenant_in_flight gauge" in text
        assert text.count("# TYPE repro_tenant_admitted_total counter") == 1
        validate_exposition(text)

    def test_tenancy_without_tenants_renders_nothing(self):
        assert render_prometheus({"tenancy": {"tenants": {}}}) == ""
        assert render_prometheus({"tenancy": {}}) == ""

    @pytest.mark.parametrize(
        "value, rendered",
        [
            (3, "3"),
            (3.0, "3"),
            (0.25, "0.25"),
            (-2, "-2"),
            (1.5e-07, "1.5e-07"),
            (1e15, "1000000000000000.0"),
            (1e20, "1e+20"),
        ],
        ids=["int", "integral-float", "fraction", "negative", "tiny", "1e15", "huge"],
    )
    def test_sample_values_render_as_exposition_numbers(self, value, rendered):
        # Integral values below 1e15 print without a decimal point; others
        # print as Python's shortest float repr, which Prometheus parses.
        text = render_prometheus({"schedulers": {"m": {"queue_depth": value}}})
        assert text.splitlines()[-1] == f'repro_scheduler_queue_depth{{model="m"}} {rendered}'
        validate_exposition(text)

    def test_histogram_without_buckets_is_not_rendered(self):
        counters = {"requests": 1, "samples": 1, "errors": 0, "latency": {}}
        text = render_prometheus({"models": {"m": counters}})
        assert 'repro_requests_total{model="m"} 1' in text
        assert "latency_seconds" not in text

    def test_families_are_declared_once_and_models_render_in_name_order(self):
        counters = {"requests": 1, "samples": 1, "errors": 0}
        text = render_prometheus({"models": {"b": counters, "a": counters}})
        assert text.count("# TYPE repro_requests_total counter") == 1
        assert text.count("# HELP repro_requests_total ") == 1
        requests = [line for line in text.splitlines() if line.startswith("repro_requests")]
        assert requests == [
            'repro_requests_total{model="a"} 1',
            'repro_requests_total{model="b"} 1',
        ]
        validate_exposition(text)

    def test_exemplar_trace_id_is_escaped(self):
        latency = {
            "count": 1,
            "sum_seconds": 0.002,
            "buckets": [
                {
                    "le": "+Inf",
                    "count": 1,
                    "exemplar": {"trace_id": 'a"b', "value": 0.002, "timestamp": 1.0},
                }
            ],
        }
        text = render_prometheus({"models": {"m": {
            "requests": 1, "samples": 1, "errors": 0, "latency": latency,
        }}})
        assert '# {trace_id="a\\"b"} 0.002 1' in text
        validate_exposition(text)


class TestLiveHistogram:
    """A ``ModelMetrics`` snapshot renders to exposition that validates and
    whose ``+Inf`` bucket, ``_count`` and ``_sum`` agree with what was
    recorded."""

    @pytest.mark.parametrize(
        "outcomes",
        [
            [],
            [(200, 0.001, None)],
            [(200, 30.0, "ab" * 8)],
            [(200, 0.0004, "cd" * 8), (429, 0.0001, None), (200, 0.2, None),
             (504, 2.0, None), (200, 0.0004, "ef" * 8)],
        ],
        ids=["empty", "on-a-bound", "overflow-traced", "mixed"],
    )
    def test_rendered_histogram_agrees_with_the_record(self, outcomes):
        metrics = ModelMetrics()
        for status, seconds, trace_id in outcomes:
            metrics.record_outcome(status, seconds, trace_id=trace_id)
        text = render_prometheus({"models": {"m": metrics.snapshot()}})
        validate_exposition(text)
        values = {}
        for line in text.splitlines():
            if not line.startswith("#"):
                series, value = line.split(" # ")[0].rsplit(" ", 1)
                values[series] = float(value)
        answered = [seconds for status, seconds, _ in outcomes if status == 200]
        name = "repro_request_latency_seconds"
        assert values[f'{name}_bucket{{model="m",le="+Inf"}}'] == len(answered)
        assert values[f'{name}_count{{model="m"}}'] == len(answered)
        assert values[f'{name}_sum{{model="m"}}'] == pytest.approx(sum(answered))
        assert values['repro_errors_total{model="m"}'] == len(outcomes) - len(answered)
        traced = {trace_id for status, _, trace_id in outcomes if trace_id}
        exemplars = {
            line.split('trace_id="')[1].split('"')[0]
            for line in text.splitlines()
            if " # {" in line
        }
        # Both 0.4 ms traces share a bucket: the later one is its exemplar.
        assert exemplars == traced - {"cd" * 8}


class TestValidate:
    def test_rejects_undeclared_family(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            validate_exposition('mystery_metric{a="b"} 1\n')

    def test_rejects_unparseable_sample(self):
        with pytest.raises(ValueError, match="unparseable"):
            validate_exposition(
                "# TYPE broken counter\nbroken not-a-number\n"
            )

    def test_rejects_non_cumulative_buckets_behind_other_labels(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{model="a",le="0.1"} 5\n'
            'h_bucket{model="a",le="+Inf"} 3\n'
        )
        with pytest.raises(ValueError, match="cumulative"):
            validate_exposition(text)

    def test_each_labelled_series_is_checked_on_its_own(self):
        # Model b's buckets sit below model a's: each run is still cumulative.
        text = (
            "# TYPE h histogram\n"
            'h_bucket{model="a",le="0.1"} 5\n'
            'h_bucket{model="a",le="+Inf"} 9\n'
            'h_bucket{model="b",le="0.1"} 1\n'
            'h_bucket{model="b",le="+Inf"} 2\n'
        )
        validate_exposition(text)

    def test_sum_and_count_belong_to_their_declared_histogram(self):
        validate_exposition(
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1.5\n"
            "h_count 3\n"
        )

    def test_help_alone_does_not_declare_a_family(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            validate_exposition("# HELP x A metric.\nx 1\n")

    def test_rejects_a_sample_without_a_value(self):
        with pytest.raises(ValueError, match="unparseable"):
            validate_exposition('# TYPE c counter\nc{a="b"}\n')

    def test_rejects_non_cumulative_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
        )
        with pytest.raises(ValueError, match="cumulative"):
            validate_exposition(text)

    def test_accepts_exemplar_on_bucket(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5 # {trace_id="abcd1234abcd1234"} 0.042 1700000000\n'
            'h_bucket{le="+Inf"} 5\n'
        )
        validate_exposition(text)

    def test_accepts_exemplar_without_timestamp(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 5 # {trace_id="abcd1234abcd1234"} 0.042\n'
        )
        validate_exposition(text)

    def test_rejects_exemplar_on_non_bucket_sample(self):
        text = (
            "# TYPE c_total counter\n"
            'c_total 5 # {trace_id="abcd1234abcd1234"} 0.042\n'
        )
        with pytest.raises(ValueError, match="non-bucket"):
            validate_exposition(text)

    def test_rejects_malformed_exemplar(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 5 # {trace_id=unquoted} 0.042\n'
        )
        with pytest.raises(ValueError, match="malformed exemplar"):
            validate_exposition(text)
        with pytest.raises(ValueError, match="malformed exemplar"):
            validate_exposition(
                "# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 5 # {trace_id="abc"} not-a-number\n'
            )
