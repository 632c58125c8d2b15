"""Unit tests for repro.serve.tenancy: token buckets and tenant quotas."""

from __future__ import annotations

import json
import threading

import pytest

from repro.serve.tenancy import (
    TenantQuotas,
    TenantRateLimitedError,
    TokenBucket,
    retry_after_header,
)


class FakeClock:
    """An explicit monotonic clock so admission tests never sleep."""

    def __init__(self, now: float = 0.0):
        self.now = float(now)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += float(seconds)


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is None
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)

    def test_refills_at_rate_and_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=2.0, clock=clock)
        bucket.try_acquire(2.0)
        assert bucket.available == 0.0
        clock.advance(0.25)
        assert bucket.available == pytest.approx(1.0)
        clock.advance(100.0)
        assert bucket.available == pytest.approx(2.0)  # never exceeds burst

    def test_wait_hint_is_time_to_accrue_shortfall(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=1.0, clock=clock)
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() == pytest.approx(0.1)
        clock.advance(0.05)
        assert bucket.try_acquire() == pytest.approx(0.05)

    @pytest.mark.parametrize("rate,burst", [(0, 1), (-1, 1), (1, 0), (1, -2)])
    def test_rejects_nonpositive_parameters(self, rate, burst):
        with pytest.raises(ValueError):
            TokenBucket(rate=rate, burst=burst)


class TestTenantQuotas:
    def test_rate_limit_is_per_tenant_and_typed(self):
        clock = FakeClock()
        quotas = TenantQuotas(rps=1.0, burst=1.0, clock=clock)
        quotas.admit("a")
        with pytest.raises(TenantRateLimitedError) as info:
            quotas.admit("a")
        assert info.value.code == "tenant_rate_limited"
        assert info.value.retry_after > 0
        # Tenant "b" has its own bucket and is unaffected by "a"'s burst.
        quotas.admit("b")

    def test_rate_tokens_refill_admits_again(self):
        clock = FakeClock()
        quotas = TenantQuotas(rps=2.0, burst=1.0, clock=clock)
        quotas.admit("a")
        with pytest.raises(TenantRateLimitedError):
            quotas.admit("a")
        clock.advance(0.5)
        quotas.admit("a")

    def test_overrides_beat_defaults_and_none_disables(self):
        clock = FakeClock()
        quotas = TenantQuotas(
            rps=1.0,
            burst=1.0,
            tenants={"premium": {"rps": None}, "batch": {"burst": 3.0}},
            clock=clock,
        )
        # premium: no rate limit.
        for _ in range(10):
            quotas.admit("premium")
        # batch: inherits the 1 rps default with a deeper bucket.
        for _ in range(3):
            quotas.admit("batch")
        with pytest.raises(TenantRateLimitedError):
            quotas.admit("batch")
        # Any other tenant takes the defaults.
        quotas.admit("other")
        with pytest.raises(TenantRateLimitedError):
            quotas.admit("other")

    def test_snapshot_counts_admissions_and_sheds(self):
        clock = FakeClock()
        quotas = TenantQuotas(rps=1.0, burst=1.0, clock=clock)
        quotas.admit("a")
        with pytest.raises(TenantRateLimitedError):
            quotas.admit("a")
        snap = quotas.snapshot()
        assert snap["defaults"] == {"rps": 1.0, "burst": 1.0}
        assert snap["tenants"]["a"] == {"admitted": 1, "rate_limited": 1}

    def test_from_file_defaults_and_overrides(self, tmp_path):
        path = tmp_path / "quotas.json"
        path.write_text(
            json.dumps(
                {
                    "defaults": {"rps": 50, "burst": 100},
                    "tenants": {"batch": {"rps": 5, "burst": 2}},
                }
            )
        )
        quotas = TenantQuotas.from_file(path, clock=FakeClock())
        assert quotas.default_rps == 50
        assert quotas.default_burst == 100
        quotas.admit("batch")
        quotas.admit("batch")
        with pytest.raises(TenantRateLimitedError):
            quotas.admit("batch")

    def test_from_file_kwargs_override_file_defaults(self, tmp_path):
        path = tmp_path / "quotas.json"
        path.write_text(json.dumps({"defaults": {"rps": 50, "burst": 9}}))
        quotas = TenantQuotas.from_file(path, rps=2.0)
        assert quotas.default_rps == 2.0
        assert quotas.default_burst == 9

    @pytest.mark.parametrize(
        "payload",
        [
            "[]",
            '{"defaults": 3}',
            '{"tenants": []}',
            '{"tenants": {"a": 5}}',
            '{"tenants": {"a": {"rsp": 1}}}',
            # The concurrency quota is gone: a file that still sets it is
            # refused at start, not silently ignored.
            '{"defaults": {"max_concurrent": 1}}',
            '{"tenants": {"a": {"max_concurrent": 1}}}',
            # Limits the first request would only trip over, and the
            # non-numeric default that used to be a TypeError traceback.
            '{"tenants": {"a": {"rps": 0}}}',
            '{"tenants": {"a": {"rps": -2.5}}}',
            '{"tenants": {"a": {"burst": "deep"}}}',
            '{"defaults": {"rps": "abc"}}',
            '{"defaults": {"rsp": 1}}',
        ],
    )
    def test_from_file_rejects_malformed_configs(self, tmp_path, payload):
        path = tmp_path / "quotas.json"
        path.write_text(payload)
        with pytest.raises(ValueError):
            TenantQuotas.from_file(path)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TenantQuotas(rps=0)
        with pytest.raises(ValueError):
            TenantQuotas(burst=-1)

    def test_admission_is_thread_safe(self):
        # Four tokens and a clock that never advances: exactly four of
        # eight racing requests are admitted.
        quotas = TenantQuotas(rps=1.0, burst=4.0, clock=FakeClock())
        admitted, shed = [], []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            try:
                quotas.admit("a")
            except TenantRateLimitedError:
                shed.append(1)
            else:
                admitted.append(1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 4 and len(shed) == 4
        assert quotas.snapshot()["tenants"]["a"] == {"admitted": 4, "rate_limited": 4}


def test_retry_after_header_rounds_up_to_at_least_one():
    assert retry_after_header(0.0) == 1
    assert retry_after_header(0.2) == 1
    assert retry_after_header(1.0) == 1
    assert retry_after_header(1.2) == 2
    assert retry_after_header(30.0) == 30
