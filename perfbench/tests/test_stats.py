import pytest

from ledger import stats


def test_p99_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.is_supported(1000, 99)
    assert stats.samples_beyond(999, 99) == 9
    assert not stats.is_supported(999, 99)


def test_tail_percentile_is_the_highest_the_sample_supports():
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(999) == 95.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(39) is None


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_describe_prints_sample_count_and_only_supported_tails():
    assert stats.describe([1.0] * 1000, "ms").endswith("(n=1000)")
    assert "p99=" in stats.describe([1.0] * 1000, "ms")
    short = stats.describe([1.0, 2.0, 3.0], "s")
    assert "p50=2 s" in short and "no tail percentile" in short and "(n=3)" in short
