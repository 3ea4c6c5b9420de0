import math
from fractions import Fraction

import pytest

import stats


def test_median_odd_and_even():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_mean_rate_counts_a_stall_the_median_hides():
    steady = [0.1] * 9
    stalled = steady[:-1] + [1.0]
    assert stats.mean_rate(steady) == pytest.approx(10.0)
    assert stats.median(stalled) == stats.median(steady)
    assert stats.mean_rate(stalled) == pytest.approx(9 / 1.8)
    with pytest.raises(ValueError):
        stats.mean_rate([])


@pytest.mark.parametrize("n", [0, 1, 10, 39])
def test_tail_omitted_below_forty_samples(n):
    assert stats.tail_percentile(range(n)) is None


@pytest.mark.parametrize(
    "n, p", [(40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)]
)
def test_tail_is_highest_percentile_with_ten_beyond(n, p):
    values = [float(v) for v in reversed(range(n))]
    got_p, value, count = stats.tail_percentile(values)
    assert (got_p, count) == (p, n)
    beyond = sum(v > value for v in values)
    assert beyond >= stats.TAIL_BEYOND
    assert value == math.ceil(Fraction(str(p)) * n / 100) - 1
