"""Unit tests for the benchmark's nearest-rank percentile helper.

Run with ``python3 -m pytest stackbench/tests -q`` from the repository
root.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from stats import median, percentile, tail  # noqa: E402


def test_nearest_rank_returns_a_sample():
    samples = [15, 20, 35, 40, 50]
    assert percentile(samples, 5) == 15
    assert percentile(samples, 30) == 20
    assert percentile(samples, 40) == 20
    assert percentile(samples, 50) == 35
    assert percentile(samples, 100) == 50


def test_order_of_samples_does_not_matter():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert median([9, 1, 5, 7]) == 5


def test_tail_keeps_ten_samples_beyond():
    samples = list(range(100, 0, -1))
    assert tail(samples) == (90, 90.0)
    value, level = tail(list(range(1, 41)))
    assert value == 30
    assert level == 75.0
    assert percentile(list(range(1, 41)), level) == value


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(list(range(10)))
    assert tail(list(range(11))) == (0, 100.0 / 11)


def test_single_sample():
    assert percentile([4.2], 1) == 4.2
    assert percentile([4.2], 100) == 4.2


@pytest.mark.parametrize("q", [0, -1, 100.5])
def test_rejects_out_of_range(q):
    with pytest.raises(ValueError):
        percentile([1, 2, 3], q)


def test_rejects_empty():
    with pytest.raises(ValueError):
        percentile([], 50)
