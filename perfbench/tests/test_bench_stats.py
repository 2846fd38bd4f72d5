"""The percentile rule of the benchmark.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import pytest  # noqa: E402

import stats  # noqa: E402

WALL = 1000.0


def test_tail_leaves_exactly_ten_tasks_beyond():
    lat = [float(k) for k in range(1, 26)]  # 25 successes, 1..25 s
    value, pct, beyond = stats.tail(lat, [False] * 25, WALL)
    assert beyond == 10
    assert value == 15.0  # 16..25 lie beyond it
    assert pct == pytest.approx(60.0)


def test_tail_with_eleven_tasks_is_the_fastest():
    lat = [5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0]
    value, pct, beyond = stats.tail(lat, [False] * 11, WALL)
    assert (value, beyond) == (1.0, 10)
    assert pct == pytest.approx(100.0 / 11)


def test_tail_without_ten_beyond_reports_slowest_at_100():
    value, pct, beyond = stats.tail([0.3, 0.1, 0.2], [False] * 3, WALL)
    assert (value, pct, beyond) == (0.3, 100.0, 0)


def test_failed_tasks_rank_above_every_success():
    # Eleven fast failures and twelve slow successes: the tail lands on a
    # failure, which reads as the censoring time, never as its own 0.01 s.
    lat = [0.01] * 11 + [100.0 + k for k in range(12)]
    failed = [True] * 11 + [False] * 12
    value, _, beyond = stats.tail(lat, failed, WALL)
    assert (value, beyond) == (WALL, 10)
    # With nine failures the tail is the second-slowest success.
    lat = [0.01] * 9 + [float(k) for k in range(1, 16)]
    failed = [True] * 9 + [False] * 15
    assert stats.tail(lat, failed, WALL)[0] == 14.0


def test_median_counts_a_failure_as_slowest():
    assert stats.median([1.0, 2.0, 0.001], [False, False, True], WALL) == 2.0
    assert stats.median([1.0, 2.0, 3.0, 0.5], [False, False, False, True], WALL) == 2.5
    assert stats.median([1.0, 0.1, 0.1], [False, True, True], WALL) == WALL
    with pytest.raises(ValueError):
        stats.median([], [], WALL)
