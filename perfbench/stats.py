"""Latency percentiles with failed tasks ranked above every success.

A task that did not pass misses any latency limit.  Its latency is censored
at `censor`, the wall time of the whole timed phase (it gave no answer in
the run), which ranks it above every success.
"""

from __future__ import annotations

TAIL_BEYOND = 10


def ranked(latencies: list[float], failed: list[bool], censor: float) -> list[float]:
    """Latencies in rank order, failed tasks counted at `censor`."""
    return sorted(censor if bad else lat for lat, bad in zip(latencies, failed))


def median(latencies: list[float], failed: list[bool], censor: float) -> float:
    order = ranked(latencies, failed, censor)
    if not order:
        raise ValueError("no tasks")
    mid = len(order) // 2
    if len(order) % 2:
        return order[mid]
    return 0.5 * (order[mid - 1] + order[mid])


def tail(latencies: list[float], failed: list[bool], censor: float) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND tasks above it.

    Returns (value, percentile, tasks beyond).  With n tasks in rank order
    the value is the one at rank n - TAIL_BEYOND (1-based), the percentile
    is 100 (n - TAIL_BEYOND) / n.  Fewer than TAIL_BEYOND + 1 tasks have no
    such percentile, and the slowest task is returned with percentile 100
    and 0 tasks beyond.
    """
    order = ranked(latencies, failed, censor)
    n = len(order)
    if n == 0:
        raise ValueError("no tasks")
    if n <= TAIL_BEYOND:
        return order[-1], 100.0, 0
    return order[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
