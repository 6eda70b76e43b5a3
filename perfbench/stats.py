"""The benchmark's own arithmetic: tail percentiles, the knee, self time.

Kept free of I/O and of the program so ``selftest.py`` can pin it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """The nearest-rank ``q`` quantile (0 < q < 1) of ``values``.

    Raises:
        ValueError: When fewer than :data:`MIN_BEYOND` samples lie
            beyond it, so the figure would rest on a handful of points.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND and q > 0.5:
        raise ValueError(f"p{q * 100:g} of {n} samples has only "
                         f"{n - rank} beyond it (need {MIN_BEYOND})")
    return ordered[rank - 1]


def windowed(values: list[float], q: float, size: int) -> float:
    """Median over consecutive ``size``-sample windows of their ``q``.

    One slow stretch of a run (a noisy neighbour, a collector pause)
    moves one window, not the reported figure.  A trailing partial
    window is dropped; with fewer than ``size`` samples the whole set
    is one window.
    """
    parts = [values[i:i + size]
             for i in range(0, len(values) - size + 1, size)]
    if not parts:
        return percentile(values, q)
    return statistics.median(percentile(part, q) for part in parts)


def window_rates(times: list[float], start: float, end: float,
                 width: float) -> list[float]:
    """Events per second in each whole ``width``-second window.

    A span shorter than one window is one (shorter) window.
    """
    count = int((end - start) // width)
    if count < 1:
        return [len(times) / (end - start)]
    bins = [0] * count
    for t in times:
        slot = int((t - start) // width)
        if 0 <= slot < count:
            bins[slot] += 1
    return [events / width for events in bins]


@dataclass
class Step:
    """One ladder rate as measured."""

    rate: float
    p99_us: float
    lag_p99_us: float
    backlog: int
    failed: int = 0
    sent: int = 0


def step_meets(step: Step, limit_us: float, lag_share: float) -> bool:
    """A step counts only when the server, not the generator, was timed.

    It must meet the latency limit with no failures, end with no more
    requests outstanding than the limit allows in flight (Little's law:
    rate x limit, floor 8), and have the generator late by no more than
    ``lag_share`` of the limit at p99.
    """
    allowed = max(8.0, step.rate * limit_us / 1e6)
    return (step.failed == 0 and step.p99_us <= limit_us
            and step.backlog <= allowed
            and step.lag_p99_us <= lag_share * limit_us)


def knee(steps: list[Step], limit_us: float, lag_share: float) -> float:
    """The highest ladder rate meeting the limit; 0 when none does."""
    return max((step.rate for step in steps
                if step_meets(step, limit_us, lag_share)), default=0.0)


def self_time(total: float, children: list[float]) -> float:
    """A layer's own time: its call minus the calls made beneath it."""
    return total - sum(children)


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median) of a set of run figures."""
    if len(values) < 2:
        value = values[0]
        return value, value, value, 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    width = (q3 - q1) / abs(median) if median else math.inf
    return q1, median, q3, width
