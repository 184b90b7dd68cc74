"""Order statistics used by every workload.

A tail latency is reported at the highest percentile of ``TAIL_LADDER``
that leaves at least ``MIN_BEYOND`` samples above it, so a small sample
never reports a "p99" that is really its maximum.  Percentiles use the
nearest-rank definition; medians use ``statistics.median``.

A run's samples are split, in the order they were taken, into windows of
a fixed size.  The gated tail is the upper quartile of the windows' tails:
a slow second of a shared host moves one window and not the figure, while
stalls in a quarter of the windows or more (a GC pause per pass, a lock
convoy) still raise it.  The plain tail of all the run's samples is
reported next to it.
"""

from __future__ import annotations

import math
import statistics

TAIL_LADDER = (99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """How many of n samples lie above the nearest-rank pct-th percentile."""
    return n - math.ceil(pct / 100.0 * n)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it;
    the median when even that has fewer."""
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return 50.0


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def windows(values: list, size: int) -> list[list]:
    """Consecutive windows of about ``size`` samples (at least one window;
    a short remainder is spread over the others)."""
    count = max(1, len(values) // size)
    return [values[i * len(values) // count:(i + 1) * len(values) // count]
            for i in range(count)]


def summary(values, window: int | None = None) -> dict:
    """Median, tails, tail percentile, window count and sample count.

    ``tail`` is the upper quartile over windows of ``window`` samples (one
    window when None) of each window's ladder percentile; ``tail_run`` is
    the ladder percentile of all the samples."""
    values = list(values)
    if not values:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_pct": None, "tail_run": 0.0,
                "tail_run_pct": None, "windows": 0}
    parts = windows(values, window or len(values))
    pct = min(tail_percentile(len(part)) for part in parts)
    tails = [percentile(part, pct) for part in parts]
    run_pct = tail_percentile(len(values))
    return {"n": len(values), "p50": statistics.median(values),
            "tail": statistics.quantiles(tails, n=4, method="inclusive")[2]
            if len(tails) > 1 else tails[0],
            "tail_pct": pct, "tail_run": percentile(values, run_pct),
            "tail_run_pct": run_pct, "windows": len(parts)}


def median_of(parts) -> float:
    """Median of per-part figures (one per pass or window)."""
    parts = list(parts)
    return statistics.median(parts) if parts else 0.0


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0
