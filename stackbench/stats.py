"""Exact nearest-rank statistics over the benchmark's own samples.

Every timing the benchmark reports goes through :func:`percentile`; the
service's log-bucketed histograms are never read, because they report
bucket upper bounds rather than measured values.
"""

from __future__ import annotations

import math
from typing import Sequence

#: A tail percentile is only reported when at least this many samples lie
#: beyond its rank.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``: the
    smallest sample such that at least ``q`` percent of samples are <= it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """The highest nearest-rank percentile that keeps :data:`MIN_BEYOND`
    samples beyond it: ``(value, percentile level)``. That is the sample
    at rank ``n - MIN_BEYOND``."""
    count = len(samples)
    if count <= MIN_BEYOND:
        raise ValueError(
            f"{count} samples leave no percentile with {MIN_BEYOND} beyond it"
        )
    rank = count - MIN_BEYOND
    return sorted(samples)[rank - 1], 100.0 * rank / count


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50)
