"""A small thread-safe metrics registry: counters and latency histograms.

The query service records per-query planning/execution time, rows produced,
admission rejections, timeouts, retries, plan-cache traffic and page-cache
deltas here; :meth:`MetricsRegistry.snapshot` renders everything as one
nested dict (the shape ``QueryService.metrics_snapshot()`` and the shell's
``:metrics`` command expose).

Histograms use fixed log-spaced bucket bounds (Prometheus-style cumulative
semantics would be overkill for an embedded engine; we keep per-bucket
counts plus count/sum/min/max, from which the snapshot derives mean and
percentiles interpolated within their bucket). :func:`exact_percentile`
is the exact counterpart for callers that keep every sample (smoke gates
and benchmarks).
"""

from __future__ import annotations

import math
import threading
from typing import Optional, Sequence

DEFAULT_LATENCY_BUCKETS_S = tuple(
    1e-5 * (10 ** (exponent / 4)) for exponent in range(0, 29)
)
"""Log-spaced bounds from 10 µs to ~100 s (4 buckets per decade)."""

DEFAULT_COUNT_BUCKETS = tuple(
    int(10 ** (exponent / 2)) for exponent in range(0, 17)
)
"""Log-spaced bounds from 1 to 1e8 for row/page counts."""


def exact_percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """The sample at index ``int(fraction * n)`` of ascending
    ``sorted_values`` (clamped to the last one); 0.0 when empty."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


class Counter:
    """A monotonically increasing thread-safe counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max and percentiles."""

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        self.name = name
        self.bounds = tuple(sorted(buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        # One count per bound, plus an overflow bucket.
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = self._bucket_index(value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def _bucket_index(self, value: float) -> int:
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, quantile: float) -> float:
        """Approximate percentile, interpolated linearly inside the bucket
        in which the requested rank falls. The bucket's edges are clamped
        to the observed min/max, so a bucket bound is never reported as a
        measurement (exact min/max for the extremes)."""
        with self._lock:
            if not self._count:
                return 0.0
            if quantile <= 0:
                return self._min
            if quantile >= 1:
                return self._max
            rank = quantile * self._count
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                if cumulative + bucket_count >= rank and bucket_count:
                    lower = self.bounds[index - 1] if index else self._min
                    upper = (
                        self.bounds[index]
                        if index < len(self.bounds)
                        else self._max
                    )
                    lower = max(lower, self._min)
                    upper = min(upper, self._max)
                    share = (rank - cumulative) / bucket_count
                    return lower + (upper - lower) * share
                cumulative += bucket_count
            return self._max

    def summary(self) -> dict:
        with self._lock:
            if not self._count:
                return {"count": 0, "sum": 0.0, "mean": 0.0}
            base = {
                "count": self._count,
                "sum": self._sum,
                "mean": self._sum / self._count,
                "min": self._min,
                "max": self._max,
            }
        base["p50"] = self.percentile(0.50)
        base["p95"] = self.percentile(0.95)
        base["p99"] = self.percentile(0.99)
        return base


class MetricsRegistry:
    """Named counters and histograms, created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            return counter

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(
                    name, buckets or DEFAULT_LATENCY_BUCKETS_S
                )
            return histogram

    def snapshot(self) -> dict:
        """All counters (name -> value) and histograms (name -> summary)."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name: counter.value for name, counter in sorted(counters.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(histograms.items())
            },
        }
