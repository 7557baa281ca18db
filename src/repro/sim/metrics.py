"""Measurement primitives used by the workload harness and the tracer.

All statistics are computed over *virtual* time. The latency recorder keeps
raw samples (experiments here are small enough that exact percentiles beat
sketches) and supports a measurement window so warmup is excluded, matching
how the paper reports steady-state YCSB numbers.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Dict, List, Tuple


class Counter:
    """Monotonic event count, with per-window deltas via :meth:`mark`."""

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0
        self._marked = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase")
        self.value += n

    def mark(self) -> None:
        """Snapshot the current value; :meth:`since_mark` counts from here."""
        self._marked = self.value

    def since_mark(self) -> int:
        return self.value - self._marked


class Gauge:
    """An instantaneous value (queue depth, buffer bytes) with peak tracking."""

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        self.peak = max(self.peak, value)

    def add(self, delta: float) -> None:
        self.set(self.value + delta)


class TimeWeightedValue:
    """Time-integral of a step function, for averages like mean queue depth."""

    def __init__(self, now: float = 0.0, value: float = 0.0):
        self.value = value
        self._last_time = now
        self._area = 0.0
        self._start = now

    def update(self, now: float, value: float) -> None:
        if now < self._last_time:
            raise ValueError("time went backwards")
        self._area += self.value * (now - self._last_time)
        self._last_time = now
        self.value = value

    def average(self, now: float) -> float:
        elapsed = now - self._start
        if elapsed <= 0:
            return self.value
        area = self._area + self.value * (now - self._last_time)
        return area / elapsed


class LatencyRecorder:
    """Raw-sample latency statistics with a warmup-aware window.

    Samples are (completion_time, latency) pairs; :meth:`summary` restricts
    to completions inside [window_start, window_end] so that only
    steady-state operations are reported.

    Every raw sample is retained, so :meth:`record` is one list append
    (this recorder sits behind per-RPC trace points) and every statistic
    is exact.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._samples: List[Tuple[float, float]] = []

    def record(self, completed_at: float, latency_ms: float) -> None:
        if latency_ms < 0:
            raise ValueError(f"negative latency {latency_ms}")
        self._samples.append((completed_at, latency_ms))

    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    def in_window(
        self, window_start: float = 0.0, window_end: float = math.inf
    ) -> List[float]:
        return [
            latency
            for completed_at, latency in self._samples
            if window_start <= completed_at <= window_end
        ]

    def percentile(self, p: float, window_start: float = 0.0, window_end: float = math.inf) -> float:
        """Exact percentile (nearest-rank) of windowed samples; p in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        values = sorted(self.in_window(window_start, window_end))
        if not values:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * len(values)))
        return values[rank - 1]

    def summary(
        self, window_start: float = 0.0, window_end: float = math.inf
    ) -> "LatencySummary":
        values = self.in_window(window_start, window_end)
        if not values:
            return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(values)

        def pct(p: float) -> float:
            rank = max(1, math.ceil(p / 100.0 * len(ordered)))
            return ordered[rank - 1]

        minimum, maximum = ordered[0], ordered[-1]
        # Clamp the mean into [min, max]: naive summation can land 1 ulp
        # outside the sample range (e.g. three identical samples).
        mean = min(max(math.fsum(ordered) / len(ordered), minimum), maximum)
        return LatencySummary(
            count=len(ordered),
            mean=mean,
            p50=pct(50),
            p99=pct(99),
            minimum=minimum,
            maximum=maximum,
        )


class LatencySummary:
    """Aggregate latency stats for one measurement window."""

    __slots__ = ("count", "mean", "p50", "p99", "minimum", "maximum")

    def __init__(
        self, count: int, mean: float, p50: float, p99: float, minimum: float, maximum: float
    ):
        self.count = count
        self.mean = mean
        self.p50 = p50
        self.p99 = p99
        self.minimum = minimum
        self.maximum = maximum

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LatencySummary n={self.count} mean={self.mean:.2f}ms "
            f"p50={self.p50:.2f}ms p99={self.p99:.2f}ms>"
        )


class P2Quantile:
    """Streaming quantile estimate: the P² algorithm (Jain & Chlamtac '85).

    Tracks one quantile ``p`` in (0, 1) with five markers in O(1) space
    and O(1) per observation — no stored samples, no sorting, no RNG —
    so it is cheap enough to key one estimator per network link and feed
    it from the per-RPC trace points, and deterministic enough to live
    inside the seeded simulation (hedge delays derived from it replay
    bit-for-bit).

    Until five observations arrive the exact nearest-rank quantile of
    the observed values is returned; after that the marker invariants
    take over and :meth:`value` is the P² estimate.
    """

    __slots__ = ("p", "count", "_q", "_n", "_np", "_dn")

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = p
        self.count = 0
        self._q: List[float] = []  # marker heights (sorted)
        self._n = [0, 1, 2, 3, 4]  # actual marker positions
        self._np = [0.0, 2.0 * p, 4.0 * p, 2.0 + 2.0 * p, 4.0]  # desired
        self._dn = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]  # increments

    def observe(self, x: float) -> None:
        self.count += 1
        q = self._q
        if self.count <= 5:
            insort(q, x)
            return
        n, np_, dn = self._n, self._np, self._dn
        # Locate the cell containing x, updating the extremes in place.
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 3
            for i in range(1, 5):
                if x < q[i]:
                    k = i - 1
                    break
        for i in range(k + 1, 5):
            n[i] += 1
        for i in range(5):
            np_[i] += dn[i]
        # Nudge the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            delta = np_[i] - n[i]
            if (delta >= 1.0 and n[i + 1] - n[i] > 1) or (
                delta <= -1.0 and n[i - 1] - n[i] < -1
            ):
                step = 1 if delta >= 0.0 else -1
                candidate = self._parabolic(i, step)
                if not q[i - 1] < candidate < q[i + 1]:
                    candidate = self._linear(i, step)
                q[i] = candidate
                n[i] += step

    def _parabolic(self, i: int, step: int) -> float:
        q, n = self._q, self._n
        return q[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step)
            * (q[i + 1] - q[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step)
            * (q[i] - q[i - 1])
            / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: int) -> float:
        q, n = self._q, self._n
        return q[i] + step * (q[i + step] - q[i]) / (n[i + step] - n[i])

    def value(self) -> float:
        """Current quantile estimate (0.0 before any observation)."""
        if self.count == 0:
            return 0.0
        if self.count <= 5:
            rank = max(1, math.ceil(self.p * len(self._q)))
            return self._q[rank - 1]
        return self._q[2]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<P2Quantile p={self.p} n={self.count} est={self.value():.3f}>"


class MetricsRegistry:
    """Namespaced metric store; one per node plus one per experiment."""

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._latencies: Dict[str, LatencyRecorder] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(self._qualify(name))
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(self._qualify(name))
        return self._gauges[name]

    def latency(self, name: str) -> LatencyRecorder:
        if name not in self._latencies:
            self._latencies[name] = LatencyRecorder(self._qualify(name))
        return self._latencies[name]

    def snapshot(self) -> Dict[str, float]:
        """Flat name→value view of counters and gauges (for reports/tests)."""
        values: Dict[str, float] = {}
        for name, counter in self._counters.items():
            values[self._qualify(name)] = float(counter.value)
        for name, gauge in self._gauges.items():
            values[self._qualify(name)] = gauge.value
        return values

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name
