"""Statistics collectors for the experiment harness.

Every table in the paper is an aggregate over a simulation run:
throughput-loss fractions (Table 1), packet rates (Table 2), cycle counts
(Tables 3/4) and mean delay decompositions (Table 5).  The collectors
here are intentionally simple, deterministic and dependency-free.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


class RunningStats:
    """Streaming mean/variance/min/max (Welford's algorithm)."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance."""
        return self._m2 / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunningStats(n={self.count}, mean={self.mean:.4g}, "
            f"sd={self.stddev:.4g})"
        )


class TimeWeighted:
    """Time-weighted average of a piecewise-constant signal.

    Used for FIFO occupancy and resource utilization: ``record(v)`` at
    each change; :attr:`mean` integrates value over simulated time.
    """

    __slots__ = ("sim", "_value", "_last_change_ps", "_integral", "_start_ps")

    def __init__(self, sim: "Simulator", initial: float = 0.0) -> None:
        self.sim = sim
        self._value = initial
        self._last_change_ps = sim.now
        self._start_ps = sim.now
        self._integral = 0.0

    def record(self, value: float) -> None:
        now = self.sim.now
        self._integral += self._value * (now - self._last_change_ps)
        self._value = value
        self._last_change_ps = now

    @property
    def current(self) -> float:
        return self._value

    @property
    def mean(self) -> float:
        now = self.sim.now
        elapsed = now - self._start_ps
        if elapsed <= 0:
            return self._value
        integral = self._integral + self._value * (now - self._last_change_ps)
        return integral / elapsed


class LatencyRecorder:
    """Named latency sample aggregator (streaming, no sample
    retention)."""

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self.stats = RunningStats()

    def record(self, value: float) -> None:
        self.stats.add(value)

    @property
    def count(self) -> int:
        return self.stats.count

    @property
    def mean(self) -> float:
        return self.stats.mean

    @property
    def minimum(self) -> float:
        return self.stats.minimum if self.stats.count else 0.0

    @property
    def maximum(self) -> float:
        return self.stats.maximum if self.stats.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LatencyRecorder({self.name!r}, n={self.count}, mean={self.mean:.3f})"


def weighted_mean(pairs: Sequence[tuple[float, float]]) -> float:
    """Mean of ``(value, weight)`` pairs; 0.0 when total weight is zero."""
    total_w = sum(w for _v, w in pairs)
    if total_w == 0:
        return 0.0
    return sum(v * w for v, w in pairs) / total_w
