"""Streaming statistics used by bus monitors and the exploration engine.

Everything here is *online* (O(1) memory per statistic) so monitors can be
left attached during long architecture-exploration sweeps without
accumulating per-sample storage.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.kernel.simtime import SimTime


class OnlineStats:
    """Welford-style running count/mean/variance with min/max."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum", "total")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.total = 0.0

    def add(self, value: float) -> None:
        """Fold one sample into the running moments."""
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Running mean (0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance."""
        return self._m2 / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def sample_variance(self) -> float:
        """Unbiased (n-1) sample variance; 0 below two samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def sample_stddev(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.sample_variance)

    @property
    def sem(self) -> float:
        """Standard error of the mean (sample stddev / sqrt(n))."""
        if self.count < 2:
            return 0.0
        return self.sample_stddev / math.sqrt(self.count)

    def __snapshot__(self) -> dict:
        return {
            "count": self.count,
            "mean": self._mean,
            "m2": self._m2,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "total": self.total,
        }

    def __restore__(self, state: dict) -> None:
        self.count = state["count"]
        self._mean = state["mean"]
        self._m2 = state["m2"]
        self.minimum = state["minimum"]
        self.maximum = state["maximum"]
        self.total = state["total"]

    def __repr__(self) -> str:
        return (
            f"OnlineStats(n={self.count}, mean={self.mean:.4g}, "
            f"std={self.stddev:.4g}, min={self.minimum}, max={self.maximum})"
        )


class TimeStats:
    """OnlineStats over :class:`SimTime` samples (stored as ns floats)."""

    __slots__ = ("_stats",)

    def __init__(self):
        self._stats = OnlineStats()

    def add(self, duration: SimTime) -> None:
        """Fold one duration into the statistics."""
        self.add_fs(duration._fs)

    def add_fs(self, femtoseconds: int) -> None:
        """Fold one duration given in femtoseconds into the statistics."""
        self._stats.add(femtoseconds / 1_000_000)

    @property
    def count(self) -> int:
        """Number of samples."""
        return self._stats.count

    @property
    def mean_ns(self) -> float:
        """Mean duration in nanoseconds."""
        return self._stats.mean

    @property
    def max_ns(self) -> float:
        """Maximum duration in nanoseconds."""
        return self._stats.maximum or 0.0

    @property
    def stddev_ns(self) -> float:
        """Standard deviation in nanoseconds."""
        return self._stats.stddev

    @property
    def total_ns(self) -> float:
        """Summed duration in nanoseconds."""
        return self._stats.total

    def __snapshot__(self) -> dict:
        return self._stats.__snapshot__()

    def __restore__(self, state: dict) -> None:
        self._stats.__restore__(state)

    def __repr__(self) -> str:
        return (
            f"TimeStats(n={self.count}, mean={self.mean_ns:.2f} ns, "
            f"max={self.max_ns:.2f} ns)"
        )
