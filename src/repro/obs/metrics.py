"""Metrics registry: counters, gauges, histograms, time-weighted gauges.

A :class:`MetricsRegistry` is a flat namespace of named instruments that
models publish into during simulation and tooling snapshots afterwards.
The bus CAMs, the OCP pin monitor and the FIFO occupancy instrument
all write here, which replaces the ad-hoc per-model counter code with
one shared publication path.

Instruments are cheap, allocation-free on the hot path, and JSON-able
via :meth:`MetricsRegistry.snapshot`:

* :class:`Counter` — monotonically increasing integer (transactions,
  bytes, arbiter grants).
* :class:`Gauge` — last-written value (bus utilization).
* :class:`HistogramMetric` — streaming moments over observed samples
  (latencies), built on :class:`~repro.trace.stats.OnlineStats`.
* :class:`TimeWeightedGauge` — a value integrated over *simulated* time
  (FIFO occupancy, busy flags); its :meth:`~TimeWeightedGauge.mean` is
  the time-weighted average, which is what "average occupancy" and
  "utilization" actually mean.

Gauges support listeners so a trace collector can mirror updates into
Chrome trace-event counter tracks.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

from repro.trace.stats import OnlineStats


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def snapshot(self, now_fs: Optional[int] = None) -> dict:
        """JSON-able state of this instrument."""
        return {"type": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A last-value-wins instrument."""

    __slots__ = ("name", "value", "_listeners")

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None
        self._listeners: List[Callable] = []

    def set(self, value, now_fs: Optional[int] = None) -> None:
        """Record the current value (optionally stamped with sim time)."""
        self.value = value
        if self._listeners:
            for fn in self._listeners:
                fn(value, now_fs)

    def add_listener(self, fn: Callable) -> None:
        """Call ``fn(value, now_fs)`` on every :meth:`set`."""
        self._listeners.append(fn)

    def snapshot(self, now_fs: Optional[int] = None) -> dict:
        """JSON-able state of this instrument."""
        return {"type": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class HistogramMetric:
    """Streaming sample statistics (count/mean/stddev/min/max/total)."""

    __slots__ = ("name", "_stats")

    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self._stats = OnlineStats()

    def observe(self, value: float) -> None:
        """Fold one sample into the running moments."""
        self._stats.add(value)

    @property
    def count(self) -> int:
        """Number of observed samples."""
        return self._stats.count

    @property
    def mean(self) -> float:
        """Running mean of the samples."""
        return self._stats.mean

    def snapshot(self, now_fs: Optional[int] = None) -> dict:
        """JSON-able state of this instrument."""
        s = self._stats
        return {
            "type": self.kind,
            "count": s.count,
            "mean": s.mean,
            "stddev": s.stddev,
            "min": s.minimum,
            "max": s.maximum,
            "total": s.total,
        }

    def __repr__(self) -> str:
        return f"HistogramMetric({self.name!r}, n={self.count})"


class TimeWeightedGauge:
    """A value integrated over simulated time.

    Each :meth:`set_at` closes the interval since the previous sample at
    the previous value, so :meth:`mean` is the exact time-weighted
    average of the piecewise-constant signal.  Feeding a 0/1 busy flag
    yields utilization; feeding a queue depth yields average occupancy.
    """

    __slots__ = (
        "name", "value", "minimum", "maximum",
        "_weighted_sum", "_start_fs", "_last_fs", "_listeners",
    )

    kind = "time_weighted"

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._weighted_sum = 0.0
        self._start_fs: Optional[int] = None
        self._last_fs: Optional[int] = None
        self._listeners: List[Callable] = []

    def set_at(self, value, now_fs: int) -> None:
        """Record ``value`` as current from simulated time ``now_fs``."""
        if self._last_fs is None:
            self._start_fs = now_fs
        else:
            self._weighted_sum += self.value * (now_fs - self._last_fs)
        self._last_fs = now_fs
        self.value = value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if self._listeners:
            for fn in self._listeners:
                fn(value, now_fs)

    def add_listener(self, fn: Callable) -> None:
        """Call ``fn(value, now_fs)`` on every :meth:`set_at`."""
        self._listeners.append(fn)

    def mean(self, now_fs: Optional[int] = None) -> float:
        """Time-weighted average, extending the last value to ``now_fs``."""
        if self._last_fs is None:
            return 0.0
        total = self._weighted_sum
        end_fs = self._last_fs if now_fs is None else max(now_fs,
                                                          self._last_fs)
        total += self.value * (end_fs - self._last_fs)
        elapsed = end_fs - self._start_fs
        if elapsed <= 0:
            return float(self.value)
        return total / elapsed

    def snapshot(self, now_fs: Optional[int] = None) -> dict:
        """JSON-able state of this instrument."""
        return {
            "type": self.kind,
            "value": self.value,
            "mean": self.mean(now_fs),
            "min": self.minimum,
            "max": self.maximum,
        }

    def __repr__(self) -> str:
        return f"TimeWeightedGauge({self.name!r}, {self.value})"


class MetricsRegistry:
    """A flat, get-or-create namespace of named instruments."""

    def __init__(self):
        self._instruments: Dict[str, object] = {}

    def _get_or_create(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name)
            self._instruments[name] = inst
        elif type(inst) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        """Get or create the :class:`Counter` called ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the :class:`Gauge` called ``name``."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> HistogramMetric:
        """Get or create the :class:`HistogramMetric` called ``name``."""
        return self._get_or_create(name, HistogramMetric)

    def time_weighted(self, name: str) -> TimeWeightedGauge:
        """Get or create the :class:`TimeWeightedGauge` called ``name``."""
        return self._get_or_create(name, TimeWeightedGauge)

    def get(self, name: str):
        """The instrument called ``name``, or None."""
        return self._instruments.get(name)

    def names(self) -> List[str]:
        """Sorted names of all registered instruments."""
        return sorted(self._instruments)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def snapshot(self, now_fs: Optional[int] = None) -> Dict[str, dict]:
        """JSON-able dict of every instrument, keyed by name.

        ``now_fs`` closes time-weighted integrals at that simulated time
        (pass the simulation's end time for exact utilization figures).
        """
        return {
            name: self._instruments[name].snapshot(now_fs)
            for name in self.names()
        }

    def write_json(self, path: str, now_fs: Optional[int] = None) -> None:
        """Dump :meth:`snapshot` to ``path`` as indented JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(now_fs), fh, indent=1)
            fh.write("\n")

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._instruments)} instruments)"
