"""``repro.trace`` — waveform tracing and streaming statistics.

* :class:`VcdTracer` dumps signal changes to IEEE 1364 VCD files.
* :mod:`repro.trace.stats` provides streaming statistics (Welford mean /
  variance over plain values and over durations).

Completed transactions reach a trace through the context's observer:
bus CAMs and SHIP channels call
:meth:`repro.obs.hooks.SimObserver.on_transaction`.
"""

from repro.trace.stats import OnlineStats, TimeStats
from repro.trace.vcd import VcdTracer

__all__ = [
    "OnlineStats",
    "TimeStats",
    "VcdTracer",
]
