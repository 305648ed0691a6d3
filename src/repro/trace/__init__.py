"""``repro.trace`` — waveform tracing, transaction recording, statistics.

* :class:`VcdTracer` dumps signal changes to IEEE 1364 VCD files.
* :class:`TransactionRecorder` captures completed TLM transactions with
  timestamps, sizes and attributes; the exploration and accuracy
  experiments are built on its output.
* :mod:`repro.trace.stats` provides streaming statistics (Welford mean /
  variance over plain values and over durations).
"""

from repro.trace.stats import OnlineStats, TimeStats
from repro.trace.transaction import TransactionRecord, TransactionRecorder
from repro.trace.vcd import VcdTracer

__all__ = [
    "OnlineStats",
    "TimeStats",
    "TransactionRecord",
    "TransactionRecorder",
    "VcdTracer",
]
