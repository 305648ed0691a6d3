"""``repro.obs`` — unified observability: hooks, metrics, traces, profiling.

The cross-cutting visibility layer the paper's methodology implies:
CCATB models exist so designers can *read* cycle counts, latencies and
contention out of a fast simulation, and this package is where those
readings live.

* :mod:`repro.obs.hooks` — the instrumentation contract
  (:class:`SimObserver`); the scheduler calls an attached observer's
  hooks and, with none attached, calls no hook and reads no clock.
  Bus CAMs and SHIP channels report each completed transfer to the
  same observer (``on_transaction``).
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, histograms and time-weighted gauges that the bus CAMs, the
  OCP monitor and FIFOs publish into.
* :mod:`repro.obs.trace_events` — Chrome trace-event / Perfetto JSON
  export (:class:`TraceEventCollector`); open any run in
  ``ui.perfetto.dev``.
* :mod:`repro.obs.profiler` — :class:`SimProfiler`, per-process host
  time and activation counts with a top-N hotspot table.
* :mod:`repro.obs.report` — the ``python -m repro.obs.report`` CLI
  demonstrating all of the above on a two-master PLB workload.
* :mod:`repro.obs.telemetry` — cross-process sweep telemetry:
  :class:`SweepTelemetry` stitches orchestrator and worker spans into
  one Perfetto timeline.

See ``docs/observability.md`` for the hook points, the metric catalog
and measured overhead numbers.
"""

from repro.obs.hooks import ObserverGroup, SimObserver
from repro.obs.instruments import watch_fifo
from repro.obs.metrics import (
    Counter,
    Gauge,
    HistogramMetric,
    MetricsRegistry,
    TimeWeightedGauge,
)
from repro.obs.profiler import ProcessProfile, SimProfiler
from repro.obs.trace_events import TraceEventCollector

__all__ = [
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "ObserverGroup",
    "ProcessProfile",
    "SimObserver",
    "SimProfiler",
    "SpanRecorder",
    "SweepTelemetry",
    "TimeWeightedGauge",
    "TraceEventCollector",
    "watch_fifo",
]

#: Names resolved lazily from :mod:`repro.obs.telemetry` (PEP 562) so
#: that ``import repro.obs`` never pays for — and never *loads* — the
#: telemetry layer unless something actually touches it.  The sweep
#: benchmarks assert the module stays out of ``sys.modules`` on
#: telemetry-off runs; keep these imports lazy.
_TELEMETRY_EXPORTS = (
    "SpanRecorder",
    "SweepTelemetry",
)


def __getattr__(name):
    """Lazily resolve telemetry exports without importing them eagerly."""
    if name in _TELEMETRY_EXPORTS:
        import repro.obs.telemetry as _telemetry

        return getattr(_telemetry, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
