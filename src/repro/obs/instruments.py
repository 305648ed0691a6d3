"""Built-in instrument wiring for kernel FIFOs.

Connects a FIFO to a :class:`~repro.obs.metrics.MetricsRegistry`
without the kernel importing the observability layer.  The bus CAMs
and the OCP pin monitor take a ``metrics`` constructor argument
directly; a FIFO gets its occupancy instrument retrofitted onto the
live object.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry, TimeWeightedGauge


def watch_fifo(fifo, registry: MetricsRegistry,
               name: Optional[str] = None) -> TimeWeightedGauge:
    """Publish ``fifo``'s occupancy as a time-weighted gauge.

    The kernel FIFO samples the gauge from its update phase, so the
    gauge's :meth:`~repro.obs.metrics.TimeWeightedGauge.mean` is the
    exact average occupancy over simulated time.  Returns the gauge.
    """
    gauge = registry.time_weighted(
        name or f"fifo.{fifo.full_name}.occupancy"
    )
    gauge.set_at(fifo.num_available(), fifo.ctx._now_fs)
    fifo._occupancy_gauge = gauge
    return gauge
