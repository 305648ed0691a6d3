"""Clock: a self-toggling boolean signal, mirroring ``sc_clock``."""

from __future__ import annotations

import heapq
from typing import Generator

from repro.kernel.errors import SimulationError
from repro.kernel.event import KIND_CLOCK
from repro.kernel.signal import Signal
from repro.kernel.simtime import SimTime, ZERO_TIME


class Clock(Signal):
    """A periodic boolean signal, high for half of each period, whose
    first edge rises at the start of simulation.

    Not a process: one timed-heap entry ``[when_fs, seq, KIND_CLOCK,
    clock]`` is handed back at each edge (:meth:`_edge_due`), which the
    clock re-arms one phase later.

    Parameters
    ----------
    period:
        Clock period (must be positive).
    """

    def __init__(self, name, parent=None, ctx=None, period: SimTime = None):
        if period is None or period == ZERO_TIME:
            raise SimulationError(f"clock {name!r} needs a positive period")
        high_fs = round(period.femtoseconds / 2)
        if not 0 < high_fs < period.femtoseconds:
            # a 0 fs phase would re-arm the edge at its own instant forever
            raise SimulationError(
                f"clock {name!r}: period {period} rounds a phase to 0 fs"
            )
        super().__init__(name, parent, ctx, init=False, check_writer=False)
        self.period = period
        self._high_fs = high_fs
        self._low_fs = period.femtoseconds - high_fs
        #: the edge entry; set when armed (or by snapshot restore)
        self._edge = None
        # A clock built after elaboration would never be armed.
        self.ctx._check_not_elaborated(f"creating clock {self.full_name}")

    def start_of_simulation(self) -> None:
        """Arm the first edge, unless a snapshot restore already did."""
        if self._edge is not None:
            return
        ctx = self.ctx
        # the first update phase applies the rising edge at the start
        # instant
        self.write(True)
        self._edge = [ctx._now_fs + self._high_fs, next(ctx._seq),
                      KIND_CLOCK, self]
        heapq.heappush(ctx._timed_heap, self._edge)

    def _edge_due(self, entry: list) -> None:
        """Timed drain: flip the level, re-arm ``entry`` a phase later.

        An edge is a write, so a process running at its instant reads
        the old level.  Alone at its instant (nothing runnable, no other
        heap entry there, no pending write, no value observer) no process
        can run before its update phase, so it is applied in place, in
        the update phase of the delta the drain is about to count.
        """
        ctx = self.ctx
        heap = ctx._timed_heap
        level = not self._current
        ctx._last_activity_fs = ctx._now_fs
        if (ctx._runnable or self._update_pending or self._observers
                or (heap and heap[0][0] == entry[0])):
            self.write(level)
        else:
            self._set_current(level, ctx._delta_count + 1)
        entry[0] += self._high_fs if level else self._low_fs
        entry[1] = next(ctx._seq)
        heapq.heappush(heap, entry)

    def sample(self, signal: Signal, idle) -> Generator:
        """Wait for the first rising edge that samples ``signal`` at a
        value other than ``idle``.

        ``yield from clock.sample(sig, idle)`` ends on the same edge, in
        the same delta cycle, as the polling loop ``while True: yield
        clock.posedge_event; if sig.read() != idle: break`` — but while
        ``signal`` holds ``idle`` the caller sleeps on its value-changed
        event instead of waking on every edge.  A change that lands in
        the same update phase as a rising edge is sampled by that edge,
        as a polling process would see it.
        """
        edge = self._posedge
        changed = signal.value_changed_event
        while True:
            if signal.read() == idle:
                yield changed
                if self.posedge():
                    # This delta is a rising edge's sampling delta.
                    if signal.read() != idle:
                        return
                    continue
            yield edge
            if signal.read() != idle:
                return
