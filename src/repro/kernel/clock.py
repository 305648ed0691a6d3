"""Clock: a self-toggling boolean signal, mirroring ``sc_clock``."""

from __future__ import annotations

from typing import Generator

from repro.kernel.errors import SimulationError
from repro.kernel.process import WaitCondition, WaitMode
from repro.kernel.signal import Signal
from repro.kernel.simtime import SimTime, ZERO_TIME


class Clock(Signal):
    """A periodic boolean signal.

    Parameters
    ----------
    period:
        Clock period (must be positive).
    duty_cycle:
        Fraction of the period the clock is high, ``0 < duty < 1``.
    start_time:
        Absolute time of the first edge.
    posedge_first:
        If True (default) the first edge is a rising edge.
    """

    def __init__(
        self,
        name,
        parent=None,
        ctx=None,
        period: SimTime = None,
        duty_cycle: float = 0.5,
        start_time: SimTime = ZERO_TIME,
        posedge_first: bool = True,
    ):
        super().__init__(name, parent, ctx, init=not posedge_first,
                         check_writer=False)
        if period is None or period == ZERO_TIME:
            raise SimulationError(f"clock {name!r} needs a positive period")
        if not 0.0 < duty_cycle < 1.0:
            raise SimulationError(
                f"clock {name!r}: duty_cycle must be in (0, 1), "
                f"got {duty_cycle}"
            )
        self.period = period
        self.duty_cycle = duty_cycle
        self.start_time = start_time
        self.posedge_first = posedge_first
        high_fs = round(period.femtoseconds * duty_cycle)
        self._high_time = SimTime._from_fs(high_fs)
        self._low_time = SimTime._from_fs(period.femtoseconds - high_fs)
        # Pre-built wait conditions: the toggle loop re-yields these two
        # objects forever instead of normalizing a fresh WaitCondition
        # per half-period (they are immutable once built).
        self._high_wait = WaitCondition(WaitMode.TIMED, timeout=self._high_time)
        self._low_wait = WaitCondition(WaitMode.TIMED, timeout=self._low_time)
        self.ctx.register_thread(self._toggle, f"{self.full_name}._toggle")

    def _toggle(self):
        if self.start_time > ZERO_TIME:
            yield self.start_time
        # The first edge moves the clock away from its init value.
        write = self.write
        high_wait, low_wait = self._high_wait, self._low_wait
        if self.posedge_first:
            while True:
                write(True)
                yield high_wait
                write(False)
                yield low_wait
        else:
            while True:
                write(False)
                yield low_wait
                write(True)
                yield high_wait

    def __restore_thread__(self, proc_name: str):
        """Replacement toggle body for snapshot restore.

        ``_toggle`` writes the signal *before* each in-loop yield, so
        re-priming the original body against restored state would re-do
        a write that already happened.  The replacement's first yield is
        a pure shape placeholder (its duration is discarded in favour of
        the captured timer); on wake, toggling resumes from the restored
        current value — which also lands in the correct half-period for
        asymmetric duty cycles, since the wait after each write is
        chosen by the value just written.
        """
        if proc_name != f"{self.full_name}._toggle":
            return None
        return self._toggle_resumed

    def _toggle_resumed(self):
        yield self._high_wait  # placeholder; timing adopted from snapshot
        write = self.write
        high_wait, low_wait = self._high_wait, self._low_wait
        while True:
            value = not self._current
            write(value)
            yield (high_wait if value else low_wait)

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

    def cycles(self, count: int) -> SimTime:
        """Duration of ``count`` clock periods."""
        return self.period * count

    @property
    def frequency_hz(self) -> float:
        """Clock frequency in Hz."""
        return 1.0 / self.period.to("sec")
