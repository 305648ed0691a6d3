"""Synchronization primitives: mutex and timeout helpers.

:class:`Mutex` mirrors ``sc_mutex``.  Blocking operations are generator
methods invoked with ``yield from`` inside thread processes.

The timeout helpers are the kernel's resilience primitives:

* :func:`wait_with_timeout` — wait for an event with a deadline and
  learn whether the deadline expired;
* :func:`with_timeout` — impose an overall deadline on *any* blocking
  generator call (a bus ``transport``, a FIFO read, a nested protocol
  sequence) without the callee cooperating.
"""

from __future__ import annotations

from typing import Generator

from repro.kernel.errors import ProcessError, SimTimeoutError, SimulationError
from repro.kernel.event import Event
from repro.kernel.object import SimObject
from repro.kernel.process import WaitCondition, WaitMode
from repro.kernel.simtime import SimTime


def wait_with_timeout(event, timeout: SimTime) -> Generator:
    """Wait for ``event`` (an Event or or-list), at most ``timeout``.

    Returns True when the wait **timed out** and False when the event
    fired first::

        timed_out = yield from wait_with_timeout(fifo.data_written_event,
                                                 ns(500))
        if timed_out:
            ...

    A timeout of zero (or negative remaining budget) still suspends the
    process until the scheduled deadline in the current instant, keeping
    wake-up ordering deterministic.
    """
    wake = yield (timeout, event)
    return wake is None


def with_timeout(ctx, gen: Generator, timeout: SimTime,
                 what: str = "operation") -> Generator:
    """Drive blocking generator ``gen`` under an overall deadline.

    Works with any blocking interface method (``socket.transport(...)``,
    ``fifo.read()``, a whole protocol exchange): each wait the callee
    yields is capped at the remaining budget, so the caller resumes no
    later than ``now + timeout``::

        response = yield from with_timeout(
            self.ctx, socket.transport(request), us(5), what="bus read")

    Returns the callee's return value; raises
    :class:`~repro.kernel.errors.SimTimeoutError` if the deadline passes
    while the callee is still blocked (the callee generator is closed).
    Waits the callee completes exactly at the deadline count as success.
    Static-sensitivity waits cannot be capped and raise
    :class:`~repro.kernel.errors.ProcessError`.
    """
    deadline_fs = ctx._now_fs + timeout._fs
    send_value = None
    first = True
    while True:
        try:
            yielded = next(gen) if first else gen.send(send_value)
            first = False
        except StopIteration as stop:
            return stop.value
        cond = WaitCondition.normalize(yielded)
        if cond.mode is WaitMode.STATIC:
            gen.close()
            raise ProcessError(
                f"with_timeout({what}): cannot impose a deadline on a "
                f"static-sensitivity wait"
            )
        remaining_fs = deadline_fs - ctx._now_fs
        if remaining_fs <= 0:
            gen.close()
            raise SimTimeoutError(
                f"{what} timed out after {timeout} (at {ctx.now})"
            )
        own = cond.timeout
        if own is not None and own._fs <= remaining_fs:
            # The callee's own deadline expires first: pass the wait
            # through untouched; a None wake-up is the callee's timeout.
            send_value = yield cond
            continue
        capped = SimTime._from_fs(remaining_fs)
        send_value = yield WaitCondition(cond.mode, cond.events,
                                         timeout=capped)
        if send_value is None:
            # Our injected deadline fired (the callee either had no
            # timeout or a later one, so this None can only be ours).
            gen.close()
            raise SimTimeoutError(
                f"{what} timed out after {timeout} (at {ctx.now})"
            )


class Mutex(SimObject):
    """A non-recursive mutex owned by the locking process."""

    def __init__(self, name, parent=None, ctx=None):
        super().__init__(name, parent, ctx)
        self._owner = None
        self._released = Event(self, f"{self.full_name}.released")

    def lock(self) -> Generator:
        """Blocking lock (``yield from mutex.lock()``)."""
        while not self.try_lock():
            yield self._released

    def try_lock(self) -> bool:
        """Non-blocking lock attempt."""
        if self._owner is not None:
            return False
        self._owner = self.ctx.current_process
        return True

    def unlock(self) -> None:
        """Release; only the owning process may unlock."""
        current = self.ctx.current_process
        if self._owner is None:
            raise SimulationError(f"mutex {self.full_name}: not locked")
        if current is not None and current is not self._owner:
            raise SimulationError(
                f"mutex {self.full_name}: unlock by non-owner "
                f"{current.name!r}"
            )
        self._owner = None
        self._released.notify()

    @property
    def locked(self) -> bool:
        """True while some process owns the mutex."""
        return self._owner is not None
