"""Synchronization primitives: mutex and the deadline helper.

:class:`Mutex` mirrors ``sc_mutex``.  Blocking operations are generator
methods invoked with ``yield from`` inside thread processes.

:func:`with_timeout` is the kernel's one deadline mechanism: it bounds
*any* blocking generator call (a SHIP ``request``, a bus ``transport``,
a FIFO read, a nested protocol sequence) without the callee taking a
``timeout`` of its own.  A single event wait with a deadline needs no
helper: ``wake = yield (timeout, event)`` resumes with ``None`` when the
timeout won.
"""

from __future__ import annotations

from typing import Generator

from repro.kernel.errors import ProcessError, SimTimeoutError, SimulationError
from repro.kernel.event import Event
from repro.kernel.object import SimObject
from repro.kernel.process import WaitCondition, WaitMode
from repro.kernel.simtime import SimTime


def with_timeout(ctx, gen: Generator, timeout: SimTime,
                 what: str = "operation") -> Generator:
    """Drive blocking generator ``gen`` under an overall deadline.

    Works with any blocking interface method (``port.request(msg)``,
    ``socket.transport(...)``, ``fifo.read()``, a whole protocol
    exchange): each wait the callee yields is capped at the remaining
    budget, so the caller resumes no later than ``now + timeout``::

        reply = yield from with_timeout(
            self.ctx, port.request(msg), us(1), what="echo request")

    Returns the callee's return value; raises
    :class:`~repro.kernel.errors.SimTimeoutError` if the deadline passes
    while the callee is still blocked.  Waits the callee completes
    exactly at the deadline count as success.  Static-sensitivity waits
    cannot be capped and raise :class:`~repro.kernel.errors.ProcessError`.

    The callee is closed whenever this call ends early: at its own
    deadline, or when it is itself closed (an enclosing deadline).  So
    the callee's cleanup runs at that instant, not at garbage
    collection; a SHIP ``request`` gives up its reply slot there.
    """
    deadline_fs = ctx._now_fs + timeout._fs
    send_value = None
    first = True
    try:
        while True:
            try:
                yielded = next(gen) if first else gen.send(send_value)
                first = False
            except StopIteration as stop:
                return stop.value
            cond = WaitCondition.normalize(yielded)
            if cond.mode is WaitMode.STATIC:
                raise ProcessError(
                    f"with_timeout({what}): cannot impose a deadline on a "
                    f"static-sensitivity wait"
                )
            remaining_fs = deadline_fs - ctx._now_fs
            if remaining_fs <= 0:
                break
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
                break
    finally:
        gen.close()
    raise SimTimeoutError(f"{what} timed out after {timeout} (at {ctx.now})")


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
