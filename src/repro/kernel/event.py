"""Simulation events with SystemC notification semantics.

An :class:`Event` is the kernel's only synchronization primitive; every
higher-level construct (signals, FIFOs, SHIP channels, bus handshakes)
reduces to events.  The notification rules follow IEEE 1666:

* ``notify()`` — *immediate*: waiting processes become runnable in the
  current evaluation phase.
* ``notify_delta()`` — *delta*: waiting processes become runnable in the
  next delta cycle.
* ``notify_after(t)`` — *timed*: the event triggers at ``now + t``.

An event carries at most one pending (delta or timed) notification.  A new
notification is discarded if it would trigger no earlier than the pending
one; an earlier notification overrides the pending one.  Immediate
notification always takes effect and cancels any pending notification.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.kernel.simtime import SimTime, ZERO_TIME

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.context import SimContext
    from repro.kernel.process import Process


# Timed-heap entry layout, shared by SimContext (which owns the heap),
# Event (timed notifications), Process (timeouts) and Clock (edges).  An
# entry is a mutable 4-list ``[when_fs, seq, kind, payload]`` ordered by
# plain integer comparison: ``when_fs`` is absolute femtoseconds, ``seq``
# is a unique tie-breaker, so comparisons never reach ``kind``/``payload``.
# Cancellation rewrites ``kind`` in place — no heap surgery needed.
ENTRY_WHEN_FS = 0
ENTRY_SEQ = 1
ENTRY_KIND = 2
ENTRY_PAYLOAD = 3

KIND_EVENT = 0
KIND_RESUME = 1
KIND_CANCELLED = 2
KIND_CLOCK = 3  # a clock's next edge; the clock re-arms the same entry


def _resolve_ctx(owner) -> "SimContext":
    """Accept either a SimContext or any object exposing ``.ctx``."""
    ctx = getattr(owner, "ctx", owner)
    if not isinstance(ctx, _context.SimContext):
        raise TypeError(
            f"Event owner must be a SimContext or a simulation object, "
            f"got {type(owner).__name__}"
        )
    return ctx


class Event:
    """A notifiable simulation event.

    Parameters
    ----------
    owner:
        The :class:`~repro.kernel.context.SimContext` this event belongs
        to, or any simulation object exposing a ``ctx`` attribute.
    name:
        Optional diagnostic name (shown in traces and error messages).
    """

    __slots__ = (
        "ctx",
        "name",
        "_static_waiters",
        "_dynamic_waiters",
        "_pending_kind",
        "_pending_handle",
        "_trigger_count",
        "_last_trigger_delta",
    )

    def __init__(self, owner, name: str = ""):
        self.ctx = _resolve_ctx(owner)
        self.name = name or f"event_{id(self):x}"
        #: Processes statically sensitive to this event.
        self._static_waiters: List["Process"] = []
        #: Processes dynamically waiting on this event right now.
        self._dynamic_waiters: List["Process"] = []
        #: None | "delta" | "timed"
        self._pending_kind: Optional[str] = None
        #: For timed notifications: the scheduler handle (for cancel and
        #: for comparing trigger times).
        self._pending_handle = None
        self._trigger_count = 0
        self._last_trigger_delta = -1

    # -- notification API ------------------------------------------------

    def notify(self) -> None:
        """Immediate notification: trigger in the current evaluation phase."""
        if self._pending_kind is not None:
            self.cancel()
        self._trigger()

    def notify_delta(self) -> None:
        """Notify in the next delta cycle."""
        if self._pending_kind == "delta":
            return  # already pending as early as possible (short of immediate)
        if self._pending_kind == "timed":
            self._cancel_timed()
        self._pending_kind = "delta"
        self.ctx._delta_events.append(self)

    def notify_after(self, delay: SimTime) -> None:
        """Notify ``delay`` after the current simulation time.

        A zero delay is equivalent to :meth:`notify_delta`.
        """
        if not isinstance(delay, SimTime):
            raise TypeError(
                f"notify_after requires a SimTime delay, got "
                f"{type(delay).__name__}"
            )
        delay_fs = delay._fs
        if delay_fs == 0:
            self.notify_delta()
            return
        self._notify_at_fs(self.ctx._now_fs + delay_fs)

    def _notify_at_fs(self, when_fs: int) -> None:
        """Timed notification at absolute integer time (kernel fast path).

        Skips all ``SimTime`` construction; the same override rule as
        :meth:`notify_after` applies (an earlier notification wins).
        """
        if self._pending_kind == "delta":
            return  # pending delta is earlier than any timed notification
        if self._pending_kind == "timed":
            if self._pending_handle[ENTRY_WHEN_FS] <= when_fs:
                return  # pending notification is no later; keep it
            self._pending_handle[ENTRY_KIND] = KIND_CANCELLED
        self._pending_kind = "timed"
        self._pending_handle = self.ctx._schedule_event_fs(self, when_fs)

    def cancel(self) -> None:
        """Cancel any pending delta or timed notification."""
        if self._pending_kind == "timed":
            self._cancel_timed()
        elif self._pending_kind == "delta":
            # The context will see _pending_kind reset and skip the trigger.
            self._pending_kind = None

    def _cancel_timed(self) -> None:
        self._pending_handle[ENTRY_KIND] = KIND_CANCELLED
        self._pending_handle = None
        self._pending_kind = None

    def _notify_from_update(self, delta: int) -> None:
        """Delta notification from a channel update in delta ``delta``.

        With no waiter, no pending notification and no observer, the
        round trip through the delta list is invisible: trigger on the
        spot, stamped as the delta phase of ``delta`` would stamp it.
        """
        if (self._dynamic_waiters or self._static_waiters
                or self._pending_kind is not None
                or self.ctx._obs is not None):
            self.notify_delta()
        else:
            self._trigger_count += 1
            self._last_trigger_delta = delta

    # -- kernel-side hooks -------------------------------------------------

    def _fire_scheduled(self, kind: str) -> None:
        """Called by the scheduler when a pending notification matures."""
        if self._pending_kind != kind:
            return  # was cancelled or superseded
        self._pending_kind = None
        self._pending_handle = None
        self._trigger()

    def _trigger(self) -> None:
        """Wake every waiting process.  Runs inside the evaluation phase
        (immediate notify) or the notification phase (delta/timed)."""
        self._trigger_count += 1
        self._last_trigger_delta = self.ctx._delta_count
        if self._dynamic_waiters:
            waiters = self._dynamic_waiters
            self._dynamic_waiters = []
            for process in waiters:
                process._wake(self)
        for process in self._static_waiters:
            # Wake only the processes actually suspended on their static
            # sensitivity list.
            if process._waiting_static:
                process._wake(self)

    # -- wait-list management (used by Process) ---------------------------

    def _remove_dynamic(self, process: "Process") -> None:
        try:
            self._dynamic_waiters.remove(process)
        except ValueError:
            pass

    def add_static(self, process: "Process") -> None:
        """Register a statically-sensitive process (elaboration time)."""
        if process not in self._static_waiters:
            self._static_waiters.append(process)

    # -- introspection ------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True if this event triggered in the current delta cycle."""
        return self._last_trigger_delta == self.ctx._delta_count

    @property
    def trigger_count(self) -> int:
        """Total number of times this event has triggered."""
        return self._trigger_count

    @property
    def has_pending_notification(self) -> bool:
        """True while a delta/timed notification is queued."""
        return self._pending_kind is not None

    def __repr__(self) -> str:
        return f"Event({self.name!r})"


# Imported last: the context module imports this one, so the class is
# looked up through the module at call time.
from repro.kernel import context as _context  # noqa: E402
