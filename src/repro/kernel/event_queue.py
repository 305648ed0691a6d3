"""Event queue: multiple pending notifications (``sc_event_queue``).

A plain :class:`~repro.kernel.event.Event` holds at most one pending
notification — a second notify that would land later is discarded.
Models that must deliver *every* notification (timers firing bursts,
bus monitors batching) use an :class:`EventQueue`: each ``notify``
is queued and delivered in its own delta cycle, none are lost.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List

from repro.kernel.event import Event
from repro.kernel.object import SimObject
from repro.kernel.simtime import SimTime, ZERO_TIME


class EventQueue(SimObject):
    """Delivers one trigger of :attr:`event` per queued notification.

    Notifications at the same timestamp are delivered in consecutive
    delta cycles so even a single waiting process observes each one.
    """

    def __init__(self, name, parent=None, ctx=None):
        super().__init__(name, parent, ctx)
        #: The event processes wait on / are sensitive to.
        self.event = Event(self, f"{self.full_name}.event")
        #: Internal relay scheduled for the earliest queued notification;
        #: the Event override rule (earlier wins) does the re-arming.
        self._relay = Event(self, f"{self.full_name}.relay")
        self._pump = _QueuePump(self)
        self._pump_waiting = False
        self._pending: List = []
        self._seq = itertools.count()
        self.delivered = 0

    def default_event(self) -> Event:
        """Sensitivity hook: the delivery event."""
        return self.event

    def notify(self, delay: SimTime = ZERO_TIME) -> None:
        """Queue a notification ``delay`` from now (0 = next delta)."""
        heapq.heappush(
            self._pending, (self.ctx._now_fs + delay._fs, next(self._seq))
        )
        self._arm()

    @property
    def pending_count(self) -> int:
        """Notifications queued and not yet delivered."""
        return len(self._pending)

    # -- delivery machinery ----------------------------------------------------

    def _arm(self) -> None:
        if not self._pending:
            return
        if not self._pump_waiting:
            self._relay._add_dynamic(self._pump)
            self._pump_waiting = True
        when_fs = self._pending[0][0]
        if when_fs <= self.ctx._now_fs:
            self._relay.notify_delta()
        else:
            # An already-pending later notification is overridden; an
            # already-pending earlier one makes this a no-op.  The
            # integer-time path skips SimTime construction entirely.
            self._relay._notify_at_fs(when_fs)

    def _pump_fired(self) -> None:
        self._pump_waiting = False
        if not self._pending:
            return
        heapq.heappop(self._pending)
        self.delivered += 1
        self.event.notify_delta()
        self._arm()


class _QueuePump:
    """Relay waiter with the minimal process-like wake interface."""

    __slots__ = ("queue",)

    def __init__(self, queue: EventQueue):
        self.queue = queue

    def _event_triggered(self, event: Event) -> None:
        self.queue._pump_fired()
