"""Bounded FIFO channel with ``sc_fifo`` semantics.

Reads and writes are blocking generator methods (invoked with
``yield from``); non-blocking variants return success flags.  Visibility
follows SystemC: an item written in delta *n* becomes readable in delta
*n + 1* (counts are updated in the update phase), which keeps
producer/consumer pairs deterministic regardless of process ordering.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Generic, Optional, Tuple, TypeVar

from repro.kernel.errors import SimulationError
from repro.kernel.event import Event
from repro.kernel.object import SimObject

T = TypeVar("T")


class Fifo(SimObject, Generic[T]):
    """A bounded, typed FIFO primitive channel."""

    def __init__(self, name, parent=None, ctx=None, capacity: int = 16):
        super().__init__(name, parent, ctx)
        if capacity < 1:
            raise SimulationError(f"fifo {name!r}: capacity must be >= 1")
        self.capacity = capacity
        self._items: deque = deque()
        #: items written this delta, not yet readable
        self._pending_writes: deque = deque()
        #: number of reads this delta, freeing space next delta
        self._reads_this_delta = 0
        self._update_pending = False
        self._data_written = Event(self, f"{self.full_name}.data_written")
        self._data_read = Event(self, f"{self.full_name}.data_read")
        self.total_written = 0
        self.total_read = 0
        #: Optional occupancy instrument (``repro.obs.instruments
        #: .watch_fifo``); sampled from the update phase when set.
        self._occupancy_gauge = None

    # -- capacity bookkeeping ---------------------------------------------------

    def num_available(self) -> int:
        """Items readable right now."""
        return len(self._items)

    def num_free(self) -> int:
        """Slots writable right now (reads become visible next delta)."""
        return (
            self.capacity
            - len(self._items)
            - len(self._pending_writes)
        )

    # -- non-blocking interface ----------------------------------------------

    def nb_write(self, item: T) -> bool:
        """Write without blocking; returns False if the FIFO is full."""
        if self.num_free() <= 0:
            return False
        self._pending_writes.append(item)
        self.total_written += 1
        self._request_update()
        return True

    def nb_read(self) -> Tuple[bool, Optional[T]]:
        """Read without blocking; returns ``(ok, item)``."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        self._reads_this_delta += 1
        self.total_read += 1
        self._request_update()
        return True, item

    # -- blocking interface -------------------------------------------------------

    def write(self, item: T) -> Generator:
        """Blocking write: suspends while the FIFO is full."""
        while not self.nb_write(item):
            yield self._data_read

    def read(self) -> Generator:
        """Blocking read: suspends while the FIFO is empty.

        Returns the item read (via the generator's return value)::

            item = yield from fifo.read()
        """
        while True:
            ok, item = self.nb_read()
            if ok:
                return item
            yield self._data_written

    # -- update phase -------------------------------------------------------------

    def _request_update(self) -> None:
        if not self._update_pending:
            # The _update_pending flag already dedupes, so skip
            # request_update's id()-set and append to the queue directly.
            self._update_pending = True
            self.ctx._update_queue.append(self)

    def _perform_update(self) -> None:
        self._update_pending = False
        if self._pending_writes:
            self._items.extend(self._pending_writes)
            self._pending_writes.clear()
            self._data_written.notify_delta()
        if self._reads_this_delta:
            self._reads_this_delta = 0
            self._data_read.notify_delta()
        gauge = self._occupancy_gauge
        if gauge is not None:
            gauge.set_at(len(self._items), self.ctx._now_fs)

    # -- events --------------------------------------------------------------------

    def default_event(self) -> Event:
        """Sensitivity hook: data-written."""
        return self._data_written

    @property
    def data_written_event(self) -> Event:
        """Fires when items become readable."""
        return self._data_written

    # -- checkpoint/restore protocol (see repro.snapshot) -------------------

    def __snapshot_events__(self):
        return (self._data_written, self._data_read)

    def __snapshot__(self) -> dict:
        # Quiescent capture means the update phase has drained, so no
        # writes or read-counts can be in flight.
        if self._pending_writes or self._reads_this_delta \
                or self._update_pending:
            from repro.snapshot.state import SnapshotError
            raise SnapshotError(
                f"fifo {self.full_name} has an in-flight update at capture"
            )
        return {
            "items": list(self._items),
            "total_written": self.total_written,
            "total_read": self.total_read,
        }

    def __restore__(self, state: dict) -> None:
        self._items = deque(state["items"])
        self.total_written = state["total_written"]
        self.total_read = state["total_read"]

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return (
            f"Fifo({self.full_name!r}, {len(self._items)}/{self.capacity})"
        )
