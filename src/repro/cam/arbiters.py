"""Bus arbitration policies for communication architecture models.

An arbiter picks, at a cycle boundary, which pending bus request is
granted next.  The three policies here cover what the CoreConnect PLB
arbiter offers (static priority with fair rotation inside a level) plus
TDMA, the classic alternative explored in communication-architecture
papers.  All are deterministic, which keeps CCATB runs reproducible.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from operator import attrgetter
from typing import List, Sequence

#: sort keys over pending requests: priority level, then arrival order
_BY_PRIORITY = attrgetter("priority", "seq")
_BY_ARRIVAL = attrgetter("seq")


class Arbiter(ABC):
    """Strategy interface: choose one of the pending requests."""

    name = "arbiter"

    @abstractmethod
    def pick(self, pending: Sequence, cycle: int):
        """Return the granted request (an object with ``master`` and
        ``priority`` attributes).  ``pending`` is non-empty; the caller
        removes the returned entry."""

    def snapshot_state(self) -> dict:
        """Adaptive state for checkpointing (see ``repro.snapshot``)."""
        return {}

    def restore_state(self, state: dict) -> None:
        """Reload state captured by :meth:`snapshot_state`."""


class StaticPriorityArbiter(Arbiter):
    """Lowest priority value wins; ties broken by arrival order.

    This is the PLB default: request priority is a two-bit field and the
    arbiter grants the highest level first.
    """

    name = "static-priority"

    def pick(self, pending: Sequence, cycle: int):
        return min(pending, key=_BY_PRIORITY)


class RoundRobinArbiter(Arbiter):
    """Fair rotation over masters, ignoring priorities."""

    name = "round-robin"

    def __init__(self):
        self._order: List[str] = []
        self._next_index = 0

    def _master_rank(self, master: str) -> int:
        if master not in self._order:
            self._order.append(master)
        idx = self._order.index(master)
        # Distance from the rotating pointer, so the master just after
        # the last grant is preferred.
        return (idx - self._next_index) % len(self._order)

    def pick(self, pending: Sequence, cycle: int):
        chosen = min(
            pending, key=lambda r: (self._master_rank(r.master), r.seq)
        )
        self._next_index = (self._order.index(chosen.master) + 1) % max(
            len(self._order), 1
        )
        return chosen

    def snapshot_state(self) -> dict:
        return {"order": list(self._order), "next_index": self._next_index}

    def restore_state(self, state: dict) -> None:
        self._order = list(state["order"])
        self._next_index = state["next_index"]


class TdmaArbiter(Arbiter):
    """Time-division slots; each slot cycle-range is owned by one master.

    ``schedule`` maps slot index -> master name; each slot lasts
    ``slot_cycles`` bus cycles.  If the slot owner has nothing pending
    the arbiter falls back to round-robin among the rest (work-conserving
    TDMA).
    """

    name = "tdma"

    def __init__(self, schedule: Sequence[str], slot_cycles: int = 4):
        if not schedule:
            raise ValueError("TDMA schedule cannot be empty")
        if slot_cycles < 1:
            raise ValueError(f"slot_cycles must be >= 1, got {slot_cycles}")
        self.schedule = list(schedule)
        self.slot_cycles = slot_cycles
        self._fallback = RoundRobinArbiter()

    def slot_owner(self, cycle: int) -> str:
        """The master owning the TDMA slot at ``cycle``."""
        slot = (cycle // self.slot_cycles) % len(self.schedule)
        return self.schedule[slot]

    def pick(self, pending: Sequence, cycle: int):
        owner = self.slot_owner(cycle)
        owned = [r for r in pending if r.master == owner]
        if owned:
            return min(owned, key=_BY_ARRIVAL)
        return self._fallback.pick(pending, cycle)

    def snapshot_state(self) -> dict:
        return {"fallback": self._fallback.snapshot_state()}

    def restore_state(self, state: dict) -> None:
        self._fallback.restore_state(state["fallback"])


def make_arbiter(kind: str, **kwargs) -> Arbiter:
    """Factory used by the exploration engine's config sweep."""
    factories = {
        "static-priority": StaticPriorityArbiter,
        "round-robin": RoundRobinArbiter,
        "tdma": TdmaArbiter,
    }
    try:
        factory = factories[kind]
    except KeyError:
        raise ValueError(
            f"unknown arbiter kind {kind!r}; expected one of "
            f"{sorted(factories)}"
        ) from None
    return factory(**kwargs)
