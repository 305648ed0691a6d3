"""Signals with SystemC evaluate/update semantics.

A :class:`Signal` is the primitive channel used for RTL-style (pin-level)
modeling: writes store a *next value* and take effect in the update phase,
so every process in a delta cycle observes the same stable current value.
This is what makes pin-accurate models (the OCP pin interface, the RTL
accessors) race-free.
"""

from __future__ import annotations

from typing import Generic, TypeVar

from repro.kernel.errors import SimulationError
from repro.kernel.event import Event
from repro.kernel.object import SimObject

T = TypeVar("T")


class Signal(SimObject, Generic[T]):
    """A single-driver signal with delta-cycle update semantics.

    Parameters
    ----------
    init:
        Initial (and reset) value.
    check_writer:
        When True (default), writes from more than one process raise
        :class:`SimulationError`, catching classic multiple-driver bugs.
    """

    def __init__(self, name, parent=None, ctx=None, init: T = None,
                 check_writer: bool = True):
        super().__init__(name, parent, ctx)
        self._current: T = init
        self._next: T = init
        self._update_pending = False
        self._check_writer = check_writer
        self._writer = None
        self._value_changed = Event(self, f"{self.full_name}.value_changed")
        self._posedge = Event(self, f"{self.full_name}.posedge")
        self._negedge = Event(self, f"{self.full_name}.negedge")
        self._last_change_delta = -1
        #: observers called as fn(signal, old, new) on every value change;
        #: used by the VCD tracer without burdening the hot path when empty
        self._observers = []

    # -- access ---------------------------------------------------------------

    def read(self) -> T:
        """Current value (stable within a delta cycle)."""
        return self._current

    def write(self, value: T) -> None:
        """Schedule ``value`` to become current in the update phase."""
        if self._check_writer:
            writer = self.ctx.current_process
            if writer is not None:
                if self._writer is None:
                    self._writer = writer
                elif self._writer is not writer:
                    raise SimulationError(
                        f"signal {self.full_name} driven by both "
                        f"{self._writer.name!r} and {writer.name!r}"
                    )
        self._next = value
        if not self._update_pending:
            # The _update_pending flag already dedupes, so skip
            # request_update's id()-set and append to the queue directly.
            self._update_pending = True
            self.ctx._update_queue.append(self)

    def _perform_update(self) -> None:
        self._update_pending = False
        if self._next == self._current:
            return
        self._set_current(self._next, self.ctx._delta_count)

    def _set_current(self, new: T, delta: int) -> None:
        """Make ``new`` current as the update phase of delta ``delta``
        does (also the rule of a clock edge applied in place)."""
        old = self._current
        self._current = new
        # Processes woken by this change run in the *next* delta cycle;
        # stamp that delta so ``event``/``posedge()`` read true for them
        # (matching sc_signal::event()).
        self._last_change_delta = delta + 1
        self._value_changed._notify_from_update(delta)
        # Edge events are meaningful for bool-like signals; defining them
        # through truthiness keeps int signals usable as wires too.
        if not old and new:
            self._posedge._notify_from_update(delta)
        elif old and not new:
            self._negedge._notify_from_update(delta)
        for observer in self._observers:
            observer(self, old, new)

    def on_change(self, observer) -> None:
        """Register ``observer(signal, old, new)`` for value changes."""
        self._observers.append(observer)

    # -- events -----------------------------------------------------------------

    def default_event(self) -> Event:
        """Sensitivity hook: value-changed."""
        return self._value_changed

    @property
    def value_changed_event(self) -> Event:
        """Fires one delta after any value change."""
        return self._value_changed

    @property
    def posedge_event(self) -> Event:
        """Fires on a falsy-to-truthy transition."""
        return self._posedge

    @property
    def negedge_event(self) -> Event:
        """Fires on a truthy-to-falsy transition."""
        return self._negedge

    @property
    def event(self) -> bool:
        """True if the value changed in the current delta cycle."""
        return self._last_change_delta == self.ctx._delta_count

    def posedge(self) -> bool:
        """True if this delta's change was a rising edge."""
        return self.event and bool(self._current)

    def negedge(self) -> bool:
        """True if this delta's change was a falling edge."""
        return self.event and not self._current

    # -- checkpoint/restore protocol (see repro.snapshot) ---------------------

    def __snapshot_events__(self):
        return (self._value_changed, self._posedge, self._negedge)

    def __snapshot__(self) -> dict:
        # Quiescent capture guarantees no pending update, so _next has
        # already been consumed (or equals the last settled write).
        return {
            "current": self._current,
            "next": self._next,
            "last_change_delta": self._last_change_delta,
            "writer": self._writer.name if self._writer is not None else None,
        }

    def __restore__(self, state: dict) -> None:
        self._current = state["current"]
        self._next = state["next"]
        self._last_change_delta = state["last_change_delta"]
        writer = state["writer"]
        if writer is not None:
            for proc in self.ctx.processes:
                if proc.name == writer:
                    self._writer = proc
                    break

    def __repr__(self) -> str:
        return f"Signal({self.full_name!r}, value={self._current!r})"
