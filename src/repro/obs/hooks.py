"""Kernel instrumentation hooks.

:class:`SimObserver` is the contract between the simulation and the
observability layer: :meth:`~repro.kernel.context.SimContext.attach_observer`
installs one observer, and the kernel's one event loop invokes its hooks
at every scheduling boundary.  ``run`` binds the observer once on entry
and puts each hook behind a test of that binding, so a run with no
observer attached calls no hook and reads no clock.  Components fire
one hook themselves: a bus CAM or SHIP channel reads the context's
observer when a transfer completes and, with none attached, calls
nothing.

All hook timestamps are integer femtoseconds (the kernel's canonical
time representation); ``wall_s`` durations are host seconds from
``time.perf_counter``.  Hooks run inside the scheduler, so they must not
call back into simulation control (``run``/``stop``) and should be fast.

Hook points:

=========================  ==================================================
hook                       fired
=========================  ==================================================
``on_process_activate``    before a process is dispatched
``on_process_suspend``     after the dispatch returns (with its host cost)
``on_event_fire``          when a delta or timed notification matures
``on_update_phase``        once per update phase (with the channel count)
``on_delta_cycle``         each time the delta counter advances
``on_time_advance``        when simulated time moves forward
``on_run_starved``         a ``run`` ended by event starvation (once,
                           from the run epilogue — not the hot loop)
``on_transaction``         a bus CAM or SHIP channel completed a transfer
                           (fired by the component, not the scheduler)
=========================  ==================================================
"""

from __future__ import annotations

from typing import Tuple


class SimObserver:
    """Base kernel observer: every hook is a no-op.

    Subclass and override the hooks you need; attaching a plain
    ``SimObserver()`` is the canonical way to measure the cost of the
    hook calls themselves (see ``docs/observability.md``).
    """

    __slots__ = ()

    def on_process_activate(self, process, now_fs: int) -> None:
        """Called immediately before ``process`` is dispatched."""

    def on_process_suspend(self, process, now_fs: int,
                           wall_s: float) -> None:
        """Called after ``process`` returned control to the scheduler.

        ``wall_s`` is the host-time cost of this dispatch.
        """

    def on_event_fire(self, event, kind: str, now_fs: int) -> None:
        """Called when a scheduled notification matures.

        ``kind`` is ``"delta"`` or ``"timed"``.  Immediate notifications
        (``Event.notify()``) happen inside process execution and are not
        reported — they are part of the activating process's span.
        """

    def on_update_phase(self, channel_count: int, now_fs: int) -> None:
        """Called once per update phase with the number of channels."""

    def on_delta_cycle(self, delta_count: int, now_fs: int) -> None:
        """Called each time the kernel's delta counter advances."""

    def on_time_advance(self, now_fs: int) -> None:
        """Called when simulated time advances to ``now_fs``."""

    def on_run_starved(self, context, blocked, now_fs: int) -> None:
        """Called once when a ``run`` ends by event starvation.

        ``blocked`` is ``context.blocked_processes()`` — every process
        still WAITING and a description of its wait.  Fired from the run
        epilogue, never from the scheduler hot loop.
        """

    def on_transaction(self, track: str, kind: str, initiator: str,
                       target: str, begin_fs: int, end_fs: int,
                       nbytes: int, burst) -> None:
        """Called when a component completes a transfer.

        ``track`` is the reporting bus's or channel's full name;
        ``kind`` is the OCP command in lower case (``"rd"``, ``"wr"``,
        ...) or the SHIP call (``"send"``, ``"request"``,
        ``"reply"``).  The transfer runs from ``begin_fs`` (submission,
        or the SHIP call) to ``end_fs`` (completion, or delivery) and
        carries ``nbytes``.  ``burst`` is a bus transfer's burst length,
        None for SHIP.
        """


class ObserverGroup(SimObserver):
    """Fans every hook out to a tuple of child observers.

    The kernel accepts exactly one observer; a group is how a profiler
    and a trace collector (for example) observe the same run.
    """

    __slots__ = ("observers",)

    def __init__(self, *observers: SimObserver):
        self.observers: Tuple[SimObserver, ...] = tuple(observers)

    def on_process_activate(self, process, now_fs: int) -> None:
        """Fan out to every child observer."""
        for obs in self.observers:
            obs.on_process_activate(process, now_fs)

    def on_process_suspend(self, process, now_fs: int,
                           wall_s: float) -> None:
        """Fan out to every child observer."""
        for obs in self.observers:
            obs.on_process_suspend(process, now_fs, wall_s)

    def on_event_fire(self, event, kind: str, now_fs: int) -> None:
        """Fan out to every child observer."""
        for obs in self.observers:
            obs.on_event_fire(event, kind, now_fs)

    def on_update_phase(self, channel_count: int, now_fs: int) -> None:
        """Fan out to every child observer."""
        for obs in self.observers:
            obs.on_update_phase(channel_count, now_fs)

    def on_delta_cycle(self, delta_count: int, now_fs: int) -> None:
        """Fan out to every child observer."""
        for obs in self.observers:
            obs.on_delta_cycle(delta_count, now_fs)

    def on_time_advance(self, now_fs: int) -> None:
        """Fan out to every child observer."""
        for obs in self.observers:
            obs.on_time_advance(now_fs)

    def on_run_starved(self, context, blocked, now_fs: int) -> None:
        """Fan out to every child observer."""
        for obs in self.observers:
            obs.on_run_starved(context, blocked, now_fs)

    def on_transaction(self, track: str, kind: str, initiator: str,
                       target: str, begin_fs: int, end_fs: int,
                       nbytes: int, burst) -> None:
        """Fan out to every child observer."""
        for obs in self.observers:
            obs.on_transaction(track, kind, initiator, target, begin_fs,
                               end_fs, nbytes, burst)
