"""Simulation watchdog: turn silent in-simulation hangs into reports.

A discrete-event simulation "hangs" in two distinct ways:

* **Global starvation** — nothing is runnable and no notification is
  pending.  ``run`` returns; :meth:`SimContext.blocked_processes`
  names the processes still blocked and what each waits on.
* **Livelocked progress** — simulated time keeps advancing (a clock, a
  poll loop) but the interesting work is stuck: a master waits forever
  on a slave that never responds.  The run only ends at its horizon,
  hours of wall time later, with no diagnosis.

:class:`SimWatchdog` covers the second case.  It checks a progress
signal every ``timeout`` of *simulated* time; if the signal did not
change between two checks it fires: it builds a hang report naming
every blocked process (via :meth:`SimContext.blocked_processes`) and —
by default — aborts the simulation by raising
:class:`~repro.kernel.errors.WatchdogError` with that report as the
message.

Progress is either polled or heartbeat-driven:

* ``progress=callable`` — any value; unchanged between checks = hang.
  e.g. ``progress=lambda: master.completed``.
* no ``progress`` — heartbeat mode: watched code must call
  :meth:`kick` at least once per ``timeout`` interval.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.kernel.errors import SimulationError, WatchdogError
from repro.kernel.object import SimObject
from repro.kernel.simtime import SimTime


class SimWatchdog(SimObject):
    """Aborts (or flags) a simulation whose progress signal stalls.

    Parameters
    ----------
    timeout:
        Check interval in simulated time; the watchdog fires when the
        progress signal is unchanged across one full interval.
    progress:
        Zero-argument callable returning the progress value to watch.
        Omitted = heartbeat mode (call :meth:`kick`).
    abort:
        When True (default) a firing watchdog raises
        :class:`WatchdogError`, stopping the run; when False it only
        records :attr:`fired` / :attr:`report` and keeps checking.
    """

    def __init__(
        self,
        name,
        parent=None,
        ctx=None,
        timeout: SimTime = None,
        progress: Optional[Callable[[], object]] = None,
        abort: bool = True,
    ):
        super().__init__(name, parent, ctx)
        if timeout is None or timeout._fs <= 0:
            raise SimulationError(
                f"watchdog {name!r}: timeout must be a positive SimTime"
            )
        self.timeout = timeout
        self.progress = progress
        self.abort = abort
        self._kicks = 0
        #: True once the watchdog has fired at least once.
        self.fired = False
        #: Number of times the watchdog fired (abort=False keeps going).
        self.fire_count = 0
        #: The hang report built the last time the watchdog fired.
        self.report: Optional[str] = None
        self.ctx.register_thread(self._watch, f"{self.full_name}.watch")

    def kick(self) -> None:
        """Heartbeat: proves liveness for the current check interval."""
        self._kicks += 1

    def _progress_value(self):
        if self.progress is not None:
            return self.progress()
        return self._kicks

    def _build_report(self) -> str:
        blocked = self.ctx.blocked_processes()
        lines = [
            f"watchdog {self.full_name} fired at {self.ctx.now}: no "
            f"progress for {self.timeout}",
        ]
        if blocked:
            lines.append(f"{len(blocked)} blocked process(es):")
            for proc, desc in blocked:
                lines.append(
                    f"  - {proc.name} [{proc.kind}] waiting on {desc}"
                )
        else:
            lines.append("no blocked processes (livelock suspected)")
        return "\n".join(lines)

    def _watch(self) -> Generator:
        while True:
            snapshot = self._progress_value()
            yield self.timeout
            if self._progress_value() != snapshot:
                continue
            self.fired = True
            self.fire_count += 1
            self.report = self._build_report()
            self.ctx.reporter.error(
                "watchdog", self.report, time_str=str(self.ctx.now),
                object_name=self.full_name,
            )
            if self.abort:
                raise WatchdogError(self.report)
