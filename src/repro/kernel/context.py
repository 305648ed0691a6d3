"""The simulation context: object registry, elaboration, and scheduler.

:class:`SimContext` owns everything for one simulation: the hierarchy of
simulation objects, the process list, the event queues, and simulated
time.  There is intentionally *no* global context (unlike SystemC's
``sc_get_curr_simcontext``): a context is created explicitly and passed
to top-level modules, which keeps independent simulations isolated and
makes tests hermetic.

Scheduling follows the IEEE 1666 evaluate/update/delta/timed cycle:

1. **Evaluation** — run every runnable process.  Immediate event
   notifications make processes runnable within the same phase.
2. **Update** — primitive channels that queued themselves during
   evaluation (a signal write, a FIFO access) perform their update
   (e.g. a signal copies its next value to its current value),
   typically issuing delta notifications.
3. **Delta notification** — pending delta notifications trigger their
   events, waking processes for the next delta cycle.  If any process
   became runnable, loop back to 1 without advancing time.
4. **Timed notification** — otherwise advance simulated time to the
   earliest pending timed notification and trigger everything scheduled
   at that instant.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from typing import Callable, Dict, Generator, List, Optional

from repro.kernel.errors import ElaborationError, SimulationError
from repro.kernel.event import (
    ENTRY_WHEN_FS,
    Event,
    KIND_CANCELLED,
    KIND_CLOCK,
    KIND_EVENT,
    KIND_RESUME,
)
from repro.kernel.process import (
    MethodProcess,
    Process,
    ProcessState,
    ThreadProcess,
    WaitCondition,
    WaitMode,
    sensitivity_events,
)
from repro.kernel.report import Reporter
from repro.kernel.simtime import SimTime, ZERO_TIME


# The timed-notification heap holds plain 4-lists
# ``[when_fs, seq, kind, payload]`` (layout constants in
# :mod:`repro.kernel.event`).  Lists compare element-wise with C-level
# integer comparisons — ``when_fs`` first, then the unique ``seq`` —
# so heap ordering never dispatches into Python-level ``__lt__``
# methods and never compares ``kind``/``payload``.  Cancellation is a
# single in-place write of ``KIND_CANCELLED``; cancelled entries are
# discarded lazily when they surface at the top of the heap.


#: The context currently inside :meth:`SimContext.run` in this process.
#: Exactly one simulation may be running per interpreter process at a
#: time — the isolation precondition parallel sweep workers rely on for
#: bit-identical results (each worker process runs its points' contexts
#: strictly one after another).  Interleaved runs of *different*
#: contexts (a process body spinning up and running a second simulation,
#: or a thread racing two contexts) would share interpreter state in
#: unspecified order, so :meth:`SimContext.run` rejects them.
_active_context: Optional["SimContext"] = None


def active_context() -> Optional["SimContext"]:
    """The :class:`SimContext` currently running in this process, or None."""
    return _active_context


class SimContext:
    """A complete, self-contained simulation."""

    def __init__(
        self,
        name: str = "sim",
        max_deltas_per_timestep: int = 100_000,
    ):
        self.name = name
        self.reporter = Reporter()
        self.max_deltas_per_timestep = max_deltas_per_timestep

        #: Canonical current time as integer femtoseconds; ``_now`` is the
        #: equivalent SimTime, refreshed only when time advances.
        self._now_fs: int = 0
        self._now: SimTime = ZERO_TIME
        self._last_activity: SimTime = ZERO_TIME
        self._delta_count: int = 0
        self._deltas_this_timestep: int = 0
        self._seq = itertools.count()

        self._runnable: deque = deque()
        self._update_queue: List = []
        self._delta_events: List[Event] = []
        #: heap of ``[when_fs, seq, kind, payload]`` lists (see above)
        self._timed_heap: List[list] = []

        #: name -> simulation object (modules, ports, channels...)
        self.objects: Dict[str, object] = {}
        #: top-level simulation objects, in creation order
        self.top_objects: List[object] = []
        self.processes: List[Process] = []
        #: (process, raw sensitivity sources) resolved at elaboration
        self._pending_sensitivity: List = []

        self.current_process: Optional[Process] = None
        #: Why the most recent ``run`` ended: None (never ran) or one of
        #: ``"stopped"`` / ``"starved"`` / ``"limit"`` / ``"failed"``.
        self.last_run_outcome: Optional[str] = None
        #: Instrumentation observer (see ``repro.obs.hooks``); with None,
        #: ``run`` calls no hook.
        self._obs = None
        self.elaborated = False
        self._stop_requested = False
        self._running = False
        self._failure: Optional[BaseException] = None
        #: Hooks called at end of elaboration / start and end of simulation.
        self._elab_hooks: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # time & status
    # ------------------------------------------------------------------

    @property
    def now(self) -> SimTime:
        """Current simulated time."""
        return self._now

    @property
    def delta_count(self) -> int:
        """Total delta cycles executed since the start of simulation."""
        return self._delta_count

    @property
    def last_activity_time(self) -> SimTime:
        """Time the last process ran.

        Unlike :attr:`now`, this does not advance to a run's horizon on
        starvation — it is the workload's actual completion time.
        """
        return self._last_activity

    # ------------------------------------------------------------------
    # object registry
    # ------------------------------------------------------------------

    def register_object(self, obj, parent) -> None:
        """Register a simulation object (called by SimObject)."""
        name = obj.full_name
        if name in self.objects:
            raise ElaborationError(
                f"duplicate simulation object name: {name!r}"
            )
        self.objects[name] = obj
        if parent is None:
            self.top_objects.append(obj)

    # ------------------------------------------------------------------
    # process registration
    # ------------------------------------------------------------------

    def register_thread(
        self,
        fn: Callable[[], Generator],
        name: str,
        sensitive=(),
        dont_initialize: bool = False,
    ) -> ThreadProcess:
        """Register a thread process (before elaboration)."""
        self._check_not_elaborated("register_thread")
        proc = ThreadProcess(self, name, fn, dont_initialize)
        self.processes.append(proc)
        if sensitive:
            self._pending_sensitivity.append((proc, tuple(sensitive)))
        return proc

    def register_method(
        self,
        fn: Callable[[], None],
        name: str,
        sensitive=(),
        dont_initialize: bool = False,
    ) -> MethodProcess:
        """Register a method process (before elaboration)."""
        self._check_not_elaborated("register_method")
        proc = MethodProcess(self, name, fn, dont_initialize)
        self.processes.append(proc)
        if sensitive:
            self._pending_sensitivity.append((proc, tuple(sensitive)))
        return proc

    def unregister_process(self, proc: Process) -> None:
        """Remove a registered process before elaboration.

        Used by the eSW synthesizer, which re-hosts a PE's behaviour
        functions as RTOS tasks and must stop the kernel from also
        running them natively.
        """
        self._check_not_elaborated("unregister_process")
        self.processes.remove(proc)
        self._pending_sensitivity = [
            (p, sources) for p, sources in self._pending_sensitivity
            if p is not proc
        ]

    def processes_of(self, obj) -> List[Process]:
        """Processes whose names live under ``obj``'s hierarchy."""
        prefix = f"{obj.full_name}."
        return [p for p in self.processes if p.name.startswith(prefix)]

    def _check_not_elaborated(self, what: str) -> None:
        if self.elaborated:
            raise ElaborationError(
                f"{what} is only legal before elaboration"
            )

    def _process_failed(self, process: Process, exc: BaseException) -> None:
        """A process raised: record the failure and stop the simulation."""
        if self._failure is None:
            self._failure = exc
        self._stop_requested = True

    # ------------------------------------------------------------------
    # elaboration
    # ------------------------------------------------------------------

    def add_elaboration_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` at the end of elaboration."""
        self._elab_hooks.append(hook)

    def elaborate(self) -> None:
        """Finalize the design: bind ports, resolve sensitivity, init."""
        if self.elaborated:
            return
        self._elaborate_structure()
        # Initialization phase: every process runs once unless it opted out.
        for proc in self.processes:
            if getattr(proc, "dont_initialize", False):
                proc._apply_wait(WaitCondition(WaitMode.STATIC))
            else:
                proc.state = ProcessState.READY
                self._runnable.append(proc)
        self._run_start_hooks()

    def _elaborate_structure(self) -> None:
        """The structural half of :meth:`elaborate`: binding, sensitivity,
        elaboration hooks — everything except the init-phase process
        queuing and the start-of-simulation hooks.  Snapshot restore
        (``repro.snapshot``) calls this directly and then overlays the
        captured process states instead of initializing them.
        """
        # Give modules a chance to finish construction-time wiring.
        for obj in list(self.objects.values()):
            hook = getattr(obj, "before_end_of_elaboration", None)
            if hook is not None:
                hook()
        # Complete port binding (ports registered themselves at creation).
        for obj in list(self.objects.values()):
            binder = getattr(obj, "complete_binding", None)
            if binder is not None:
                binder()
        # Resolve static sensitivity now that ports are bound.
        for proc, sources in self._pending_sensitivity:
            for ev in sensitivity_events(sources):
                proc.add_static_sensitivity(ev)
        self._pending_sensitivity.clear()
        for obj in list(self.objects.values()):
            hook = getattr(obj, "end_of_elaboration", None)
            if hook is not None:
                hook()
        for hook in self._elab_hooks:
            hook()
        self.elaborated = True

    def _run_start_hooks(self) -> None:
        for obj in list(self.objects.values()):
            hook = getattr(obj, "start_of_simulation", None)
            if hook is not None:
                hook()

    # ------------------------------------------------------------------
    # checkpoint / restore (implemented in repro.snapshot)
    # ------------------------------------------------------------------

    def checkpoint(self, extras: Optional[Dict] = None) -> Dict:
        """Capture full deterministic kernel state as a JSON-able dict.

        The context must be at a quiescent instant — typically right
        after ``run(until=...)`` returned.  ``extras`` maps names to
        non-SimObject state holders (fault plans, metrics registries)
        implementing ``__snapshot__``/``__restore__``.  See
        :mod:`repro.snapshot`.
        """
        from repro.snapshot.state import capture_state
        return capture_state(self, extras=extras)

    def resume(self, snapshot: Dict, extras: Optional[Dict] = None) -> None:
        """Restore a :meth:`checkpoint` snapshot into this fresh context.

        This context must be structurally identical to (a superset of)
        the captured one, freshly built and never run.  Processes absent
        from the snapshot are initialized normally, so measured-phase
        workload can be layered on top of a boot checkpoint.
        """
        from repro.snapshot.state import restore_state
        restore_state(self, snapshot, extras=extras)

    # ------------------------------------------------------------------
    # scheduling services (used by Event, Process, channels)
    # ------------------------------------------------------------------

    def _schedule_event_fs(self, event: Event, when_fs: int) -> list:
        """Schedule an event notification at absolute time ``when_fs``.

        Returns the heap entry; setting its kind slot to
        ``KIND_CANCELLED`` cancels the notification.
        """
        entry = [when_fs, next(self._seq), KIND_EVENT, event]
        heapq.heappush(self._timed_heap, entry)
        return entry

    def _schedule_resume_fs(self, process, when_fs: int) -> list:
        """Schedule a process timeout wake-up at absolute time ``when_fs``."""
        entry = [when_fs, next(self._seq), KIND_RESUME, process]
        heapq.heappush(self._timed_heap, entry)
        return entry

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------

    @property
    def observer(self):
        """The attached instrumentation observer, or None."""
        return self._obs

    def attach_observer(self, observer) -> None:
        """Install a kernel instrumentation observer.

        ``observer`` follows the :class:`repro.obs.hooks.SimObserver`
        protocol (duck-typed — the kernel does not import the
        observability layer).  ``run`` reads the observer once on entry
        and calls its hooks from the one scheduler loop, each behind a
        test of that binding; with none attached it calls no hook and
        no timer.  Only one observer may be attached at a time; fan out
        with :class:`repro.obs.hooks.ObserverGroup`.
        """
        if self._obs is not None and self._obs is not observer:
            raise SimulationError(
                "an observer is already attached; combine observers with "
                "repro.obs.hooks.ObserverGroup"
            )
        self._obs = observer

    def detach_observer(self, observer=None) -> None:
        """Remove the attached observer (takes effect at the next ``run``).

        With ``observer`` given, detaches only if it is the one
        currently attached; with None, unconditionally detaches.
        """
        if observer is None or self._obs is observer:
            self._obs = None

    # ------------------------------------------------------------------
    # simulation control
    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Request the simulation to stop at the end of the current delta."""
        self._stop_requested = True

    def run(
        self,
        duration: Optional[SimTime] = None,
        until: Optional[SimTime] = None,
    ) -> SimTime:
        """Run the simulation.

        Parameters
        ----------
        duration:
            Run for this much simulated time from :attr:`now`.
        until:
            Run until this absolute simulated time.

        With neither given, runs until event starvation or :meth:`stop`.
        Returns the simulation time when the run ended.
        """
        global _active_context
        if self._running:
            raise SimulationError(
                "run() called re-entrantly (e.g. from inside a process)"
            )
        if _active_context is not None and _active_context is not self:
            raise SimulationError(
                f"cannot run {self.name!r}: context "
                f"{_active_context.name!r} is already running in this "
                f"process; one process runs one simulation at a time "
                f"(sweep workers isolate points in separate processes)"
            )
        if not self.elaborated:
            self.elaborate()
        if duration is not None and until is not None:
            raise SimulationError("pass either duration or until, not both")
        limit_fs: Optional[int] = None
        if duration is not None:
            limit_fs = self._now_fs + duration._fs
        elif until is not None:
            if until._fs < self._now_fs:
                raise SimulationError(
                    f"cannot run until {until}: already at {self._now}"
                )
            limit_fs = until._fs

        self._stop_requested = False
        self._running = True
        _active_context = self
        try:
            self._event_loop(limit_fs)
        except BaseException:
            # A kernel error (the delta limit, a raising observer hook)
            # escaped the loop; it supersedes any process failure
            # recorded before it.
            self.last_run_outcome = "failed"
            self.current_process = None
            self._failure = None
            raise
        finally:
            self._running = False
            _active_context = None
        if self._failure is not None:
            self.last_run_outcome = "failed"
            failure, self._failure = self._failure, None
            raise failure
        starved = (not self._stop_requested
                   and (limit_fs is None or self._now_fs < limit_fs))
        if self._stop_requested:
            self.last_run_outcome = "stopped"
        elif starved:
            self.last_run_outcome = "starved"
        else:
            self.last_run_outcome = "limit"
        if starved and self._obs is not None:
            # Starvation with processes still blocked is the normal end
            # of most finite workloads, so this is never printed
            # unsolicited — but an attached observer is told, turning a
            # silent hang into an inspectable record.
            hook = getattr(self._obs, "on_run_starved", None)
            if hook is not None:
                hook(self, self.blocked_processes(), self._now_fs)
        if starved and limit_fs is not None and self._now_fs < limit_fs:
            # Starved before the limit: time still advances to the limit so
            # that consecutive run() calls compose predictably.
            self._now_fs = limit_fs
            self._now = SimTime._from_fs(limit_fs)
        return self._now

    # ------------------------------------------------------------------
    # the scheduler proper
    # ------------------------------------------------------------------

    def _event_loop(self, limit_fs: Optional[int]) -> None:
        # Hot attributes and helpers bound to locals: at millions of
        # iterations the repeated attribute lookups dominate, and none of
        # these objects are rebound elsewhere (the update/delta lists are
        # swapped wholesale, so those stay attribute accesses).  The
        # observer is bound once per run too, and every hook sits behind
        # a test of that local: an unobserved run calls no hook and no
        # timer.
        obs = self._obs
        perf = time.perf_counter
        runnable = self._runnable
        popleft = runnable.popleft
        heap = self._timed_heap
        heappop = heapq.heappop
        max_deltas = self.max_deltas_per_timestep
        while True:
            # -- evaluation phase --------------------------------------
            ran_any = bool(runnable)
            if ran_any:
                self._last_activity = self._now
                while runnable:
                    proc = popleft()
                    self.current_process = proc
                    if obs is None:
                        proc._dispatch()
                    else:
                        now_fs = self._now_fs
                        obs.on_process_activate(proc, now_fs)
                        start = perf()
                        proc._dispatch()
                        obs.on_process_suspend(proc, now_fs, perf() - start)
                    if self._stop_requested:
                        break
                self.current_process = None
                if self._stop_requested:
                    return

            # -- update phase ------------------------------------------
            if self._update_queue:
                updates = self._update_queue
                self._update_queue = []
                if obs is not None:
                    obs.on_update_phase(len(updates), self._now_fs)
                for channel in updates:
                    channel._perform_update()

            # -- delta notification phase --------------------------------
            if self._delta_events:
                events = self._delta_events
                self._delta_events = []
                for ev in events:
                    # a cancelled or superseded notification is not a fire
                    if obs is not None and ev._pending_kind == "delta":
                        obs.on_event_fire(ev, "delta", self._now_fs)
                    ev._fire_scheduled("delta")

            if runnable:
                self._delta_count += 1
                self._deltas_this_timestep += 1
                if obs is not None:
                    obs.on_delta_cycle(self._delta_count, self._now_fs)
                if self._deltas_this_timestep > max_deltas:
                    raise SimulationError(
                        f"more than {max_deltas} delta "
                        f"cycles at time {self._now}; the model is probably "
                        f"in a zero-time activity loop"
                    )
                continue

            if ran_any and not heap:
                # Give one more pass in case the update phase scheduled work.
                if runnable or self._delta_events or self._update_queue:
                    continue

            # -- timed notification phase --------------------------------
            # Discard cancelled entries that surfaced at the top, then
            # peek (never pop-and-push-back) to test the run horizon.
            while heap and heap[0][2] == KIND_CANCELLED:
                heappop(heap)
            if not heap:
                return  # starvation
            when_fs = heap[0][0]
            if limit_fs is not None and when_fs > limit_fs:
                self._now_fs = limit_fs
                self._now = SimTime._from_fs(limit_fs)
                if obs is not None:
                    obs.on_time_advance(limit_fs)
                return
            self._now_fs = when_fs
            self._now = SimTime._from_fs(when_fs)
            self._deltas_this_timestep = 0
            if obs is not None:
                obs.on_time_advance(when_fs)
            # Single drain of everything scheduled at this instant, in
            # seq order; cancelled entries pop and drop.  Entries pushed
            # *during* firing land in heap order and are picked up too.
            while heap and heap[0][0] == when_fs:
                entry = heappop(heap)
                kind = entry[2]
                if kind == KIND_EVENT:
                    if obs is not None:
                        obs.on_event_fire(entry[3], "timed", when_fs)
                    entry[3]._fire_scheduled("timed")
                elif kind == KIND_RESUME:
                    entry[3]._timeout_fired()
                elif kind == KIND_CLOCK:
                    entry[3]._edge_due(entry)
            self._delta_count += 1
            if obs is not None:
                obs.on_delta_cycle(self._delta_count, when_fs)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def blocked_processes(self) -> List[tuple]:
        """Every WAITING process with a description of its wait.

        Returns ``[(process, description), ...]`` where the description
        names the events (and therefore the owning channel/FIFO, whose
        full name each event carries) or the pending timeout the process
        is suspended on.  This is what the watchdog prints and the
        observers' ``on_run_starved`` hook receives, so "the sim just
        returned" becomes "rx is blocked on top.fifo.data_written".
        """
        out = []
        for proc in self.processes:
            if proc.state is ProcessState.WAITING:
                out.append((proc, self.describe_wait(proc)))
        return out

    def describe_wait(self, proc: Process) -> str:
        """Human-readable description of what ``proc`` is waiting on."""
        if proc._waiting_static:
            names = ", ".join(ev.name for ev in proc.static_sensitivity)
            return f"static sensitivity [{names or 'empty'}]"
        parts = []
        if proc._wait_events:
            names = ", ".join(ev.name for ev in proc._wait_events)
            parts.append(f"event [{names}]")
        handle = proc._timeout_handle
        if handle is not None:
            when = SimTime._from_fs(handle[ENTRY_WHEN_FS])
            parts.append(f"timeout at {when}")
        return " or ".join(parts) if parts else "nothing (suspended)"

    def __repr__(self) -> str:
        return (
            f"SimContext({self.name!r}, now={self._now}, "
            f"deltas={self._delta_count}, objects={len(self.objects)})"
        )
