"""A priority-preemptive RTOS model on top of the simulation kernel.

The eSW-generation methodology the paper adopts (Herrera et al., DATE'03)
replaces SystemC primitives with *behaviourally equivalent procedures
based on RTOS functions*.  This module is that RTOS: a single-CPU,
fixed-priority preemptive executive with tasks, delays, and CPU-time
accounting, built as a library over :mod:`repro.kernel`.

Modeling approach (the classic "virtual processing unit"): every task is
a kernel thread process, but only the task the RTOS has *dispatched* may
advance.  Tasks consume CPU time explicitly with
``yield from os.execute(duration)``; a higher-priority task becoming
ready preempts the executing task at any point inside ``execute`` —
which is exactly the granularity at which a real RTOS can preempt
compute-bound C code (timer/interrupt boundaries).

Priorities: **lower number = higher priority** (VxWorks/embedded Linux
RT convention).  Equal priorities run FIFO.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Generator, List, Optional

from repro.kernel.errors import SimulationError
from repro.kernel.event import Event
from repro.kernel.module import Module
from repro.kernel.simtime import SimTime, ZERO_TIME
from repro.kernel.process import wait as kwait


class TaskState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    SLEEPING = "sleeping"
    FINISHED = "finished"


class Task:
    """One RTOS task."""

    def __init__(self, os: "Rtos", name: str, fn: Callable[[], Generator],
                 priority: int):
        self.os = os
        self.name = name
        self.fn = fn
        self.priority = priority
        self.state = TaskState.READY
        self.seq = 0  # FIFO order within a priority level, set on ready
        self._dispatch_event = Event(os, f"{os.full_name}.{name}.dispatch")
        self._preempt_event = Event(os, f"{os.full_name}.{name}.preempt")
        self.cpu_time = ZERO_TIME
        self.activations = 0
        self.preemptions = 0

    @property
    def finished(self) -> bool:
        """True once the task body returned."""
        return self.state is TaskState.FINISHED

    def __repr__(self) -> str:
        return f"Task({self.name!r}, prio={self.priority}, {self.state.value})"


class Rtos(Module):
    """A single-CPU fixed-priority preemptive RTOS instance.

    Parameters
    ----------
    context_switch:
        CPU time charged on every dispatch of a different task.
    """

    def __init__(self, name, parent=None, ctx=None,
                 context_switch: SimTime = ZERO_TIME):
        super().__init__(name, parent, ctx)
        self.context_switch = context_switch
        self.tasks: List[Task] = []
        self._ready: List[Task] = []
        self.current: Optional[Task] = None
        self._last_dispatched: Optional[Task] = None
        self._seq = itertools.count()
        self.context_switches = 0
        self.idle_since: Optional[SimTime] = None
        # Dispatch decisions are deferred by one delta cycle so that all
        # tasks readied at the same instant compete by priority — without
        # this, creation/wake order would win the CPU at time zero.
        self._kick = Event(self, f"{self.full_name}.kick")
        self.add_method(self._on_kick, name="scheduler_kick",
                        sensitive=[self._kick], dont_initialize=True)

    def _on_kick(self) -> None:
        if self.current is None:
            self._dispatch_next()

    def _request_dispatch(self) -> None:
        """Ask for a scheduling decision in the next delta cycle."""
        self._kick.notify_delta()

    # -- task management -------------------------------------------------------

    def create_task(self, fn: Callable[[], Generator], name: str,
                    priority: int = 10) -> Task:
        """Register a task; it becomes ready at simulation start."""
        task = Task(self, name, fn, priority)
        self.tasks.append(task)
        self.add_thread(lambda t=task: self._task_wrapper(t),
                        name=f"task_{name}")
        return task

    def _task_wrapper(self, task: Task) -> Generator:
        yield from self._wait_dispatch(task, make_ready=True)
        body = task.fn()
        if body is not None and hasattr(body, "send"):
            yield from body
        task.state = TaskState.FINISHED
        self._release_cpu(task)

    # -- scheduler core -------------------------------------------------------------

    def _make_ready(self, task: Task) -> None:
        task.state = TaskState.READY
        task.seq = next(self._seq)
        self._ready.append(task)
        # Preempt the running task if this one outranks it.
        if self.current is not None and task.priority < self.current.priority:
            self.current._preempt_event.notify()

    def _pick_next(self) -> Optional[Task]:
        if not self._ready:
            return None
        chosen = min(self._ready, key=lambda t: (t.priority, t.seq))
        self._ready.remove(chosen)
        return chosen

    def _dispatch_next(self) -> None:
        """Called whenever the CPU is free: choose and signal a task."""
        assert self.current is None
        nxt = self._pick_next()
        if nxt is None:
            return
        self.current = nxt
        nxt.state = TaskState.RUNNING
        nxt.activations += 1
        nxt._dispatch_event.notify()

    def _wait_dispatch(self, task: Task, make_ready: bool) -> Generator:
        """Block until the scheduler hands ``task`` the CPU."""
        if make_ready:
            self._make_ready(task)
            if self.current is None:
                self._request_dispatch()
        while self.current is not task:
            yield task._dispatch_event
        if self._last_dispatched is not task:
            self.context_switches += 1
            self._last_dispatched = task
            if self.context_switch > ZERO_TIME:
                task.cpu_time += self.context_switch
                yield self.context_switch

    def _release_cpu(self, task: Task) -> None:
        if self.current is not task:
            raise SimulationError(
                f"rtos {self.full_name}: {task.name!r} released the CPU "
                f"but {self.current and self.current.name!r} holds it"
            )
        self.current = None
        self._request_dispatch()

    def _require_current(self) -> Task:
        if self.current is None:
            raise SimulationError(
                f"rtos {self.full_name}: RTOS call outside any task"
            )
        return self.current

    # -- task-facing API ----------------------------------------------------------------

    def _higher_priority_ready(self, task: Task) -> bool:
        return any(t.priority < task.priority for t in self._ready)

    def execute(self, duration: SimTime) -> Generator:
        """Consume ``duration`` of CPU time; preemptible."""
        task = self._require_current()
        remaining = duration
        while remaining > ZERO_TIME:
            if self._higher_priority_ready(task):
                # A higher-priority task became ready while we were in
                # zero-time code (the preempt notification found no
                # waiter); honour it at this preemption point.
                task.preemptions += 1
                yield from self._yield_cpu(task)
                continue
            start = self.ctx.now
            woke = yield kwait(remaining, task._preempt_event)
            elapsed = self.ctx.now - start
            task.cpu_time += elapsed
            remaining = remaining - elapsed
            if woke is not None:
                # Preempted by a higher-priority task.
                task.preemptions += 1
                yield from self._yield_cpu(task)

    def _yield_cpu(self, task: Task) -> Generator:
        """Go back to ready and wait to be dispatched again."""
        self.current = None
        self._make_ready(task)
        self._request_dispatch()
        yield from self._wait_dispatch(task, make_ready=False)

    def delay(self, duration: SimTime) -> Generator:
        """Sleep for ``duration``; the CPU runs other tasks meanwhile."""
        task = self._require_current()
        task.state = TaskState.SLEEPING
        self._release_cpu(task)
        if duration > ZERO_TIME:
            yield duration
        self._make_ready(task)
        if self.current is None:
            self._request_dispatch()
        yield from self._wait_dispatch(task, make_ready=False)

    def block_on(self, condition) -> Generator:
        """Block the current task on any kernel wait condition.

        ``condition`` is anything a kernel thread may yield: an event,
        a duration, or a ``wait(...)`` descriptor.
        The CPU is released while blocked.  Returns the event that woke
        the task (``None`` for timeouts), like a raw kernel wait.
        """
        task = self._require_current()
        task.state = TaskState.BLOCKED
        self._release_cpu(task)
        woke = yield condition
        self._make_ready(task)
        if self.current is None:
            self._request_dispatch()
        yield from self._wait_dispatch(task, make_ready=False)
        return woke

    # -- introspection ----------------------------------------------------------------------

    @property
    def ready_count(self) -> int:
        """Tasks ready and waiting for the CPU."""
        return len(self._ready)

    def task_by_name(self, name: str) -> Optional[Task]:
        """Look a task up by name, or None."""
        for task in self.tasks:
            if task.name == name:
                return task
        return None

    def all_finished(self) -> bool:
        """True when every task has finished."""
        return all(t.finished for t in self.tasks)
