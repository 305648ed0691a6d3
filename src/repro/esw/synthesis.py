"""eSW synthesis: re-hosting PE behaviour as RTOS tasks.

Following Herrera et al. (the methodology the paper adopts), embedded
software is generated *"by simply substituting some SystemC library
elements for behaviourally equivalent procedures based on RTOS
functions"*.  In this library the substitution happens at the wait
level: a PE's behaviour generators are left completely untouched, but
instead of running them as kernel threads, the synthesizer drives them
through an interpreter that maps every suspension onto the RTOS —

==========================  ==========================================
SystemC-level primitive      RTOS substitution
==========================  ==========================================
``wait(t)``                  ``os.delay(t)``
``wait(event, ...)``         blocking wait that releases the CPU
SHIP channel blocking call   same call; its internal waits become
                             RTOS blocking, so channel code *is* the
                             communication library
``ExecuteFor(t)`` marker     ``os.execute(t)`` (CPU-time annotation)
``CpuHeld(w)`` marker        ``wait(w)`` itself: the task keeps the CPU
                             (programmed I/O); not a substitution
==========================  ==========================================

Because SHIP channels suspend only through events and durations, a PE
that satisfies the §4 constraints needs *no* other mapping — which is
precisely why the paper restricts SW-bound PEs to SHIP communication.
The same holds behind a mapped HW/SW link: the SW end of
:mod:`repro.hwsw` runs the mailbox procedure in the calling task, so its
polls sleep, its IRQ waits block and its bus accesses hold the CPU.

The synthesizer also counts each substitution it performs; experiment
E6 reports those counts together with the functional-equivalence check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List

from repro.kernel.errors import KernelError
from repro.kernel.event import Event
from repro.kernel.module import Module
from repro.kernel.process import ThreadProcess, WaitCondition, WaitMode
from repro.kernel.simtime import SimTime
from repro.rtos.core import Rtos, Task
from repro.esw.partition import PartitionSpec, validate_partition


class EswSynthesisError(KernelError):
    """The synthesizer met a primitive it cannot substitute."""


@dataclass
class ExecuteFor:
    """Explicit CPU-time annotation a PE may yield.

    At the component-assembly level (plain kernel hosting) it behaves as
    ``wait(duration)`` — the PE models its computation time on dedicated
    hardware; under eSW synthesis it becomes ``os.execute(duration)``,
    so the same annotation makes the task *compete* for the shared CPU.
    """

    duration: SimTime

    def as_wait_condition(self) -> SimTime:
        """Plain-kernel meaning: wait for the duration."""
        return self.duration


class CpuHeld:
    """A wait its caller makes without giving up the CPU.

    At the component-assembly level it is the wrapped wait
    (``condition``: anything a thread may yield).  Under eSW synthesis
    the task stays dispatched while it waits, as a processor doing
    programmed I/O stays busy for the length of each bus access.
    """

    __slots__ = ("condition",)

    def __init__(self, condition):
        self.condition = condition

    def as_wait_condition(self):
        """Plain-kernel meaning: the wrapped wait."""
        return self.condition


@dataclass
class SubstitutionCounts:
    """How many primitives of each kind one task's synthesis replaced."""

    delays: int = 0
    event_waits: int = 0
    executes: int = 0

    @property
    def total(self) -> int:
        """All substitutions performed."""
        return self.delays + self.event_waits + self.executes


@dataclass
class EswTask:
    """One generated software entity."""

    pe_name: str
    process_name: str
    task: Task
    counts: SubstitutionCounts


@dataclass
class EswImage:
    """The result of synthesizing a partition onto one RTOS."""

    os: Rtos
    tasks: List[EswTask] = field(default_factory=list)

    @property
    def substitutions(self) -> SubstitutionCounts:
        """Summed substitution counts over all tasks."""
        total = SubstitutionCounts()
        for entry in self.tasks:
            total.delays += entry.counts.delays
            total.event_waits += entry.counts.event_waits
            total.executes += entry.counts.executes
        return total


def _interpret(os: Rtos, body: Generator,
               counts: SubstitutionCounts) -> Generator:
    """Drive ``body`` as a task, substituting each suspension."""
    try:
        item = next(body)
    except StopIteration:
        return
    while True:
        wake = None
        if isinstance(item, ExecuteFor):
            counts.executes += 1
            yield from os.execute(item.duration)
        elif isinstance(item, CpuHeld):
            wake = yield item.condition
        elif isinstance(item, SimTime):
            counts.delays += 1
            yield from os.delay(item)
        elif isinstance(item, Event):
            counts.event_waits += 1
            wake = yield from os.block_on(item)
        elif isinstance(item, WaitCondition):
            if item.mode is WaitMode.STATIC:
                raise EswSynthesisError(
                    "static-sensitivity waits cannot be synthesized to "
                    "eSW; use explicit events or durations"
                )
            counts.event_waits += 1
            wake = yield from os.block_on(item)
        elif isinstance(item, tuple):
            counts.event_waits += 1
            wake = yield from os.block_on(item)
        elif item is None:
            raise EswSynthesisError(
                "static-sensitivity waits cannot be synthesized to eSW; "
                "use explicit events or durations"
            )
        else:
            raise EswSynthesisError(
                f"cannot substitute yielded primitive {item!r}"
            )
        try:
            item = body.send(wake)
        except StopIteration:
            return


def synthesize_pe(
    pe: Module,
    os: Rtos,
    priority: int = 10,
) -> List[EswTask]:
    """Turn one PE's kernel processes into RTOS tasks.

    The PE instance keeps its structure (ports, channels stay bound);
    only the *execution hosting* of its behaviour changes — the same
    move as recompiling the SystemC process body against the RTOS-based
    library.  Must run before elaboration.
    """
    processes = pe.ctx.processes_of(pe)
    if not processes:
        raise EswSynthesisError(
            f"PE {pe.full_name} has no processes to synthesize"
        )
    entries: List[EswTask] = []
    for proc in processes:
        if not isinstance(proc, ThreadProcess):
            raise EswSynthesisError(
                f"{proc.name}: only thread processes can become eSW "
                f"tasks (method processes have no blocking semantics)"
            )
        pe.ctx.unregister_process(proc)
        counts = SubstitutionCounts()
        fn = proc._fn

        def task_body(fn=fn, counts=counts) -> Generator:
            yield from _interpret(os, fn(), counts)

        short = proc.name.rsplit(".", 1)[-1]
        task = os.create_task(
            task_body, f"{pe.name}_{short}", priority=priority
        )
        entries.append(
            EswTask(
                pe_name=pe.full_name,
                process_name=proc.name,
                task=task,
                counts=counts,
            )
        )
    return entries


def generate_esw(spec: PartitionSpec, os: Rtos) -> EswImage:
    """Validate the partition and synthesize every SW-bound PE.

    This is the flow's one-call SW synthesis step: constraint checking
    (§4), then library substitution per PE, returning an
    :class:`EswImage` with per-task substitution counts.
    """
    validate_partition(spec)
    image = EswImage(os=os)
    for pe in spec.software:
        image.tasks.extend(
            synthesize_pe(pe, os, priority=spec.priority_of(pe))
        )
    return image
