"""``repro.kernel`` — a SystemC-like discrete-event simulation kernel.

The kernel reimplements, in Python, the subset of IEEE 1666 SystemC that
the paper's TLM methodology rests on: delta-cycle scheduling, events with
immediate/delta/timed notification, thread and method processes, modules
with hierarchical naming, ports with elaboration-time binding checks,
signals with evaluate/update semantics, bounded FIFOs, clocks, and
synchronization primitives.

Quick start::

    from repro.kernel import SimContext, Module, Fifo, ns

    class Producer(Module):
        def __init__(self, name, parent=None, ctx=None, fifo=None):
            super().__init__(name, parent, ctx)
            self.fifo = fifo
            self.add_thread(self.run)

        def run(self):
            for i in range(4):
                yield ns(10)
                yield from self.fifo.write(i)

    ctx = SimContext()
    top = Module("top", ctx=ctx)
    fifo = Fifo("fifo", top, capacity=4)
    prod = Producer("prod", top, fifo=fifo)
    ctx.run()
"""

from repro.kernel.clock import Clock
from repro.kernel.context import SimContext, active_context
from repro.kernel.errors import (
    BindingError,
    ElaborationError,
    KernelError,
    ProcessError,
    SimTimeoutError,
    SimulationError,
    TimeError,
    WatchdogError,
)
from repro.kernel.event import Event
from repro.kernel.fifo import Fifo
from repro.kernel.module import Module
from repro.kernel.object import SimObject
from repro.kernel.port import Port
from repro.kernel.process import (
    MethodProcess,
    Process,
    ProcessState,
    ThreadProcess,
    wait,
)
from repro.kernel.report import Report, Reporter, Severity
from repro.kernel.signal import Signal
from repro.kernel.simtime import (
    ZERO_TIME,
    SimTime,
    fs,
    ms,
    ns,
    ps,
    sec,
    us,
)
from repro.kernel.sync import Mutex, with_timeout
from repro.kernel.watchdog import SimWatchdog

__all__ = [
    "BindingError",
    "Clock",
    "ElaborationError",
    "Event",
    "Fifo",
    "KernelError",
    "MethodProcess",
    "Module",
    "Mutex",
    "Port",
    "Process",
    "ProcessError",
    "ProcessState",
    "Report",
    "Reporter",
    "Severity",
    "Signal",
    "SimContext",
    "SimObject",
    "SimTime",
    "SimTimeoutError",
    "SimWatchdog",
    "SimulationError",
    "ThreadProcess",
    "TimeError",
    "WatchdogError",
    "ZERO_TIME",
    "active_context",
    "fs",
    "ms",
    "ns",
    "ps",
    "sec",
    "us",
    "wait",
    "with_timeout",
]
