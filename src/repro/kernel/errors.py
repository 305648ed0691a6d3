"""Exception hierarchy for the simulation kernel.

All kernel-raised errors derive from :class:`KernelError` so user code can
catch simulation-infrastructure problems separately from modeling bugs.
"""

from __future__ import annotations


class KernelError(Exception):
    """Base class for all simulation-kernel errors."""


class ElaborationError(KernelError):
    """Raised for structural problems detected at elaboration time.

    Typical causes: unbound ports, duplicate object names, binding a port
    to a channel that does not implement the required interface.
    """


class SimulationError(KernelError):
    """Raised for illegal actions while the simulation is running."""


class SimTimeoutError(SimulationError):
    """Raised when a blocking operation's deadline expires.

    :func:`~repro.kernel.sync.with_timeout`, the one deadline for any
    blocking call (``Fifo`` reads/writes, SHIP calls, bus transports),
    raises it, so resilience code catches every "gave up waiting"
    condition at once.
    """


class WatchdogError(SimulationError):
    """Raised when a :class:`~repro.kernel.watchdog.SimWatchdog` fires.

    The message carries the watchdog's hang report: every still-blocked
    process and what it was waiting on when progress stopped.
    """


class ProcessError(SimulationError):
    """Raised for misuse of process primitives.

    Examples: calling a blocking (``yield from``) interface method from a
    method process, yielding an object that is not a wait condition, or
    re-spawning a process that already terminated.
    """


class BindingError(ElaborationError):
    """Raised when a port cannot be bound to the given channel or port."""


class TimeError(KernelError):
    """Raised for invalid time construction or arithmetic (e.g. negative
    durations where only non-negative times are meaningful)."""
