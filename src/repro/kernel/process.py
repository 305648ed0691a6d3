"""Simulation processes: thread processes and method processes.

The kernel supports the two SystemC process flavours:

* **Thread processes** (``SC_THREAD``) are Python *generator functions*.
  A thread suspends by yielding a wait condition and is resumed by the
  scheduler when the condition is satisfied.  Blocking interface methods
  (e.g. ``ShipChannel.recv``) are themselves generators and are invoked
  with ``yield from``.

  Valid yield values:

  ========================  =============================================
  yielded value             meaning
  ========================  =============================================
  ``Event``                 wait for that event
  ``SimTime``               wait for the given duration
  ``(SimTime, events...)``  wait for events with a timeout
  ``None``                  wait on the static sensitivity list
  ========================  =============================================

  ``wait(*events)`` waits for any of several events.  The value sent
  back into the generator is the :class:`Event` that woke the process,
  or ``None`` for a timeout or static-sensitivity wake-up.

* **Method processes** (``SC_METHOD``) are plain callables invoked from
  start to finish on every trigger of their static sensitivity.  They
  must not block.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Optional, Tuple

from repro.kernel.errors import ProcessError
from repro.kernel.event import ENTRY_KIND, Event, KIND_CANCELLED
from repro.kernel.simtime import SimTime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.context import SimContext


class ProcessState(enum.Enum):
    READY = "ready"          # queued for execution
    RUNNING = "running"      # currently executing
    WAITING = "waiting"      # suspended on a dynamic or static wait
    TERMINATED = "terminated"


class WaitMode(enum.Enum):
    ANY = "any"        # wake on any listed event (or timeout)
    TIMED = "timed"    # pure timeout
    STATIC = "static"  # wake on the static sensitivity list


# Hot-path bindings: enum member access goes through the metaclass on
# every lookup, so the scheduler-critical members are bound to module
# locals once.
_READY = ProcessState.READY
_RUNNING = ProcessState.RUNNING
_WAITING = ProcessState.WAITING
_MODE_STATIC = WaitMode.STATIC
_MODE_TIMED = WaitMode.TIMED


class WaitCondition:
    """Normalized description of what a suspended process is waiting for."""

    __slots__ = ("mode", "events", "timeout")

    def __init__(
        self,
        mode: WaitMode,
        events: Tuple[Event, ...] = (),
        timeout: Optional[SimTime] = None,
    ):
        self.mode = mode
        self.events = events
        self.timeout = timeout

    @classmethod
    def normalize(cls, yielded) -> "WaitCondition":
        """Turn any legal yield value into a :class:`WaitCondition`.

        The three hottest yields — an :class:`Event`, a :class:`SimTime`
        and a pre-built :class:`WaitCondition` — resolve to cached,
        shared instances so steady-state simulation allocates nothing
        here.  Wait conditions are treated as immutable throughout the
        kernel, which is what makes the sharing safe.
        """
        if yielded is None:
            return _STATIC_WAIT
        if isinstance(yielded, Event):
            cond = yielded._wait_cond
            if cond is None:
                cond = cls(WaitMode.ANY, (yielded,))
                yielded._wait_cond = cond
            return cond
        if isinstance(yielded, SimTime):
            cond = _TIMED_WAIT_CACHE.get(yielded)
            if cond is None:
                cond = cls(WaitMode.TIMED, timeout=yielded)
                if len(_TIMED_WAIT_CACHE) < _TIMED_WAIT_CACHE_CAP:
                    _TIMED_WAIT_CACHE[yielded] = cond
            return cond
        if isinstance(yielded, WaitCondition):
            return yielded
        converter = getattr(yielded, "as_wait_condition", None)
        if converter is not None:
            # Duck-typed hook: annotation objects (e.g. the eSW
            # ``ExecuteFor`` marker) define their plain-kernel meaning.
            return cls.normalize(converter())
        if isinstance(yielded, tuple) and yielded and isinstance(yielded[0], SimTime):
            events = yielded[1:]
            for item in events:
                if not isinstance(item, Event):
                    raise ProcessError(
                        f"invalid member in timed wait tuple: {item!r}"
                    )
            if not events:
                return cls(WaitMode.TIMED, timeout=yielded[0])
            return cls(WaitMode.ANY, events, timeout=yielded[0])
        raise ProcessError(
            f"process yielded an invalid wait condition: {yielded!r}"
        )


#: Shared instances returned by :meth:`WaitCondition.normalize` for the
#: hot yields; see its docstring for the immutability contract.
_STATIC_WAIT = WaitCondition(WaitMode.STATIC)
_TIMED_WAIT_CACHE: dict = {}
_TIMED_WAIT_CACHE_CAP = 4096


def wait(*args) -> WaitCondition:
    """Build a wait condition explicitly: ``yield wait(ev)``,
    ``yield wait(ns(5))``, ``yield wait(ns(5), done_event)``,
    ``yield wait()`` (static sensitivity)."""
    if not args:
        return WaitCondition(WaitMode.STATIC)
    if len(args) == 1:
        return WaitCondition.normalize(args[0])
    if isinstance(args[0], SimTime):
        return WaitCondition.normalize(tuple(args))
    for item in args:
        if not isinstance(item, Event):
            raise ProcessError(f"invalid wait argument: {item!r}")
    return WaitCondition(WaitMode.ANY, args)


class Process:
    """Base class for both process flavours."""

    __slots__ = (
        "ctx",
        "name",
        "state",
        "static_sensitivity",
        "terminated_event",
        "_wake_value",
        "_timeout_handle",
        "_waiting_static",
        "_wait_events",
        "exception",
    )

    kind = "process"

    def __init__(self, ctx: "SimContext", name: str):
        self.ctx = ctx
        self.name = name
        self.state = ProcessState.READY
        #: Events this process is statically sensitive to.
        self.static_sensitivity: list = []
        #: Notified (delta) when the process terminates.
        self.terminated_event = Event(ctx, f"{name}.terminated")
        self._wake_value: Optional[Event] = None
        self._timeout_handle = None
        self._waiting_static = False
        self._wait_events: Tuple[Event, ...] = ()
        self.exception: Optional[BaseException] = None

    # -- sensitivity -------------------------------------------------------

    def add_static_sensitivity(self, event: Event) -> None:
        """Add an event to the static sensitivity list."""
        if event not in self.static_sensitivity:
            self.static_sensitivity.append(event)
            event.add_static(self)

    # -- wake-up plumbing ---------------------------------------------------

    def _clear_dynamic_wait(self) -> None:
        if self._wait_events:
            for ev in self._wait_events:
                ev._remove_dynamic(self)
            self._wait_events = ()
        self._waiting_static = False
        if self._timeout_handle is not None:
            self._timeout_handle[ENTRY_KIND] = KIND_CANCELLED
            self._timeout_handle = None

    def _wake(self, wake_value: Optional[Event]) -> None:
        if self.state is not _WAITING:
            return
        # Inlined _clear_dynamic_wait, with one extra trick: the event
        # that woke us (``wake_value``) already swapped its waiter list
        # out wholesale in Event._trigger, so removing ourselves from it
        # would only raise-and-swallow a ValueError — skip it.
        wait_events = self._wait_events
        if wait_events:
            for ev in wait_events:
                if ev is not wake_value:
                    ev._remove_dynamic(self)
            self._wait_events = ()
        self._waiting_static = False
        handle = self._timeout_handle
        if handle is not None:
            handle[ENTRY_KIND] = KIND_CANCELLED
            self._timeout_handle = None
        self._wake_value = wake_value
        self.state = _READY
        self.ctx._runnable.append(self)

    def _timeout_fired(self) -> None:
        self._wake(None)

    # -- scheduler interface -------------------------------------------------

    def _dispatch(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _apply_wait(self, cond: WaitCondition) -> None:
        """Suspend this process on ``cond``."""
        self.state = _WAITING
        mode = cond.mode
        if mode is _MODE_STATIC:
            if not self.static_sensitivity:
                # A static wait with no sensitivity suspends forever; this
                # is legal in SystemC but almost always a bug in a model.
                self.ctx.reporter.warning(
                    "process",
                    f"process {self.name!r} waits on an empty static "
                    f"sensitivity list and will never resume",
                    time_str=str(self.ctx.now),
                )
            self._waiting_static = True
            return
        ctx = self.ctx
        if mode is _MODE_TIMED:
            self._timeout_handle = ctx._schedule_resume_fs(
                self, ctx._now_fs + cond.timeout._fs
            )
            return
        # any of the events, possibly with a timeout
        events = cond.events
        self._wait_events = events
        for ev in events:
            ev._dynamic_waiters.append(self)
        if cond.timeout is not None:
            self._timeout_handle = ctx._schedule_resume_fs(
                self, ctx._now_fs + cond.timeout._fs
            )

    def _terminate(self) -> None:
        self._clear_dynamic_wait()
        self.state = ProcessState.TERMINATED
        self.terminated_event.notify_delta()

    @property
    def terminated(self) -> bool:
        """True once the process ran to completion."""
        return self.state is ProcessState.TERMINATED

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self.state.value})"


class ThreadProcess(Process):
    """A coroutine process driven by a generator function."""

    __slots__ = ("_fn", "_gen", "dont_initialize")

    kind = "thread"

    def __init__(
        self,
        ctx: "SimContext",
        name: str,
        fn: Callable[[], Generator],
        dont_initialize: bool = False,
    ):
        super().__init__(ctx, name)
        self._fn = fn
        self._gen: Optional[Generator] = None
        self.dont_initialize = dont_initialize

    def _dispatch(self) -> None:
        # The steady-state resume path is fully inlined here: one
        # generator send, one normalize, one apply_wait.  The first
        # dispatch calls the body inside the same ``try``, so a body
        # that raises before its first yield fails like any other.
        self.state = _RUNNING
        wake = self._wake_value
        self._wake_value = None
        try:
            gen = self._gen
            if gen is None:
                gen = self._fn()
                if gen is None:
                    # A plain function (no yields): it already ran to
                    # completion.
                    self._terminate()
                    return
                if not hasattr(gen, "send"):
                    raise ProcessError(
                        f"thread process {self.name!r} must be a generator "
                        f"function, got {type(gen).__name__}"
                    )
                self._gen = gen
                wake = None  # a just-started generator accepts only None
            yielded = gen.send(wake)
        except StopIteration:
            self._terminate()
            return
        except BaseException as exc:
            self.exception = exc
            self._terminate()
            self.ctx._process_failed(self, exc)
            return
        self._apply_wait(WaitCondition.normalize(yielded))


class MethodProcess(Process):
    """A run-to-completion callback process."""

    __slots__ = ("_fn", "dont_initialize")

    kind = "method"

    def __init__(
        self,
        ctx: "SimContext",
        name: str,
        fn: Callable[[], None],
        dont_initialize: bool = False,
    ):
        super().__init__(ctx, name)
        self._fn = fn
        self.dont_initialize = dont_initialize

    def _dispatch(self) -> None:
        self.state = _RUNNING
        self._wake_value = None
        try:
            result = self._fn()
            if result is not None and hasattr(result, "send"):
                raise ProcessError(
                    f"method process {self.name!r} is a generator "
                    f"function; register it as a thread process instead"
                )
        except BaseException as exc:
            self.exception = exc
            self._terminate()
            self.ctx._process_failed(self, exc)
            return
        self._apply_wait(_STATIC_WAIT)


def sensitivity_events(sources: Iterable) -> list:
    """Expand a sensitivity specification into a list of events.

    Each source may be an :class:`Event` or any object exposing a
    ``default_event()`` method (signals, ports bound to signals, ...).
    """
    events = []
    for src in sources:
        if isinstance(src, Event):
            events.append(src)
        elif hasattr(src, "default_event"):
            events.append(src.default_event())
        else:
            raise ProcessError(
                f"cannot be used in a sensitivity list: {src!r}"
            )
    return events
