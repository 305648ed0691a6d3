"""The kernel's one wait entry, ``Process._apply_wait``.

A thread's bare ``SimTime`` yield is one resume entry on the timed heap
and a bare ``Event`` yield one slot in the event's waiter list; no wait
record is built for either, and a time advance builds no ``SimTime``.
The reference below is the wait path the kernel had before: every
yield went through a ``normalize`` that cached one ``WaitCondition``
per event and per duration, and ``_apply_wait`` took only those
records.  The differential property runs random process networks on
both paths and requires the same activations, trigger counts, end
times, blocked-process text and checkpoints.  The mechanism test pins
that the per-wait objects do not come back.
"""

import contextlib
import itertools
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.esw.synthesis import ExecuteFor
from repro.kernel import (
    Event,
    Module,
    ProcessError,
    SimContext,
    SimTime,
    SimTimeoutError,
    ZERO_TIME,
    ns,
    ps,
    wait,
    with_timeout,
)
from repro.kernel import process as process_module
from repro.kernel.process import (
    Process,
    ThreadProcess,
    WaitCondition,
    WaitMode,
)
from repro.snapshot import capture_state

# ---------------------------------------------------------------------------
# Reference: the cached-record wait path
# ---------------------------------------------------------------------------

#: The cap on the reference's cache of timed waits.
_TIMED_WAITS_CAP = 4096


def reference_normalize(event_waits, timed_waits):
    """``WaitCondition.normalize`` that shares one record per event (in
    ``event_waits``, standing in for the ``Event._wait_cond`` slot the
    reference filled) and per duration (in ``timed_waits``)."""

    def normalize(cls, yielded):
        if yielded is None:
            return process_module._STATIC_WAIT
        if isinstance(yielded, Event):
            cond = event_waits.get(yielded)
            if cond is None:
                cond = event_waits[yielded] = cls(WaitMode.ANY, (yielded,))
            return cond
        if isinstance(yielded, SimTime):
            cond = timed_waits.get(yielded)
            if cond is None:
                cond = cls(WaitMode.TIMED, timeout=yielded)
                if len(timed_waits) < _TIMED_WAITS_CAP:
                    timed_waits[yielded] = cond
            return cond
        if isinstance(yielded, WaitCondition):
            return yielded
        converter = getattr(yielded, "as_wait_condition", None)
        if converter is not None:
            return cls.normalize(converter())
        if isinstance(yielded, tuple) and yielded \
                and isinstance(yielded[0], SimTime):
            events = yielded[1:]
            for item in events:
                if not isinstance(item, Event):
                    raise ProcessError(
                        f"invalid member in timed wait tuple: {item!r}")
            if not events:
                return cls(WaitMode.TIMED, timeout=yielded[0])
            return cls(WaitMode.ANY, events, timeout=yielded[0])
        raise ProcessError(
            f"process yielded an invalid wait condition: {yielded!r}")

    return normalize


def reference_apply_wait(self, cond):
    """Suspend on a ``WaitCondition`` (the only argument it takes)."""
    self.state = process_module._WAITING
    mode = cond.mode
    if mode is WaitMode.STATIC:
        if not self.static_sensitivity:
            self.ctx.reporter.warning(
                "process",
                f"process {self.name!r} waits on an empty static "
                f"sensitivity list and will never resume",
                time_str=str(self.ctx.now),
            )
        self._waiting_static = True
        return
    ctx = self.ctx
    if mode is WaitMode.TIMED:
        self._timeout_handle = ctx._schedule_resume_fs(
            self, ctx._now_fs + cond.timeout._fs)
        return
    events = cond.events
    self._wait_events = events
    for ev in events:
        ev._dynamic_waiters.append(self)
    if cond.timeout is not None:
        self._timeout_handle = ctx._schedule_resume_fs(
            self, ctx._now_fs + cond.timeout._fs)


def reference_dispatch(self):
    """Resume the generator, then normalize what it yielded."""
    self.state = process_module._RUNNING
    wake = self._wake_value
    self._wake_value = None
    try:
        gen = self._gen
        if gen is None:
            gen = self._fn()
            if gen is None:
                self._terminate()
                return
            if not hasattr(gen, "send"):
                raise ProcessError(
                    f"thread process {self.name!r} must be a generator "
                    f"function, got {type(gen).__name__}")
            self._gen = gen
            wake = None
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


@contextlib.contextmanager
def reference_wait_path():
    """Run the kernel on the reference wait path inside the block."""
    normalize = reference_normalize(event_waits={}, timed_waits={})
    with mock.patch.object(WaitCondition, "normalize",
                           classmethod(normalize)), \
            mock.patch.object(Process, "_apply_wait", reference_apply_wait), \
            mock.patch.object(ThreadProcess, "_dispatch", reference_dispatch):
        yield


# ---------------------------------------------------------------------------
# Random process networks
# ---------------------------------------------------------------------------

POOL = 4

_durations = st.one_of(
    st.just(ZERO_TIME),
    st.sampled_from([ns(3), ns(5), ns(8)]),          # repeated
    st.integers(1, 20_000).map(ps),                 # distinct
)
_events = st.lists(st.integers(0, POOL - 1), max_size=3)
_sensitivity = st.lists(st.integers(0, POOL - 1), min_size=1, max_size=2)
_notify = st.tuples(st.just("notify"), st.integers(0, POOL - 1),
                    st.sampled_from(["immediate", "delta", "timed",
                                     "cancel"]),
                    _durations)
_waits = st.one_of(
    st.tuples(st.just("delay"), _durations),
    st.tuples(st.just("event"), st.integers(0, POOL - 1)),
    st.tuples(st.just("static")),
    st.tuples(st.just("tuple"), _durations, _events),
    st.tuples(st.just("wait"), st.one_of(st.none(), _durations), _events),
    st.tuples(st.just("execute"), _durations),
    st.tuples(st.just("deadline"), _durations, st.integers(0, POOL - 1)),
)
# about as many notifications as waits, so that event waits end
_steps = st.one_of(_waits, _notify)
_networks = st.fixed_dictionaries({
    # script, times it runs, static sensitivity (sometimes none),
    # dont_initialize
    "threads": st.lists(
        st.tuples(st.lists(_steps, min_size=1, max_size=8),
                  st.integers(1, 3),
                  st.one_of(st.just([]), _sensitivity, _sensitivity),
                  st.booleans()),
        min_size=2, max_size=6),
    # static sensitivity, dont_initialize, and the notifications it
    # makes, one per activation while they last
    "methods": st.lists(st.tuples(_sensitivity, st.booleans(),
                                  st.lists(_notify, max_size=4)),
                        max_size=2),
    # run limits in ns, then whether a last run goes on to starvation
    "segments": st.lists(st.integers(1, 60), min_size=1, max_size=2),
    "starve": st.booleans(),
})


class EventPool(Module):
    """The events a network's processes wait on and notify."""

    def __init__(self, name, parent):
        super().__init__(name, parent)
        self.events = [Event(self, f"{self.full_name}.e{i}")
                       for i in range(POOL)]

    def __snapshot_events__(self):
        return self.events


def _wake_name(wake):
    return wake.name if isinstance(wake, Event) else wake


def simulate_network(network):
    """Run ``network``; return everything the two paths must agree on."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    pool = EventPool("pool", top).events
    trace = []

    def record(name, wake):
        trace.append((name, ctx._now_fs, ctx.delta_count, _wake_name(wake)))

    def notify(how, index, delay):
        ev = pool[index]
        if how == "immediate":
            ev.notify()
        elif how == "delta":
            ev.notify_delta()
        elif how == "timed":
            ev.notify_after(delay)
        else:
            ev.cancel()

    def event_wait(ev):
        return (yield ev)

    for i, (script, times, sensitive, lazy) in enumerate(
            network["threads"]):
        name = f"t{i}"

        def body(script=script * times, name=name):
            for step in script:
                kind = step[0]
                if kind == "notify":
                    notify(step[2], step[1], step[3])
                    continue
                if kind == "delay":
                    wake = yield step[1]
                elif kind == "event":
                    wake = yield pool[step[1]]
                elif kind == "static":
                    wake = yield None
                elif kind == "tuple":
                    wake = yield (step[1], *(pool[j] for j in step[2]))
                elif kind == "wait":
                    args = [] if step[1] is None else [step[1]]
                    wake = yield wait(*args, *(pool[j] for j in step[2]))
                elif kind == "execute":
                    wake = yield ExecuteFor(step[1])
                else:
                    try:
                        wake = yield from with_timeout(
                            ctx, event_wait(pool[step[2]]), step[1])
                    except SimTimeoutError:
                        wake = "timed out"
                record(name, wake)

        ctx.register_thread(body, name,
                            sensitive=[pool[j] for j in sensitive],
                            dont_initialize=lazy and bool(sensitive))
    for j, (sensitive, lazy, actions) in enumerate(network["methods"]):
        name = f"m{j}"
        todo = list(actions)

        def method(name=name, todo=todo):
            record(name, None)
            if todo:
                _, index, how, delay = todo.pop(0)
                notify(how, index, delay)

        ctx.register_method(method, name,
                            sensitive=[pool[k] for k in sensitive],
                            dont_initialize=lazy)

    limits = [ns(t) for t in itertools.accumulate(network["segments"])]
    if network["starve"]:
        limits.append(None)
    ends = []
    for limit in limits:
        ctx.run(until=limit)
        ends.append((ctx.now, ctx.last_activity_time, ctx.delta_count,
                     ctx.last_run_outcome))
    return {
        "trace": trace,
        "trigger_counts": [ev.trigger_count for ev in pool],
        "ends": ends,
        "blocked": [(p.name, text) for p, text in ctx.blocked_processes()],
        "reports": [r.format() for r in ctx.reporter.reports],
        # every run ends quiescent, so the end state can be captured
        "checkpoint": capture_state(ctx),
    }


@given(network=_networks)
@settings(max_examples=150, deadline=None)
def test_wait_entry_matches_reference_path(network):
    """Both wait paths give the same activations (process, time, delta
    cycle and wake value, in order), event trigger counts, run ends,
    blocked-process descriptions, reports and checkpoint."""
    new = simulate_network(network)
    with reference_wait_path():
        reference = simulate_network(network)
    assert new == reference


def test_reference_path_is_installed_and_removed():
    """The reference really replaces the wait path, and only inside
    its block: a bare event yield builds a record there and not here."""
    built = []

    def run():
        ctx = SimContext()
        ev = Event(ctx, "ev")

        def waiter():
            yield ev

        def kicker():
            yield ns(1)
            ev.notify()

        ctx.register_thread(waiter, "w")
        ctx.register_thread(kicker, "k")
        original = WaitCondition.__init__
        with mock.patch.object(
                WaitCondition, "__init__",
                lambda self, *a, **k: built.append(a) or original(
                    self, *a, **k)):
            ctx.run()

    with reference_wait_path():
        run()
    assert len(built) == 2       # one per event, one per duration
    built.clear()
    run()
    assert built == []


# ---------------------------------------------------------------------------
# Mechanism: no per-wait objects
# ---------------------------------------------------------------------------


def count_wait_objects(n):
    """``WaitCondition`` and ``SimTime._from_fs`` calls made by a run of
    ``n`` distinct timed waits and ``n`` event waits, each woken by
    ``notify()`` on a new event, where no process reads ``ctx.now``."""
    ctx = SimContext()
    delays = [SimTime(1_000 + i) for i in range(n)]
    events = [Event(ctx, f"e{i}") for i in range(n)]
    step = ns(1)

    def sleeper():
        for delay in delays:
            yield delay

    def waiter():
        for ev in events:
            yield ev

    def notifier():
        for ev in events:
            yield step
            ev.notify()

    for body in (sleeper, waiter, notifier):
        ctx.register_thread(body, body.__name__)
    ctx.elaborate()

    counts = {"WaitCondition": 0, "SimTime._from_fs": 0}
    init = WaitCondition.__init__
    from_fs = SimTime._from_fs.__func__

    def counted_init(self, *args, **kwargs):
        counts["WaitCondition"] += 1
        init(self, *args, **kwargs)

    def counted_from_fs(cls, femtoseconds):
        counts["SimTime._from_fs"] += 1
        return from_fs(cls, femtoseconds)

    with mock.patch.object(WaitCondition, "__init__", counted_init), \
            mock.patch.object(SimTime, "_from_fs",
                              classmethod(counted_from_fs)):
        ctx.run()
    assert ctx._now_fs == n * 1_000_000      # every wait was served
    assert events[-1].trigger_count == 1
    return counts


def test_waits_and_time_advances_build_no_objects():
    """Neither count grows with the number of waits: a timed wait is
    one heap entry, an event wait one waiter slot, and a time advance
    sets an integer.  (``run`` itself builds the ``SimTime`` it
    returns.)"""
    small = count_wait_objects(1_000)
    large = count_wait_objects(2_000)
    assert large == small
    assert small["WaitCondition"] == 0
