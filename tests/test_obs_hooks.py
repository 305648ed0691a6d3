"""Kernel instrumentation hooks: attach/detach, hook coverage, no-op path."""

import random
import types

import pytest
from hypothesis import given, settings, strategies as st

import repro.kernel.context as context_module
from repro.kernel import (
    Event,
    Signal,
    SimContext,
    SimulationError,
    all_of,
    any_of,
    ns,
)
from repro.kernel.process import WaitCondition, WaitMode
from repro.obs import CountingObserver, ObserverGroup, SimObserver


def _workload(ctx):
    """A small design exercising every hook kind: timed waits, delta
    notifications, and signal writes (update phases)."""
    sig = Signal("s", ctx=ctx, init=0, check_writer=False)

    def writer():
        for i in range(5):
            sig.write(i + 1)
            yield ns(10)

    def waiter():
        for _ in range(5):
            yield sig.default_event()

    ctx.register_thread(writer, "writer")
    ctx.register_thread(waiter, "waiter")


def _random_design(ctx, seed):
    """Build a random kernel design; returns its activation log and a
    run horizon.

    Threads run random step programs: timed waits; event, or-list and
    and-list waits with and without timeout; static waits; immediate,
    delta and timed notifies (which override and cancel each other on a
    small event pool); signal writes; and rarely ``stop()``.  Method
    processes re-arm with random ``next_trigger`` calls until their
    activation budget is spent.  Every process logs
    ``(name, now_fs, delta_count)`` on each activation.
    """
    rng = random.Random(seed)
    log = []
    events = [Event(ctx, f"ev{i}") for i in range(rng.randint(1, 4))]
    signals = [Signal(f"sig{i}", ctx=ctx, init=0, check_writer=False)
               for i in range(rng.randint(1, 2))]
    sources = events + signals
    parked = Event(ctx, "parked")  # never notified

    def some_events():
        return rng.sample(events, rng.randint(1, len(events)))

    def random_wait():
        timeout = ns(rng.randint(1, 30))
        return rng.choice([
            timeout,
            rng.choice(events),
            any_of(*some_events()),
            all_of(*some_events()),
            (timeout, rng.choice(events)),
            (timeout, any_of(*some_events())),
            WaitCondition(WaitMode.ALL, tuple(some_events()), timeout),
            None,
        ])

    def random_action():
        if rng.random() < 0.03:
            return ctx.stop  # rare, so most runs reach a horizon or starve
        ev = rng.choice(events)
        sig = rng.choice(signals)
        delay = ns(rng.choice([0, 1, 5, 12]))
        value = rng.randint(0, 3)
        return rng.choice([
            ev.notify, ev.notify_delta, ev.cancel,
            lambda: ev.notify_after(delay),
            lambda: sig.write(value),
        ])

    def random_trigger():
        return rng.choice([
            None, (), (ns(rng.randint(1, 20)),), (rng.choice(events),),
            (ns(rng.randint(1, 20)), rng.choice(events)),
            tuple(some_events()),
        ])

    def thread(name, program):
        def body():
            log.append((name, ctx._now_fs, ctx.delta_count))
            for is_wait, step in program:
                if is_wait:
                    yield step
                    log.append((name, ctx._now_fs, ctx.delta_count))
                else:
                    step()
        return body

    def method(name, steps):
        calls = []

        def body():
            log.append((name, ctx._now_fs, ctx.delta_count))
            calls.append(None)
            if len(calls) > len(steps):
                proc.next_trigger(parked)
                return
            action, trigger = steps[len(calls) - 1]
            action()
            if trigger is not None:
                proc.next_trigger(*trigger)

        proc = ctx.register_method(
            body, name, sensitive=[rng.choice(sources)],
            dont_initialize=rng.random() < 0.3)

    for i in range(rng.randint(1, 5)):
        program = [(True, random_wait()) if rng.random() < 0.5
                   else (False, random_action())
                   for _ in range(rng.randint(1, 14))]
        ctx.register_thread(thread(f"t{i}", program), f"t{i}",
                            sensitive=[rng.choice(sources)],
                            dont_initialize=rng.random() < 0.2)
    for i in range(rng.randint(0, 3)):
        method(f"m{i}", [(random_action(), random_trigger())
                         for _ in range(rng.randint(1, 10))])
    return log, ns(rng.randint(0, 60))


def _run_design(seed, observer):
    """Run a random design to its horizon and then to its end; returns
    the activation log and the kernel's state after each run."""
    ctx = SimContext()
    log, horizon = _random_design(ctx, seed)
    if observer is not None:
        ctx.attach_observer(observer)
    ends = []
    for kwargs in ({"until": horizon}, {}):
        ctx.run(**kwargs)
        ends.append((ctx.now, ctx.delta_count, ctx.last_activity_time,
                     ctx.last_run_outcome))
    return log, ends, ctx


class TestAttachDetach:
    def test_attach_exposes_observer(self, ctx):
        obs = SimObserver()
        assert ctx.observer is None
        ctx.attach_observer(obs)
        assert ctx.observer is obs

    def test_second_observer_rejected(self, ctx):
        ctx.attach_observer(SimObserver())
        with pytest.raises(SimulationError, match="ObserverGroup"):
            ctx.attach_observer(SimObserver())

    def test_same_observer_reattach_ok(self, ctx):
        obs = SimObserver()
        ctx.attach_observer(obs)
        ctx.attach_observer(obs)
        assert ctx.observer is obs

    def test_detach(self, ctx):
        obs = SimObserver()
        ctx.attach_observer(obs)
        ctx.detach_observer()
        assert ctx.observer is None

    def test_detach_specific_other_is_noop(self, ctx):
        obs = SimObserver()
        ctx.attach_observer(obs)
        ctx.detach_observer(SimObserver())
        assert ctx.observer is obs


class TestHookCoverage:
    def test_all_hook_kinds_fire(self, ctx):
        counting = CountingObserver()
        _workload(ctx)
        ctx.attach_observer(counting)
        ctx.run()
        assert counting.activations > 0
        assert counting.suspensions == counting.activations
        assert counting.event_fires > 0
        assert counting.update_phases > 0     # signal writes
        assert counting.delta_cycles > 0
        assert counting.time_advances > 0     # timed waits

    def test_detached_observer_sees_nothing(self, ctx):
        counting = CountingObserver()
        _workload(ctx)
        ctx.attach_observer(counting)
        ctx.detach_observer()
        ctx.run()
        assert counting.total == 0

    def test_unobserved_run_calls_no_hook_or_timer(self, ctx, monkeypatch):
        """Without an observer the scheduler never reads the clock."""

        def clock():
            raise AssertionError("perf_counter called")

        monkeypatch.setattr(context_module, "time",
                            types.SimpleNamespace(perf_counter=clock))
        counting = CountingObserver()
        _workload(ctx)
        ctx.attach_observer(counting)
        ctx.detach_observer()
        ctx.run()
        assert ctx.now == ns(50)
        assert counting.total == 0
        # the stub bites as soon as an observer is attached
        observed = SimContext()
        _workload(observed)
        observed.attach_observer(SimObserver())
        with pytest.raises(AssertionError, match="perf_counter"):
            observed.run()

    @given(seed=st.integers(0, 1 << 30))
    @settings(max_examples=150, deadline=None)
    def test_observed_run_is_identical(self, seed):
        """Attaching an observer does not change how a design is
        scheduled, and the observer sees every activation and delta."""
        plain_log, plain_ends, _ = _run_design(seed, None)
        counting = CountingObserver()
        log, ends, ctx = _run_design(seed, counting)
        assert log == plain_log
        assert ends == plain_ends
        assert counting.delta_cycles == ctx.delta_count
        assert counting.activations == len(log)

    def test_random_designs_reach_every_ending(self):
        """The designs behind the property above end runs at the
        horizon, by ``stop()`` and by starvation, and fire every hook."""
        outcomes = set()
        counting = CountingObserver()
        for seed in range(40):
            _, ends, _ = _run_design(seed, counting)
            outcomes.update(end[3] for end in ends)
        assert outcomes == {"limit", "stopped", "starved"}
        assert min(counting.activations, counting.event_fires,
                   counting.update_phases, counting.delta_cycles,
                   counting.time_advances) > 0

    def test_delta_counter_matches_kernel(self, ctx):
        counting = CountingObserver()
        _workload(ctx)
        ctx.attach_observer(counting)
        ctx.run()
        assert counting.delta_cycles == ctx.delta_count


class TestObserverGroup:
    def test_fans_out_to_all_children(self, ctx):
        a, b = CountingObserver(), CountingObserver()
        _workload(ctx)
        ctx.attach_observer(ObserverGroup(a, b))
        ctx.run()
        assert a.total > 0
        assert a.activations == b.activations
        assert a.delta_cycles == b.delta_cycles
        assert a.total == b.total

    def test_empty_group_is_harmless(self, ctx):
        _workload(ctx)
        ctx.attach_observer(ObserverGroup())
        ctx.run()
        assert ctx.now == ns(50)
