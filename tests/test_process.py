"""Unit tests for thread and method processes."""

import pytest

from repro.kernel import (
    Event,
    Module,
    ProcessError,
    ProcessState,
    Signal,
    SimContext,
    SimulationError,
    method_process,
    ns,
    thread_process,
    wait,
)


class TestThreadProcess:
    def test_runs_at_initialization(self, ctx):
        log = []

        def body():
            log.append("ran")
            if False:
                yield

        ctx.register_thread(body, "t")
        ctx.run()
        assert log == ["ran"]

    def test_dont_initialize_waits_for_sensitivity(self, ctx):
        ev = Event(ctx, "ev")
        log = []

        def body():
            while True:
                log.append(str(ctx.now))
                yield None  # static sensitivity

        proc = ctx.register_thread(body, "t", sensitive=[ev],
                                   dont_initialize=True)

        def kicker():
            yield ns(5)
            ev.notify()

        ctx.register_thread(kicker, "k")
        ctx.run()
        assert log == ["5 ns"]
        assert proc.state is ProcessState.WAITING

    def test_plain_function_terminates_immediately(self, ctx):
        calls = []
        proc = ctx.register_thread(lambda: calls.append(1), "t")
        ctx.run()
        assert calls == [1]
        assert proc.terminated

    def test_timeout_wait_returns_none(self, ctx):
        ev = Event(ctx, "ev")
        results = []

        def body():
            woke = yield wait(ns(10), ev)
            results.append((woke, str(ctx.now)))

        ctx.register_thread(body, "t")
        ctx.run()
        assert results == [(None, "10 ns")]

    def test_timeout_wait_event_wins(self, ctx):
        ev = Event(ctx, "ev")
        results = []

        def body():
            woke = yield wait(ns(10), ev)
            results.append((woke is ev, str(ctx.now)))

        def notifier():
            yield ns(3)
            ev.notify()

        ctx.register_thread(body, "t")
        ctx.register_thread(notifier, "n")
        ctx.run()
        assert results == [(True, "3 ns")]

    def test_timeout_cancelled_after_event_wake(self, ctx):
        """The pending timeout must not fire later as a spurious wake."""
        ev = Event(ctx, "ev")
        wakes = []

        def body():
            yield wait(ns(10), ev)
            wakes.append(str(ctx.now))
            yield ns(100)
            wakes.append(str(ctx.now))

        def notifier():
            yield ns(2)
            ev.notify()

        ctx.register_thread(body, "t")
        ctx.register_thread(notifier, "n")
        ctx.run()
        assert wakes == ["2 ns", "102 ns"]

    def test_invalid_yield_raises_process_error(self, ctx):
        def body():
            yield 42

        ctx.register_thread(body, "t")
        with pytest.raises(ProcessError):
            ctx.run()

    def test_exception_in_process_propagates_from_run(self, ctx):
        def body():
            yield ns(1)
            raise ValueError("model bug")

        proc = ctx.register_thread(body, "t")
        with pytest.raises(ValueError, match="model bug"):
            ctx.run()
        assert proc.terminated
        assert isinstance(proc.exception, ValueError)

    def test_terminated_event_fires(self, ctx):
        log = []

        def short():
            yield ns(1)

        proc = ctx.register_thread(short, "s")

        def watcher():
            yield proc.terminated_event
            log.append(str(ctx.now))

        ctx.register_thread(watcher, "w")
        ctx.run()
        assert log == ["1 ns"]

    def test_non_generator_yieldable_rejected(self, ctx):
        proc = ctx.register_thread(lambda: 42, "t")
        with pytest.raises(ProcessError):
            ctx.run()


class TestMethodProcess:
    def test_method_runs_on_each_trigger(self, ctx):
        ev = Event(ctx, "ev")
        count = []

        ctx.register_method(lambda: count.append(ctx.now), "m",
                            sensitive=[ev], dont_initialize=True)

        def notifier():
            for _ in range(3):
                yield ns(10)
                ev.notify()

        ctx.register_thread(notifier, "n")
        ctx.run()
        assert [str(t) for t in count] == ["10 ns", "20 ns", "30 ns"]

    def test_method_initialization_run(self, ctx):
        count = []
        ctx.register_method(lambda: count.append(1), "m")
        ctx.run()
        assert count == [1]

    def test_next_trigger_overrides_once(self, ctx):
        ev = Event(ctx, "ev")
        log = []
        holder = {}

        def body():
            log.append(str(ctx.now))
            if len(log) == 1:
                holder["proc"].next_trigger(ns(7))

        holder["proc"] = ctx.register_method(body, "m", sensitive=[ev])
        ctx.run()
        # init run at 0, then next_trigger(7ns) run; then static (never)
        assert log == ["0 s", "7 ns"]

    def test_generator_registered_as_method_rejected(self, ctx):
        def genbody():
            yield ns(1)

        ctx.register_method(genbody, "m")
        with pytest.raises(ProcessError):
            ctx.run()


class TestModuleProcessDecorators:
    def test_thread_decorator_autoregisters(self, ctx):
        log = []

        class M(Module):
            @thread_process
            def run(self):
                yield ns(2)
                log.append(str(self.ctx.now))

        M("m", ctx=ctx)
        ctx.run()
        assert log == ["2 ns"]

    def test_method_decorator_with_string_sensitivity(self, ctx):
        from repro.kernel import Signal

        log = []

        class M(Module):
            def __init__(self, name, parent=None, ctx=None):
                super().__init__(name, parent, ctx)
                self.sig = Signal("sig", self, init=0)

            @method_process(sensitive=("sig",), dont_initialize=True)
            def on_sig(self):
                log.append(self.sig.read())

        m = M("m", ctx=ctx)

        def driver():
            yield ns(1)
            m.sig.write(5)
            yield ns(1)
            m.sig.write(9)

        ctx.register_thread(driver, "d")
        ctx.run()
        assert log == [5, 9]

    def test_next_trigger_outside_method_process_rejected(self, ctx):
        class M(Module):
            @thread_process
            def run(self):
                yield ns(1)
                self.next_trigger(ns(1))

        M("m", ctx=ctx)
        with pytest.raises(ProcessError):
            ctx.run()


class TestDynamicSpawn:
    def test_spawn_during_simulation(self, ctx):
        log = []

        def child():
            yield ns(1)
            log.append(("child", str(ctx.now)))

        def parent():
            yield ns(5)
            ctx.spawn(child, "child")
            yield ns(10)
            log.append(("parent", str(ctx.now)))

        ctx.register_thread(parent, "parent")
        ctx.run()
        assert ("child", "6 ns") in log
        assert ("parent", "15 ns") in log

    def test_registration_after_elaboration_rejected(self, ctx):
        ctx.run()  # elaborates empty design
        from repro.kernel import ElaborationError

        with pytest.raises(ElaborationError):
            ctx.register_thread(lambda: None, "late")


class TestWaitHelper:
    def test_wait_no_args_is_static(self):
        from repro.kernel.process import WaitMode

        assert wait().mode is WaitMode.STATIC

    def test_wait_multiple_events_is_any(self, ctx):
        from repro.kernel.process import WaitMode

        e1, e2 = Event(ctx, "e1"), Event(ctx, "e2")
        cond = wait(e1, e2)
        assert cond.mode is WaitMode.ANY
        assert len(cond.events) == 2

    def test_wait_rejects_garbage(self):
        with pytest.raises(ProcessError):
            wait("soon")


class TestMethodProcessFailure:
    def test_exception_in_method_process_propagates(self, ctx):
        ev = Event(ctx, "ev")

        def bad():
            raise RuntimeError("method bug")

        proc = ctx.register_method(bad, "m", sensitive=[ev],
                                   dont_initialize=True)

        def kicker():
            yield ns(1)
            ev.notify()

        ctx.register_thread(kicker, "k")
        with pytest.raises(RuntimeError, match="method bug"):
            ctx.run()
        assert proc.terminated
        assert isinstance(proc.exception, RuntimeError)


class TestRunThatRaises:
    """A run that raises leaves no stale outcome and no current process."""

    def test_delta_limit_marks_run_failed(self):
        ctx = SimContext(max_deltas_per_timestep=20)
        ev = Event(ctx, "ev")

        def spinner():
            while True:
                ev.notify_delta()
                yield ev

        ctx.register_thread(spinner, "spin")
        with pytest.raises(SimulationError, match="delta"):
            ctx.run()
        assert ctx.last_run_outcome == "failed"
        assert ctx.current_process is None

    def test_plain_function_thread_fails_like_a_generator(self, ctx):
        def body():
            raise ValueError("model bug")

        proc = ctx.register_thread(body, "t")
        with pytest.raises(ValueError, match="model bug"):
            ctx.run()
        assert ctx.last_run_outcome == "failed"
        assert ctx.current_process is None
        assert proc.terminated
        assert isinstance(proc.exception, ValueError)

    def test_generator_method_fails_the_run(self, ctx):
        def genbody():
            yield ns(1)

        proc = ctx.register_method(genbody, "m")
        sig = Signal("s", ctx=ctx, init=0)
        with pytest.raises(ProcessError):
            ctx.run()
        assert ctx.last_run_outcome == "failed"
        assert ctx.current_process is None
        assert proc.terminated
        # a testbench write is not charged to the dead process, so a
        # real driver may still take the signal
        sig.write(1)

        def driver():
            sig.write(2)
            yield ns(1)

        ctx.spawn(driver, "driver")
        ctx.run()
        assert sig.read() == 2
