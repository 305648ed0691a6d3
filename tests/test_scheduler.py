"""Unit tests for the scheduler: phases, determinism, run control."""

import pytest

from repro.kernel import (
    Event,
    Module,
    Signal,
    SimContext,
    SimulationError,
    ns,
)


class TestRunControl:
    def test_run_with_duration_accumulates(self, ctx):
        ctx.run(ns(10))
        assert ctx.now == ns(10)
        ctx.run(ns(5))
        assert ctx.now == ns(15)

    def test_run_until_absolute(self, ctx):
        ctx.run(until=ns(42))
        assert ctx.now == ns(42)

    def test_run_until_past_time_rejected(self, ctx):
        ctx.run(ns(10))
        with pytest.raises(SimulationError):
            ctx.run(until=ns(5))

    def test_duration_and_until_both_rejected(self, ctx):
        with pytest.raises(SimulationError):
            ctx.run(duration=ns(1), until=ns(2))

    def test_stop_halts_simulation(self, ctx):
        log = []

        def body():
            for i in range(100):
                yield ns(10)
                log.append(i)
                if i == 2:
                    ctx.stop()

        ctx.register_thread(body, "t")
        ctx.run()
        assert log == [0, 1, 2]
        assert ctx.now == ns(30)

    def test_run_stops_at_limit_leaving_future_events(self, ctx):
        log = []

        def body():
            yield ns(100)
            log.append("late")

        ctx.register_thread(body, "t")
        ctx.run(ns(10))
        assert log == []
        assert ctx.last_run_outcome == "limit"
        ctx.run(ns(200))
        assert log == ["late"]

    def test_starvation_ends_run(self, ctx):
        def body():
            yield ns(7)

        ctx.register_thread(body, "t")
        end = ctx.run()
        assert end == ns(7)
        assert ctx.last_run_outcome == "starved"


class TestDeltaCycles:
    def test_delta_chain_advances_delta_count_not_time(self, ctx):
        e1, e2, e3 = (Event(ctx, f"e{i}") for i in range(3))
        log = []

        def a():
            yield e1
            e2.notify_delta()

        def b():
            yield e2
            e3.notify_delta()

        def c():
            yield e3
            log.append((str(ctx.now), ctx.delta_count))

        def kick():
            if False:
                yield
            e1.notify_delta()

        for i, fn in enumerate((a, b, c, kick)):
            ctx.register_thread(fn, f"t{i}")
        ctx.run()
        assert log[0][0] == "0 s"
        assert log[0][1] >= 3

    def test_runaway_delta_loop_detected(self):
        ctx = SimContext(max_deltas_per_timestep=50)
        e1, e2 = Event(ctx, "e1"), Event(ctx, "e2")

        def ping():
            while True:
                yield e1
                e2.notify_delta()

        def pong():
            while True:
                yield e2
                e1.notify_delta()

        def kick():
            if False:
                yield
            e1.notify_delta()

        ctx.register_thread(ping, "ping")
        ctx.register_thread(pong, "pong")
        ctx.register_thread(kick, "kick")
        with pytest.raises(SimulationError, match="delta"):
            ctx.run()

    def test_delta_counter_resets_each_timestep(self, ctx):
        """Many deltas spread over time must not trip the guard."""
        ctx.max_deltas_per_timestep = 5
        ev = Event(ctx, "ev")

        def body():
            for _ in range(20):
                yield ns(1)
                ev.notify_delta()

        def listener():
            while True:
                yield ev

        ctx.register_thread(body, "b")
        ctx.register_thread(listener, "l")
        ctx.run()  # must not raise


class TestDeterminism:
    def test_same_design_same_trace(self):
        def build_and_run():
            ctx = SimContext()
            trace = []
            ev = Event(ctx, "ev")

            def t1():
                for i in range(5):
                    yield ns(3)
                    trace.append(("t1", i, str(ctx.now)))
                    ev.notify()

            def t2():
                while True:
                    yield ev
                    trace.append(("t2", str(ctx.now)))

            ctx.register_thread(t1, "t1")
            ctx.register_thread(t2, "t2")
            ctx.run()
            return trace

        assert build_and_run() == build_and_run()

    def test_update_phase_isolates_readers(self, ctx):
        """All readers in a delta see the pre-write value (signal
        evaluate/update)."""
        top = Module("top", ctx=ctx)
        sig = Signal("sig", top, init=0, check_writer=False)
        seen = []

        def writer():
            yield ns(1)
            sig.write(99)
            seen.append(("writer-after-write", sig.read()))

        def reader():
            yield ns(1)
            seen.append(("reader", sig.read()))

        ctx.register_thread(writer, "w")
        ctx.register_thread(reader, "r")
        ctx.run()
        assert ("writer-after-write", 0) in seen
        assert ("reader", 0) in seen
        assert sig.read() == 99


class TestObjectRegistry:
    def test_duplicate_names_rejected(self, ctx):
        Module("top", ctx=ctx)
        from repro.kernel import ElaborationError

        with pytest.raises(ElaborationError):
            Module("top", ctx=ctx)

    def test_find_object_by_full_name(self, ctx):
        top = Module("top", ctx=ctx)
        sub = Module("sub", top)
        assert ctx.objects["top.sub"] is sub
        assert "nope" not in ctx.objects

    def test_hierarchy_iteration(self, ctx):
        top = Module("top", ctx=ctx)
        a = Module("a", top)
        b = Module("b", a)
        names = [o.full_name for o in top.iter_descendants()]
        assert names == ["top.a", "top.a.b"]
        assert top.children == [a]

    def test_invalid_name_rejected(self, ctx):
        from repro.kernel import ElaborationError

        with pytest.raises(ElaborationError):
            Module("has space", ctx=ctx)
        with pytest.raises(ElaborationError):
            Module("9starts_with_digit", ctx=ctx)

    def test_top_level_requires_ctx(self):
        from repro.kernel import ElaborationError

        with pytest.raises(ElaborationError):
            Module("orphan")


class TestReentrancy:
    def test_run_from_inside_a_process_rejected(self, ctx):
        def naughty():
            yield ns(1)
            ctx.run(ns(5))

        ctx.register_thread(naughty, "t")
        with pytest.raises(SimulationError, match="re-entrantly"):
            ctx.run()
