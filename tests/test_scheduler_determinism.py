"""Determinism guarantees of the integer-time scheduler fast path.

The kernel orders its timed heap by ``(when_fs, seq)`` where ``seq`` is
a globally unique insertion counter, so same-instant activity always
fires in the order it was scheduled — across events, process timeouts,
and mixtures of both.  Cancellation rewrites the entry kind in place and
the entry is lazily discarded; these tests pin down that cancelled
entries never fire and never perturb the ordering of live ones.
"""

import pytest

from repro.kernel import ZERO_TIME, Event, SimContext, SimulationError, ns
from repro.kernel.event import (
    ENTRY_KIND,
    KIND_CANCELLED,
    KIND_EVENT,
)


class TestSameInstantOrdering:
    def test_timed_resumes_fire_in_schedule_order(self, ctx):
        """Processes waking at the same instant run in scheduling order."""
        log = []

        def make(tag):
            def body():
                yield ns(10)
                log.append(tag)
            return body

        for tag in ["a", "b", "c", "d"]:
            ctx.register_thread(make(tag), tag)
        ctx.run()
        assert log == ["a", "b", "c", "d"]

    def test_timed_events_fire_in_notification_order(self, ctx):
        """Same-instant timed notifications trigger in notify order."""
        events = [Event(ctx, f"e{i}") for i in range(4)]
        log = []

        def make_waiter(i):
            def body():
                yield events[i]
                log.append(i)
            return body

        def notifier():
            # Notify in an order different from waiter registration.
            for i in (2, 0, 3, 1):
                events[i].notify_after(ns(5))
            yield ns(1)

        for i in range(4):
            ctx.register_thread(make_waiter(i), f"w{i}")
        ctx.register_thread(notifier, "n")
        ctx.run()
        assert log == [2, 0, 3, 1]

    def test_mixed_events_and_timeouts_interleave_by_seq(self, ctx):
        """An event notification and a plain timed wait scheduled at the
        same instant preserve their relative scheduling order."""
        ev = Event(ctx, "ev")
        log = []

        def waiter():
            yield ev
            log.append("event")

        def sleeper():
            yield ns(10)
            log.append("sleeper")

        def notifier():
            ev.notify_after(ns(10))  # scheduled before sleeper's wait
            yield ns(1)

        ctx.register_thread(waiter, "w")
        ctx.register_thread(notifier, "n")
        ctx.register_thread(sleeper, "s")
        ctx.run()
        assert log == ["event", "sleeper"]

    def test_interleaved_instants_preserve_time_order(self, ctx):
        """Notifications scheduled out of time order fire in time order,
        same-instant ones in notify order, each exactly once."""
        events = [Event(ctx, f"e{i}") for i in range(5)]
        log = []

        def make_waiter(i):
            def body():
                while True:
                    yield events[i]
                    log.append((i, str(ctx.now)))
            return body

        def notifier():
            for ev, delay in zip(events, (30, 10, 30, 20, 10)):
                ev.notify_after(ns(delay))
            yield ns(1)

        for i in range(5):
            ctx.register_thread(make_waiter(i), f"w{i}")
        ctx.register_thread(notifier, "n")
        ctx.run()
        assert log == [(1, "10 ns"), (4, "10 ns"), (3, "20 ns"),
                       (0, "30 ns"), (2, "30 ns")]

    def test_same_instant_deliveries_use_consecutive_deltas(self, ctx):
        """A timed notification and the delta notifications that follow
        it at the same instant each wake the re-waiting process, one
        delta cycle apart; the instant's timed drain does not merge
        them."""
        ev = Event(ctx, "ev")
        deltas = []

        def waiter():
            while True:
                yield ev
                deltas.append((str(ctx.now), ctx.delta_count))
                if len(deltas) < 4:
                    ev.notify_delta()

        def notifier():
            ev.notify_after(ns(10))
            yield ns(1)

        ctx.register_thread(waiter, "w")
        ctx.register_thread(notifier, "n")
        ctx.run()
        assert [t for t, _ in deltas] == ["10 ns"] * 4
        ds = [d for _, d in deltas]
        assert ds == list(range(ds[0], ds[0] + 4))

    def test_run_twice_identical_trace(self):
        """The whole schedule is a pure function of the model."""

        def trace():
            ctx = SimContext()
            events = [Event(ctx, f"e{i}") for i in range(3)]
            log = []

            def make_waiter(i):
                def body():
                    while True:
                        yield events[i]
                        log.append((i, str(ctx.now)))
                return body

            def driver():
                for r in range(5):
                    for i, ev in enumerate(events):
                        ev.notify_after(ns(3 + (r + i) % 4))
                    yield ns(10)

            for i in range(3):
                ctx.register_thread(make_waiter(i), f"w{i}")
            ctx.register_thread(driver, "d")
            ctx.run()
            return log

        assert trace() == trace()


class TestCancellation:
    def test_cancelled_notification_never_fires(self, ctx):
        ev = Event(ctx, "ev")
        log = []

        def waiter():
            yield ev
            log.append(str(ctx.now))

        def driver():
            ev.notify_after(ns(10))
            yield ns(5)
            ev.cancel()
            yield ns(20)

        ctx.register_thread(waiter, "w")
        ctx.register_thread(driver, "d")
        ctx.run()
        assert log == []
        assert not ev.has_pending_notification

    def test_cancelled_entry_marked_in_heap(self, ctx):
        """Cancel rewrites the heap entry kind in place (no surgery)."""
        ev = Event(ctx, "ev")
        ev.notify_after(ns(10))
        handle = ev._pending_handle
        assert handle[ENTRY_KIND] == KIND_EVENT
        ev.cancel()
        assert handle[ENTRY_KIND] == KIND_CANCELLED
        assert handle in ctx._timed_heap  # lazily discarded later

    def test_earlier_notification_overrides_later(self, ctx):
        ev = Event(ctx, "ev")
        log = []

        def waiter():
            while True:
                yield ev
                log.append(str(ctx.now))

        def driver():
            ev.notify_after(ns(50))
            ev.notify_after(ns(10))  # earlier wins; the 50 ns entry dies
            yield ns(100)

        ctx.register_thread(waiter, "w")
        ctx.register_thread(driver, "d")
        ctx.run()
        assert log == ["10 ns"]

    def test_later_notification_discarded(self, ctx):
        ev = Event(ctx, "ev")
        log = []

        def waiter():
            while True:
                yield ev
                log.append(str(ctx.now))

        def driver():
            ev.notify_after(ns(10))
            ev.notify_after(ns(50))  # no later than pending: discarded
            yield ns(100)

        ctx.register_thread(waiter, "w")
        ctx.register_thread(driver, "d")
        ctx.run()
        assert log == ["10 ns"]

    def test_timeout_cancelled_when_event_wins(self, ctx):
        """A process waiting with timeout whose event fires first must
        not see a spurious resume when the stale timeout matures."""
        ev = Event(ctx, "ev")
        log = []

        def waiter():
            yield (ns(100), ev)  # wait for ev with a 100 ns timeout
            log.append(("woke", str(ctx.now)))
            yield ns(500)  # survive past the stale timeout's instant
            log.append(("alive", str(ctx.now)))

        def driver():
            yield ns(10)
            ev.notify()

        ctx.register_thread(waiter, "w")
        ctx.register_thread(driver, "d")
        ctx.run()
        assert log == [("woke", "10 ns"), ("alive", "510 ns")]

    def test_pending_activity_ignores_cancelled_entries(self, ctx):
        ev = Event(ctx, "ev")
        ev.notify_after(ns(10))
        ev.cancel()
        # the cancelled entry neither advances time nor keeps the run alive
        assert ctx.run() == ZERO_TIME
        assert ctx.last_run_outcome == "starved"
        assert ev.trigger_count == 0


class TestPhaseOrdering:
    def test_delta_notification_wakes_next_delta(self, ctx):
        """notify_delta is visible one delta later, same sim time."""
        ev = Event(ctx, "ev")
        log = []

        def waiter():
            yield ev
            log.append((str(ctx.now), ctx.delta_count))

        def driver():
            start_delta = ctx.delta_count
            ev.notify_delta()
            log.append(("notified", start_delta))
            yield ns(1)

        ctx.register_thread(waiter, "w")
        ctx.register_thread(driver, "d")
        ctx.run()
        assert log[0][0] == "notified"
        assert log[1][0] == "0 s"
        assert log[1][1] == log[0][1] + 1  # exactly one delta later

    def test_immediate_notify_wakes_same_evaluation(self, ctx):
        ev = Event(ctx, "ev")
        log = []

        def waiter():
            yield ev
            log.append(ctx.delta_count)

        def driver():
            yield ns(1)  # let the waiter suspend first
            before = ctx.delta_count
            ev.notify()
            log.append(before)

        ctx.register_thread(waiter, "w")
        ctx.register_thread(driver, "d")
        ctx.run()
        # Both entries logged in the same delta cycle.
        assert len(log) == 2 and log[0] == log[1]

    def test_max_deltas_per_timestep_guard(self):
        """A zero-time activity loop trips the delta limit loudly."""
        ctx = SimContext(max_deltas_per_timestep=50)
        e1, e2 = Event(ctx, "e1"), Event(ctx, "e2")

        def ping():
            while True:
                e2.notify_delta()
                yield e1

        def pong():
            while True:
                yield e2
                e1.notify_delta()

        ctx.register_thread(ping, "ping")
        ctx.register_thread(pong, "pong")
        with pytest.raises(SimulationError, match="delta"):
            ctx.run()

    def test_delta_limit_resets_when_time_advances(self):
        """The limit applies per timestep, not across the whole run."""
        ctx = SimContext(max_deltas_per_timestep=10)
        ev = Event(ctx, "ev")
        rounds = []

        def toggler():
            for r in range(30):  # 30 deltas total, but spread over time
                ev.notify_delta()
                yield ev
                rounds.append(r)
                yield ns(1)

        ctx.register_thread(toggler, "t")
        ctx.run()
        assert len(rounds) == 30


class TestIntegerTimeFastPath:
    def test_simtime_interning_returns_shared_instances(self):
        from repro.kernel.simtime import SimTime

        a = ns(5) + ns(5)
        b = ns(5) + ns(5)
        assert a is b  # small values are interned
        assert a == SimTime._from_fs(10_000_000)

    def test_now_matches_integer_clock(self, ctx):
        log = []

        def body():
            yield ns(7)
            log.append((ctx.now, ctx._now_fs))

        ctx.register_thread(body, "p")
        ctx.run()
        (now, now_fs), = log
        assert now._fs == now_fs == ns(7)._fs

    def test_zero_delay_notify_after_is_delta(self, ctx):
        ev = Event(ctx, "ev")
        ev.notify_after(ns(0))
        assert ev._pending_kind == "delta"

    def test_notify_after_rejects_raw_numbers(self, ctx):
        ev = Event(ctx, "ev")
        with pytest.raises(TypeError):
            ev.notify_after(10)
