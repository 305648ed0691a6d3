"""Unit tests for event notification semantics (IEEE 1666 rules)."""

import pytest

from repro.kernel import Event, Module, ns, wait


def run_log(ctx, thread_fns, duration=None):
    """Spawn one thread per fn, run, return the shared log."""
    log = []
    for i, fn in enumerate(thread_fns):
        ctx.register_thread(lambda fn=fn: fn(log), f"t{i}")
    if duration is None:
        ctx.run()
    else:
        ctx.run(duration)
    return log


class TestBasicNotification:
    def test_timed_notification_wakes_at_right_time(self, ctx):
        ev = Event(ctx, "ev")

        def waiter(log):
            yield ev
            log.append(str(ctx.now))

        def notifier(log):
            yield ns(5)
            ev.notify_after(ns(10))

        log = run_log(ctx, [waiter, notifier])
        assert log == ["15 ns"]

    def test_delta_notification_wakes_same_time(self, ctx):
        ev = Event(ctx, "ev")

        def waiter(log):
            yield ev
            log.append((str(ctx.now), "woke"))

        def notifier(log):
            yield ns(3)
            ev.notify_delta()

        log = run_log(ctx, [waiter, notifier])
        assert log == [("3 ns", "woke")]

    def test_immediate_notification_wakes_in_same_evaluation(self, ctx):
        ev = Event(ctx, "ev")
        deltas = []

        def waiter(log):
            yield ev
            deltas.append(ctx.delta_count)

        def notifier(log):
            if False:
                yield
            ev.notify()

        run_log(ctx, [waiter, notifier])
        # waiter woke during delta 0's evaluation phase
        assert deltas == [0]

    def test_zero_delay_timed_equals_delta(self, ctx):
        ev = Event(ctx, "ev")

        def waiter(log):
            yield ev
            log.append(str(ctx.now))

        def notifier(log):
            yield ns(1)
            ev.notify_after(ns(0))

        log = run_log(ctx, [waiter, notifier])
        assert log == ["1 ns"]


class TestNotificationOverride:
    def test_earlier_notification_overrides_pending(self, ctx):
        ev = Event(ctx, "ev")

        def waiter(log):
            yield ev
            log.append(str(ctx.now))

        def notifier(log):
            ev.notify_after(ns(100))
            ev.notify_after(ns(10))  # earlier: overrides
            yield ns(0)

        log = run_log(ctx, [waiter, notifier])
        assert log == ["10 ns"]

    def test_later_notification_is_discarded(self, ctx):
        ev = Event(ctx, "ev")

        def waiter(log):
            yield ev
            log.append(str(ctx.now))

        def notifier(log):
            ev.notify_after(ns(10))
            ev.notify_after(ns(100))  # later: ignored
            yield ns(0)

        log = run_log(ctx, [waiter, notifier])
        assert log == ["10 ns"]

    def test_delta_overrides_timed(self, ctx):
        ev = Event(ctx, "ev")

        def waiter(log):
            yield ev
            log.append(str(ctx.now))

        def notifier(log):
            yield ns(5)
            ev.notify_after(ns(50))
            ev.notify_delta()

        log = run_log(ctx, [waiter, notifier])
        assert log == ["5 ns"]

    def test_cancel_removes_pending_notification(self, ctx):
        ev = Event(ctx, "ev")

        def waiter(log):
            yield ev
            log.append("woke")  # pragma: no cover - must not happen

        def notifier(log):
            ev.notify_after(ns(10))
            yield ns(5)
            ev.cancel()

        log = run_log(ctx, [waiter, notifier])
        assert log == []

    def test_cancel_of_delta_notification(self, ctx):
        ev = Event(ctx, "ev")

        def waiter(log):
            yield ev
            log.append("woke")  # pragma: no cover

        def notifier(log):
            if False:
                yield
            ev.notify_delta()
            ev.cancel()

        log = run_log(ctx, [waiter, notifier])
        assert log == []

    def test_has_pending_notification_flag(self, ctx):
        ev = Event(ctx, "ev")
        assert not ev.has_pending_notification
        ev.notify_after(ns(5))
        assert ev.has_pending_notification
        ev.cancel()
        assert not ev.has_pending_notification


class TestTriggerBookkeeping:
    def test_trigger_count_accumulates(self, ctx):
        ev = Event(ctx, "ev")

        def notifier(log):
            for _ in range(3):
                yield ns(1)
                ev.notify()

        run_log(ctx, [notifier])
        assert ev.trigger_count == 3

    def test_multiple_waiters_all_wake(self, ctx):
        ev = Event(ctx, "ev")

        def make_waiter(tag):
            def waiter(log):
                yield ev
                log.append(tag)
            return waiter

        def notifier(log):
            yield ns(1)
            ev.notify()

        log = run_log(ctx, [make_waiter("a"), make_waiter("b"), notifier])
        assert sorted(log) == ["a", "b"]


class TestEventCombinators:
    def test_any_of_wakes_on_first(self, ctx):
        e1, e2 = Event(ctx, "e1"), Event(ctx, "e2")

        def waiter(log):
            woke = yield wait(e1, e2)
            log.append((woke.name, str(ctx.now)))

        def notifier(log):
            yield ns(7)
            e2.notify()

        log = run_log(ctx, [waiter, notifier])
        assert log == [("e2", "7 ns")]

class TestOwnership:
    def test_event_from_module_owner(self, ctx):
        top = Module("top", ctx=ctx)
        ev = Event(top, "top.done")
        assert ev.ctx is ctx
        assert "done" in ev.name

    def test_invalid_owner_rejected(self):
        with pytest.raises(TypeError):
            Event(object())
