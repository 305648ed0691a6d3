"""Unit tests for the event queue (multi-notification semantics)."""


from repro.kernel import EventQueue, ns


def collect(ctx, queue):
    log = []

    def waiter():
        while True:
            yield queue.event
            log.append(str(ctx.now))

    ctx.register_thread(waiter, "w")
    return log


class TestEventQueue:
    def test_every_notification_delivered(self, ctx, top):
        q = EventQueue("q", top)
        log = collect(ctx, q)

        def notifier():
            q.notify(ns(10))
            q.notify(ns(20))
            q.notify(ns(30))
            yield ns(1)

        ctx.register_thread(notifier, "n")
        ctx.run()
        assert log == ["10 ns", "20 ns", "30 ns"]
        assert q.delivered == 3

    def test_same_instant_notifications_all_delivered(self, ctx, top):
        """Where a plain Event would collapse them, the queue keeps
        every notification (delivered in consecutive deltas)."""
        q = EventQueue("q", top)
        log = collect(ctx, q)

        def notifier():
            for _ in range(4):
                q.notify(ns(10))
            yield ns(1)

        ctx.register_thread(notifier, "n")
        ctx.run()
        assert log == ["10 ns"] * 4

    def test_earlier_notification_reorders(self, ctx, top):
        q = EventQueue("q", top)
        log = collect(ctx, q)

        def notifier():
            q.notify(ns(50))
            q.notify(ns(10))  # earlier than the pending one
            yield ns(1)

        ctx.register_thread(notifier, "n")
        ctx.run()
        assert log == ["10 ns", "50 ns"]

    def test_zero_delay_is_next_delta(self, ctx, top):
        q = EventQueue("q", top)
        log = collect(ctx, q)

        def notifier():
            yield ns(5)
            q.notify()

        ctx.register_thread(notifier, "n")
        ctx.run()
        assert log == ["5 ns"]

    def test_notify_from_waiter_reentrant(self, ctx, top):
        q = EventQueue("q", top)
        count = []

        def waiter():
            while True:
                yield q.event
                count.append(str(ctx.now))
                if len(count) < 3:
                    q.notify(ns(10))

        def kick():
            q.notify(ns(1))
            yield ns(1)

        ctx.register_thread(waiter, "w")
        ctx.register_thread(kick, "k")
        ctx.run()
        assert count == ["1 ns", "11 ns", "21 ns"]

    def test_same_instant_deliveries_use_consecutive_deltas(self, ctx,
                                                            top):
        """One trigger per notification: n same-instant notifications
        arrive in n consecutive delta cycles, never collapsed into one
        trigger by the scheduler's same-timestamp batch drain."""
        q = EventQueue("q", top)
        deltas = []

        def waiter():
            while True:
                yield q.event
                deltas.append((str(ctx.now), ctx.delta_count))

        def notifier():
            for _ in range(4):
                q.notify(ns(10))
            yield ns(1)

        ctx.register_thread(waiter, "w")
        ctx.register_thread(notifier, "n")
        ctx.run()
        assert [t for t, _ in deltas] == ["10 ns"] * 4
        ds = [d for _, d in deltas]
        assert ds == list(range(ds[0], ds[0] + 4))
        assert q.delivered == 4

    def test_interleaved_instants_preserve_time_order(self, ctx, top):
        """Notifications queued out of order still deliver in time
        order, each exactly once."""
        q = EventQueue("q", top)
        log = collect(ctx, q)

        def notifier():
            for delay in (30, 10, 30, 20, 10):
                q.notify(ns(delay))
            yield ns(1)

        ctx.register_thread(notifier, "n")
        ctx.run()
        assert log == ["10 ns", "10 ns", "20 ns", "30 ns", "30 ns"]
        assert q.delivered == 5

    def test_usable_in_static_sensitivity(self, ctx, top):
        q = EventQueue("q", top)
        hits = []
        ctx.register_method(lambda: hits.append(str(ctx.now)), "m",
                            sensitive=[q], dont_initialize=True)

        def notifier():
            q.notify(ns(3))
            q.notify(ns(3))
            yield ns(1)

        ctx.register_thread(notifier, "n")
        ctx.run()
        assert hits == ["3 ns", "3 ns"]
