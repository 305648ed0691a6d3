"""Resilience-primitive tests: timeouts, watchdogs, hang diagnostics.

Covers the kernel side of the robustness layer — the ``(timeout,
event)`` wait and ``with_timeout``, SHIP calls bounded by
``with_timeout``, the simulation watchdog, and the starvation
diagnostics every silent hang now ends in.
"""

import pytest

from repro.kernel import (
    Event,
    SimContext,
    SimTimeoutError,
    SimWatchdog,
    SimulationError,
    WatchdogError,
    ns,
    us,
    with_timeout,
)
from repro.faults import FaultPlan, LinkFaultInjector
from repro.ship import ShipChannel, ShipInt, ShipTiming
from tests.test_obs_hooks import HookCounter


class TestWaitWithTimeout:
    """The kernel's ``(timeout, event)`` wait resumes with None when the
    timeout wins and with the event when the event does."""

    def test_timeout_expires(self, ctx, top):
        ev = Event(top, "never")
        out = []

        def body():
            wake = yield (ns(50), ev)
            out.append((wake is None, ctx.now))

        ctx.register_thread(body, "t")
        ctx.run()
        assert out == [(True, ns(50))]

    def test_event_beats_timeout(self, ctx, top):
        ev = Event(top, "ev")
        out = []

        def body():
            wake = yield (ns(50), ev)
            out.append((wake is None, ctx.now))

        def kicker():
            yield ns(10)
            ev.notify()

        ctx.register_thread(body, "t")
        ctx.register_thread(kicker, "k")
        ctx.run()
        assert out == [(False, ns(10))]


class TestWithTimeout:
    def test_passes_through_fast_result(self, ctx, top):
        def slow(delay):
            yield delay
            return "done"

        out = []

        def body():
            result = yield from with_timeout(ctx, slow(ns(10)), ns(100))
            out.append((result, ctx.now))

        ctx.register_thread(body, "t")
        ctx.run()
        assert out == [("done", ns(10))]

    def test_deadline_cuts_long_operation(self, ctx, top):
        ev = Event(top, "never")

        def stuck():
            yield ev
            return "unreachable"

        out = []

        def body():
            try:
                yield from with_timeout(ctx, stuck(), ns(30), what="stuck")
            except SimTimeoutError as exc:
                out.append((str(exc), ctx.now))

        ctx.register_thread(body, "t")
        ctx.run()
        assert len(out) == 1
        assert "stuck timed out" in out[0][0]
        assert out[0][1] == ns(30)

    def test_multi_step_operation_budget_is_shared(self, ctx, top):
        def steps():
            yield ns(20)
            yield ns(20)
            yield ns(20)
            return "ok"

        out = []

        def body():
            try:
                yield from with_timeout(ctx, steps(), ns(50))
            except SimTimeoutError:
                out.append(ctx.now)

        ctx.register_thread(body, "t")
        ctx.run()
        # two full steps fit (40ns), the third is cut at the deadline
        assert out == [ns(50)]


class TestShipTimeouts:
    """SHIP calls take no timeout: ``with_timeout`` bounds any of them,
    and a call it closes cleans up after itself."""

    def _channel(self, top, **kw):
        return ShipChannel("chan", top, **kw)

    def test_recv_timeout_raises(self, ctx, top):
        chan = self._channel(top)
        end = chan.claim_end("rx")
        out = []

        def body():
            try:
                yield from with_timeout(ctx, chan.recv(end), ns(100))
            except SimTimeoutError:
                out.append(ctx.now)

        ctx.register_thread(body, "t")
        ctx.run()
        assert out == [ns(100)]

    def test_recv_completes_before_timeout(self, ctx, top):
        chan = self._channel(top)
        rx = chan.claim_end("rx")
        tx = chan.claim_end("tx")
        got = []

        def receiver():
            msg = yield from with_timeout(ctx, chan.recv(rx), us(1))
            got.append(msg.value)

        def sender():
            yield ns(20)
            yield from chan.send(tx, ShipInt(7))

        ctx.register_thread(receiver, "r")
        ctx.register_thread(sender, "s")
        ctx.run()
        assert got == [7]

    def test_request_timeout_drops_late_reply(self, ctx, top):
        chan = self._channel(
            top, timing=ShipTiming(base_latency=ns(50)))
        master = chan.claim_end("m")
        slave = chan.claim_end("s")
        out = []

        def requester():
            try:
                yield from with_timeout(
                    ctx, chan.request(master, ShipInt(1)), ns(80))
            except SimTimeoutError:
                out.append(ctx.now)

        def responder():
            msg = yield from chan.recv(slave)
            # the reply's own 50ns transfer lands after the 80ns deadline
            yield from chan.reply(slave, ShipInt(msg.value + 1))

        ctx.register_thread(requester, "req")
        ctx.register_thread(responder, "rsp")
        ctx.run()
        assert out == [ns(80)]
        assert chan.replies_dropped == 1

    def test_send_timeout_on_full_queue(self, ctx, top):
        chan = self._channel(top, capacity=1)
        tx = chan.claim_end("tx")
        out = []

        def sender():
            yield from chan.send(tx, ShipInt(0))      # fills the queue
            try:
                yield from with_timeout(
                    ctx, chan.send(tx, ShipInt(1)), ns(40))
            except SimTimeoutError:
                out.append(ctx.now)

        ctx.register_thread(sender, "s")
        ctx.run()
        assert out == [ns(40)]
        # the abandoned send enqueued nothing and counted no bytes
        assert chan.messages_sent(tx) == 1
        assert chan.bytes_sent(tx) == 14

    def test_send_closed_during_wire_time_counts_nothing(self, ctx, top):
        chan = self._channel(top, timing=ShipTiming(base_latency=ns(50)))
        tx = chan.claim_end("tx")
        rx = chan.claim_end("rx")
        out = []

        def sender():
            try:
                yield from with_timeout(
                    ctx, chan.send(tx, ShipInt(1)), ns(30))
            except SimTimeoutError:
                out.append(ctx.now)

        def receiver():
            yield from chan.recv(rx)
            out.append("received")

        ctx.register_thread(sender, "s")
        ctx.register_thread(receiver, "r")
        ctx.run()
        assert out == [ns(30)]
        assert chan.messages_sent(tx) == 0
        assert chan.bytes_sent(tx) == 0

    def test_reply_closed_mid_transfer_stays_owed(self, ctx, top):
        chan = self._channel(top, timing=ShipTiming(base_latency=ns(50)))
        master = chan.claim_end("m")
        slave = chan.claim_end("s")
        out = []

        def requester():
            reply = yield from chan.request(master, ShipInt(1))
            out.append(("reply", reply.value, ctx.now))

        def responder():
            msg = yield from chan.recv(slave)
            try:
                yield from with_timeout(
                    ctx, chan.reply(slave, ShipInt(-1)), ns(20))
            except SimTimeoutError:
                out.append(("gave up", chan.pending_requests(slave),
                            ctx.now))
            # the same transaction is still at the head of the queue
            yield from chan.reply(slave, ShipInt(msg.value + 1))

        ctx.register_thread(requester, "req")
        ctx.register_thread(responder, "rsp")
        ctx.run()
        # request lands at 50 ns; the first reply is cut at 70 ns, the
        # second takes its 50 ns and is delivered at 120 ns
        assert out == [("gave up", 1, ns(70)), ("reply", 2, ns(120))]
        assert chan.pending_requests(slave) == 0
        assert chan.messages_sent(slave) == 1
        assert chan.replies_dropped == 0

    def test_nested_deadline_frees_reply_slot_at_outer_deadline(
            self, ctx, top):
        chan = self._channel(top, timing=ShipTiming(base_latency=ns(50)))
        plan = FaultPlan(seed=1)
        chan.fault_injector = LinkFaultInjector(plan)
        master = chan.claim_end("m")
        slave = chan.claim_end("s")
        out = []

        def requester():
            inner = with_timeout(ctx, chan.request(master, ShipInt(1)),
                                 us(1), what="inner")
            try:
                yield from with_timeout(ctx, inner, ns(80), what="outer")
            except SimTimeoutError as exc:
                out.append((str(exc).split()[0], ctx.now,
                            len(chan._pending_replies)))

        def responder():
            msg = yield from chan.recv(slave)
            # the reply's own 50ns transfer lands after the 80ns deadline
            yield from chan.reply(slave, ShipInt(msg.value + 1))

        ctx.register_thread(requester, "req")
        ctx.register_thread(responder, "rsp")
        ctx.run()
        assert out == [("outer", ns(80), 0)]
        assert chan.replies_dropped == 1
        assert plan.count("link.reply_dropped") == 1


class TestWatchdog:
    def test_requires_positive_timeout(self, ctx, top):
        with pytest.raises(SimulationError, match="positive"):
            SimWatchdog("wd", top, timeout=None)

    def test_heartbeat_mode_aborts_a_stalled_sim(self, ctx, top):
        wd = SimWatchdog("wd", top, timeout=us(1))
        ev = Event(top, "stuck_on_me")

        def stalled():
            yield ev

        ctx.register_thread(stalled, "worker")
        with pytest.raises(WatchdogError) as err:
            ctx.run(us(100))
        assert wd.fired
        # the report names the blocked process and what it waits on
        assert "worker" in str(err.value)
        assert "stuck_on_me" in str(err.value)

    def test_kicked_watchdog_stays_quiet(self, ctx, top):
        wd = SimWatchdog("wd", top, timeout=ns(100))

        def worker():
            for _ in range(20):
                yield ns(30)
                wd.kick()

        ctx.register_thread(worker, "w")
        ctx.run(ns(650))
        assert not wd.fired

    def test_progress_callable_mode(self, ctx, top):
        done = []
        wd = SimWatchdog("wd", top, timeout=ns(100),
                         progress=lambda: len(done), abort=False)

        def worker():
            for i in range(3):
                yield ns(40)
                done.append(i)
            yield Event(top, "never")  # stall after real progress

        ctx.register_thread(worker, "w")
        ctx.run(ns(1000))
        assert wd.fired
        assert wd.fire_count >= 1
        assert "no progress" in wd.report

    def test_abort_false_keeps_simulating(self, ctx, top):
        wd = SimWatchdog("wd", top, timeout=ns(100), abort=False)
        ticks = []

        def clocklike():
            while True:
                yield ns(50)
                ticks.append(ctx.now)

        ctx.register_thread(clocklike, "clk")
        ctx.run(ns(1000))
        assert wd.fire_count > 1       # kept firing, never aborted
        assert len(ticks) == 20        # the run was not cut short


class TestStarvationDiagnostics:
    def test_outcomes(self, ctx, top):
        def finite():
            yield ns(10)

        ctx.register_thread(finite, "t")
        ctx.run()
        assert ctx.last_run_outcome == "starved"
        ctx2 = SimContext()

        def ticker():
            while True:
                yield ns(10)

        ctx2.register_thread(ticker, "t")
        ctx2.run(ns(100))
        assert ctx2.last_run_outcome == "limit"

    def test_blocked_processes_and_report(self, ctx, top):
        ev = Event(top, "the_event")

        def stuck():
            yield ev

        def done():
            yield ns(5)

        ctx.register_thread(stuck, "stuck_proc")
        ctx.register_thread(done, "done_proc")
        ctx.run()
        blocked = ctx.blocked_processes()
        assert [p.name for p, _ in blocked] == ["stuck_proc"]
        assert "the_event" in blocked[0][1]

    def test_observer_hook_fires_on_starvation(self, ctx, top):
        obs = HookCounter()
        ctx.attach_observer(obs)
        ev = Event(top, "never")

        def stuck():
            yield ev

        ctx.register_thread(stuck, "s")
        ctx.run()
        assert obs.calls["run_starved"] == 1
        assert len(obs.last_blocked) == 1

    def test_no_starvation_hook_on_clean_stop(self, ctx, top):
        obs = HookCounter()
        ctx.attach_observer(obs)

        def worker():
            yield ns(10)
            ctx.stop()

        ctx.register_thread(worker, "w")
        ctx.run()
        assert ctx.last_run_outcome == "stopped"
        assert obs.calls["run_starved"] == 0
