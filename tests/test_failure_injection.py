"""Failure-injection tests: error responses propagate, never hang.

A communication stack is judged by its failure paths: these tests
inject slave errors, decode misses, and protocol breakage at different
layers and check that every initiator observes a diagnosable failure —
an ERR response or a raised SimulationError — rather than a hang or
silent corruption.  The second half drives the ``repro.faults``
injectors: lossy SHIP links recovered by timeout+retry, no-response
slaves caught by the watchdog, retry-with-backoff convergence, and
seed-reproducibility of a whole fault campaign.
"""

import pytest

from repro.kernel import (
    Module,
    SimWatchdog,
    SimulationError,
    WatchdogError,
    ns,
    us,
    with_timeout,
)
from repro.cam import GenericBus, MemorySlave, PlbBus
from repro.faults import (
    BusFaultInjector,
    FaultPlan,
    FaultRule,
    FaultySlave,
    LinkFaultInjector,
    MemoryFaultInjector,
    RetryExhaustedError,
    RetryPolicy,
    RetryingMaster,
    retry_call,
)
from repro.faults import campaign
from repro.faults.campaign import run_campaign
from repro.esw import PartitionSpec, generate_esw
from repro.flow import SystemMapper
from repro.hwsw import PioSocket, SwShipEnd
from repro.models import MailboxLayout, ProcessingElement
from repro.models.mailbox import MailboxBusSide
from repro.models.wrappers import ShipBusMasterWrapper
from repro.ocp import OcpCmd, OcpRequest, OcpResp, OcpResponse
from repro.rtos import Rtos
from repro.ship import ShipChannel, ShipInt, ShipMasterPort, ShipTiming


class FlakySlave:
    """Returns ERR every ``period``-th access, DVA otherwise."""

    def __init__(self, period=3):
        self.period = period
        self.accesses = 0
        self.words = {}

    def access(self, req):
        """Functional access with periodic injected errors."""
        self.accesses += 1
        if self.accesses % self.period == 0:
            return OcpResponse.error()
        if req.cmd.is_write:
            for i in range(req.burst_length):
                self.words[req.beat_address(i)] = req.data[i]
            return OcpResponse.write_ok()
        return OcpResponse.read_ok(
            [self.words.get(req.beat_address(i), 0)
             for i in range(req.burst_length)]
        )


class FirstFires:
    """A fault rule that fires on its first ``n`` candidates only: a
    transient fault the retry tests recover from."""

    def __init__(self, n):
        self.left = n

    def matches(self, rng):
        self.left -= 1
        return self.left >= 0


class TestBusErrorPaths:
    def test_flaky_slave_errors_reach_the_master(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        flaky = FlakySlave(period=2)
        bus.attach_slave(flaky, 0, 4096, name="flaky")
        sock = bus.master_socket("m0")
        responses = []

        def body():
            for i in range(6):
                resp = yield from sock.transport(
                    OcpRequest(OcpCmd.WR, 0, data=[i], burst_length=1)
                )
                responses.append(resp.resp)

        ctx.register_thread(body, "t")
        ctx.run()
        assert responses.count(OcpResp.ERR) == 3
        assert bus.stats.transactions == 6

    def test_errors_do_not_stall_later_transactions(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        flaky = FlakySlave(period=2)
        bus.attach_slave(flaky, 0, 4096, name="flaky")
        mem = MemorySlave("mem", top, size=4096, read_wait=0,
                          write_wait=0)
        bus.attach_slave(mem, 0x10000, 4096)
        sock = bus.master_socket("m0")
        out = []

        def body():
            yield from sock.transport(
                OcpRequest(OcpCmd.WR, 0, data=[1], burst_length=1))
            yield from sock.transport(
                OcpRequest(OcpCmd.WR, 0, data=[2], burst_length=1))
            resp = yield from sock.transport(
                OcpRequest(OcpCmd.WR, 0x10000, data=[3],
                           burst_length=1))
            out.append(resp.resp)

        ctx.register_thread(body, "t")
        ctx.run()
        assert out == [OcpResp.DVA]
        assert mem.peek_word(0) == 3


class TestWrapperErrorPaths:
    def test_ship_wrapper_raises_on_unmapped_mailbox(self, ctx, top):
        """A wrapper pointed at a hole in the address map fails loudly."""
        bus = GenericBus("bus", top, clock_period=ns(10))
        chan = ShipChannel("chan", top)
        ShipBusMasterWrapper(
            "wrap", top, channel=chan,
            socket=bus.master_socket("w"),
            mailbox_base=0xDEAD000,       # nothing mapped there
            layout=MailboxLayout(),
        )
        port = ShipMasterPort("p", top)
        port.bind(chan)

        def body():
            yield from port.send(ShipInt(1))

        ctx.register_thread(body, "t")
        with pytest.raises(SimulationError, match="read failed"):
            ctx.run(us(1000))

    def test_hwsw_driver_raises_on_unmapped_mailbox(self, ctx, top):
        plb = PlbBus("plb", top)
        # map only a memory; the SW end's mailbox address is a hole
        mem = MemorySlave("mem", top, size=4096)
        plb.attach_slave(mem, 0, 4096)
        os = Rtos("os", top)
        side = MailboxBusSide(PioSocket(plb.master_socket("cpu")), 0x90000,
                              MailboxLayout(), irq=None, poll_interval=None)

        class Sender(ProcessingElement):
            def __init__(self, name, parent, chan):
                super().__init__(name, parent)
                self.port = self.ship_port("port", ShipMasterPort)
                self.port.bind(chan)
                self.add_thread(self.run)

            def run(self):
                yield from self.port.send(ShipInt(1))

        sender = Sender("main", top, SwShipEnd("cpu_end", side))
        generate_esw(PartitionSpec(software=[sender]), os)
        with pytest.raises(SimulationError, match="read failed"):
            ctx.run(us(1000))


class TestLinkRobustness:
    def test_link_survives_error_traffic_on_same_bus(self, ctx, top):
        """Foreign masters hammering an erroring slave must not corrupt
        an unrelated SHIP link on the same bus."""
        plb = PlbBus("plb", top)
        flaky = FlakySlave(period=1)  # always errors
        plb.attach_slave(flaky, 0x100, 64, name="flaky")
        link = SystemMapper(top, plb, mailbox_base=0x8000,
                            capacity_words=16,
                            poll_interval=ns(100)).connect("lnk")
        got = []

        class Tx(Module):
            def __init__(self, name, parent, chan):
                super().__init__(name, parent)
                self.chan = chan
                self.end = chan.claim_end(self)
                self.add_thread(self.run)

            def run(self):
                """Send three values over the link."""
                for i in range(3):
                    yield from self.chan.send(self.end, ShipInt(i))

        class Rx(Module):
            def __init__(self, name, parent, chan):
                super().__init__(name, parent)
                self.chan = chan
                self.end = chan.claim_end(self)
                self.add_thread(self.run)

            def run(self):
                """Record three received values."""
                for _ in range(3):
                    msg = yield from self.chan.recv(self.end)
                    got.append(msg.value)

        Tx("tx", top, link.master_attach)
        Rx("rx", top, link.slave_attach)

        hammered = []

        def hammer():
            sock = plb.master_socket("hammer", priority=0)
            for _ in range(20):
                resp = yield from sock.transport(
                    OcpRequest(OcpCmd.WR, 0x100, data=[0],
                               burst_length=1)
                )
                hammered.append(resp.resp)

        ctx.register_thread(hammer, "h")
        ctx.run(us(100_000))
        assert got == [0, 1, 2]
        assert hammered == [OcpResp.ERR] * 20


class TestShipLinkFaults:
    def _lossy_link(self, top, plan, **rules):
        chan = ShipChannel("chan", top,
                           timing=ShipTiming(base_latency=ns(20)))
        chan.fault_injector = LinkFaultInjector(plan, **rules)
        return chan

    def test_dropped_requests_recovered_by_retry(self, ctx, top):
        plan = FaultPlan(seed=1)
        chan = self._lossy_link(top, plan, drop=FaultRule(every_nth=3))
        master = chan.claim_end("m")
        slave = chan.claim_end("s")
        policy = RetryPolicy(max_attempts=4, backoff=ns(100))
        got = []

        def requester():
            for i in range(6):
                reply = yield from retry_call(
                    lambda: with_timeout(
                        ctx, chan.request(master, ShipInt(i)), us(1)),
                    policy,
                )
                got.append(reply.value)

        def echo():
            while True:
                msg = yield from chan.recv(slave)
                yield from chan.reply(slave, ShipInt(msg.value * 10))

        ctx.register_thread(requester, "req")
        ctx.register_thread(echo, "echo")
        ctx.run(us(1000))
        assert got == [0, 10, 20, 30, 40, 50]   # all recovered
        assert plan.count("link.drop") > 0       # faults really happened

    def test_corrupted_payload_reaches_receiver_wrong(self, ctx, top):
        plan = FaultPlan(seed=2)
        chan = self._lossy_link(top, plan,
                                corrupt=FaultRule(every_nth=2))
        tx = chan.claim_end("tx")
        rx = chan.claim_end("rx")
        got = []

        def sender():
            for i in range(6):
                yield from chan.send(tx, ShipInt(i))

        def receiver():
            for _ in range(6):
                msg = yield from chan.recv(rx)
                got.append(msg.value)

        ctx.register_thread(sender, "s")
        ctx.register_thread(receiver, "r")
        ctx.run(us(1000))
        corrupted = plan.count("link.corrupt")
        assert corrupted == 3                     # every 2nd of 6
        assert len(got) == 6                      # all delivered...
        assert got != [0, 1, 2, 3, 4, 5]          # ...but not all intact
        mismatches = sum(1 for i, v in enumerate(got) if v != i)
        assert mismatches == corrupted

    def test_same_seed_same_fault_log(self, ctx, top):
        logs = []
        for attempt in range(2):
            c = type(ctx)()
            t = Module("top", ctx=c)
            plan = FaultPlan(seed=11)
            chan = ShipChannel(
                "chan", t, timing=ShipTiming(base_latency=ns(20)))
            chan.fault_injector = LinkFaultInjector(
                plan,
                drop=FaultRule(probability=0.3),
                corrupt=FaultRule(probability=0.3),
            )
            tx = chan.claim_end("tx")
            rx = chan.claim_end("rx")

            def sender(chan=chan, tx=tx):
                for i in range(20):
                    yield from chan.send(tx, ShipInt(i))

            def receiver(chan=chan, rx=rx):
                while True:
                    yield from chan.recv(rx)

            c.register_thread(sender, "s")
            c.register_thread(receiver, "r")
            c.run(us(1000))
            logs.append([rec.line() for rec in plan.log])
        assert logs[0] == logs[1]
        assert len(logs[0]) > 0


class TestNoResponseSlave:
    def test_watchdog_catches_silent_slave(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        plan = FaultPlan(seed=1)
        mem = MemorySlave("mem", top, size=4096)
        silent = FaultySlave(
            "silent", top, target=mem, plan=plan,
            rule=FaultRule(every_nth=1), mode="no_response",
        )
        bus.attach_slave(silent, 0, 4096, localize=True)
        sock = bus.master_socket("m0")
        SimWatchdog("wd", top, timeout=us(5))

        def body():
            yield from sock.transport(
                OcpRequest(OcpCmd.RD, 0, burst_length=1))

        ctx.register_thread(body, "master_thread")
        with pytest.raises(WatchdogError) as err:
            ctx.run(us(1000))
        assert plan.count("slave.no_response") == 1
        # the hang report names the blocked master
        assert "master_thread" in str(err.value)

    def test_per_attempt_timeout_beats_stalling_slave(self, ctx, top):
        """A RetryingMaster with a per-attempt timeout survives a slave
        that stalls far past the deadline on its first request.  (A
        *no-response* transported slave hangs the bus data path itself —
        only the watchdog catches that, as the test above shows.)"""
        bus = GenericBus("bus", top, clock_period=ns(10))
        plan = FaultPlan(seed=1)
        mem = MemorySlave("mem", top, size=4096)
        stalling = FaultySlave(
            "stalling", top, target=mem, plan=plan,
            rule=FirstFires(1),
            mode="stall", stall=us(3),
        )
        bus.attach_slave(stalling, 0, 4096, localize=True)
        master = RetryingMaster(
            "rm", top, socket=bus.master_socket("m0"),
            policy=RetryPolicy(max_attempts=4, backoff=ns(100)),
            timeout=us(2), plan=plan,
        )
        out = []

        def body():
            resp = yield from master.transport(
                OcpRequest(OcpCmd.WR, 0, data=[42], burst_length=1))
            out.append(resp.ok)

        ctx.register_thread(body, "t")
        ctx.run(us(1000))
        assert out == [True]
        assert master.retries == 1
        assert master.recoveries == 1
        assert plan.count("slave.stall") == 1
        assert mem.peek_word(0) == 42


class TestRetryBackoff:
    def test_retry_converges_after_transient_errors(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        plan = FaultPlan(seed=1)
        mem = MemorySlave("mem", top, size=4096)
        flaky = FaultySlave(
            "flaky", top, target=mem, plan=plan,
            rule=FirstFires(2), mode="error",
        )
        bus.attach_slave(flaky, 0, 4096, localize=True)
        master = RetryingMaster(
            "rm", top, socket=bus.master_socket("m0"),
            policy=RetryPolicy(max_attempts=4, backoff=ns(200),
                               exponential=True),
            plan=plan,
        )
        done = []

        def body():
            resp = yield from master.transport(
                OcpRequest(OcpCmd.WR, 0, data=[7], burst_length=1))
            done.append((resp.ok, ctx.now))

        ctx.register_thread(body, "t")
        ctx.run(us(1000))
        assert done and done[0][0]
        assert master.retries == 2
        # exponential schedule really spaced the attempts: the two
        # backoffs alone are 200ns + 400ns
        assert done[0][1] >= ns(600)
        assert mem.peek_word(0) == 7

    def test_exhausted_retries_fail_loudly(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        plan = FaultPlan(seed=1)
        mem = MemorySlave("mem", top, size=4096)
        dead = FaultySlave(
            "dead", top, target=mem, plan=plan,
            rule=FaultRule(every_nth=1), mode="error",
        )
        bus.attach_slave(dead, 0, 4096, localize=True)
        master = RetryingMaster(
            "rm", top, socket=bus.master_socket("m0"),
            policy=RetryPolicy(max_attempts=3, backoff=ns(50)),
            plan=plan,
        )

        def body():
            yield from master.transport(
                OcpRequest(OcpCmd.RD, 0, burst_length=1))

        ctx.register_thread(body, "t")
        with pytest.raises(RetryExhaustedError, match="3 attempt"):
            ctx.run(us(1000))
        assert master.exhausted == 1
        assert plan.count("retry.exhausted") == 1

    def test_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=5, backoff=ns(100),
                             exponential=True, max_backoff=ns(300))
        delays = [policy.delay_for(n) for n in (1, 2, 3, 4)]
        assert delays == [ns(100), ns(200), ns(300), ns(300)]


class TestBusInjector:
    @pytest.mark.parametrize("fabric", ["plb", "generic", "crossbar"])
    def test_point_bus_faults_apply_on_every_fabric(self, fabric):
        """A point's bus-error rate reaches its masters whatever the
        fabric: the crossbar shares its injector with every path."""
        from repro.explore import (
            ArchitectureConfig,
            FaultSpec,
            MasterTrafficSpec,
            run_point,
        )

        specs = (
            MasterTrafficSpec(name="m0", pattern="stream", base=0x0000,
                              size=4096, transactions=30),
            MasterTrafficSpec(name="m1", pattern="random", base=0x2000,
                              size=4096, transactions=30, priority=1),
        )
        result = run_point(ArchitectureConfig(fabric=fabric), specs,
                           max_sim_time=us(500),
                           faults=FaultSpec(seed=1, bus_error_rate=0.2))
        errors = [m.errors for m in result.masters]
        assert all(errors), errors
        assert result.fault_plan.count("bus.error") == sum(errors)

    def test_forced_errors_and_decode_misses_reach_master(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        plan = FaultPlan(seed=1)
        bus.fault_injector = BusFaultInjector(
            plan,
            error=FaultRule(every_nth=4),
            decode=FaultRule(every_nth=5),
        )
        mem = MemorySlave("mem", top, size=4096, read_wait=0,
                          write_wait=0)
        bus.attach_slave(mem, 0, 4096)
        sock = bus.master_socket("m0")
        errors = []

        def body():
            for i in range(20):
                resp = yield from sock.transport(
                    OcpRequest(OcpCmd.WR, 0, data=[i], burst_length=1))
                errors.append(not resp.ok)

        ctx.register_thread(body, "t")
        ctx.run(us(100))
        injected = plan.count("bus.error") + plan.count("bus.decode_miss")
        assert injected > 0
        assert sum(errors) == injected


class TestMemoryFaults:
    def test_seeded_bit_flips_are_reproducible(self, ctx, top):
        logs = []
        for attempt in range(2):
            c = type(ctx)()
            t = Module("top", ctx=c)
            plan = FaultPlan(seed=9)
            mem = MemorySlave("mem", t, size=4096)
            inj = MemoryFaultInjector(
                "seu", t, memory=mem, plan=plan, period=ns(100),
                max_flips=4,
            )
            c.run(us(1))
            assert inj.flips == 4
            logs.append([rec.line() for rec in plan.log])
        assert logs[0] == logs[1]
        assert len(logs[0]) == 4

    def test_flip_is_observable_through_the_bus(self, ctx, top):
        plan = FaultPlan(seed=1)
        mem = MemorySlave("mem", top, size=16, word_bytes=4)
        mem.load_words(0, [0, 0, 0, 0])
        inj = MemoryFaultInjector(
            "seu", top, memory=mem, plan=plan, period=ns(10),
            max_flips=1,
        )
        ctx.run(us(1))
        assert inj.flips == 1
        flipped = [mem.peek_word(a) for a in (0, 4, 8, 12)]
        assert sum(1 for w in flipped if w != 0) == 1


class TestFaultsOffByDefault:
    def test_no_fault_rule_evaluated_without_an_injector(
            self, ctx, top, monkeypatch):
        """Fault injection is opt-in and free when off: channels and
        buses start without an injector, and a bus-plus-SHIP workload
        then never evaluates a fault rule."""
        chan = ShipChannel("chan", top)
        bus = GenericBus("bus", top, clock_period=ns(10))
        assert chan.fault_injector is None
        assert bus.fault_injector is None

        def bomb(self, *args, **kwargs):
            raise AssertionError("fault rule evaluated")

        monkeypatch.setattr(FaultRule, "matches", bomb)
        mem = MemorySlave("mem", top, size=4096)
        bus.attach_slave(mem, 0, 4096)
        sock = bus.master_socket("m0")
        tx = chan.claim_end("tx")
        rx = chan.claim_end("rx")
        written, received = [], []

        def master():
            for i in range(20):
                resp = yield from sock.transport(
                    OcpRequest(OcpCmd.WR, 0, data=[i], burst_length=1))
                written.append(resp.ok)
                yield from chan.send(tx, ShipInt(i))

        def sink():
            while True:
                msg = yield from chan.recv(rx)
                received.append(msg.value)

        ctx.register_thread(master, "m")
        ctx.register_thread(sink, "s")
        ctx.run()
        assert written == [True] * 20
        assert received == list(range(20))


class TestCampaignReproducibility:
    def test_same_seed_same_digest_and_metrics(self):
        first = run_campaign(seed=5)
        second = run_campaign(seed=5)
        assert first.plan.digest() == second.plan.digest()
        assert first.summary() == second.summary()
        fault_metrics = {
            k: v for k, v in first.metrics.snapshot().items()
            if k.startswith("fault.")
        }
        assert fault_metrics == {
            k: v for k, v in second.metrics.snapshot().items()
            if k.startswith("fault.")
        }
        assert first.plan.count() > 0

    def test_different_seed_different_campaign(self):
        assert (run_campaign(seed=5).plan.digest()
                != run_campaign(seed=6).plan.digest())

    def test_golden_file_matches(self):
        import pathlib

        golden = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks" / "golden_fault_campaign.txt"
        )
        assert golden.exists(), "golden fault campaign summary missing"
        assert run_campaign(seed=1).summary() == golden.read_text()

    @pytest.mark.parametrize("argv", [
        ["--sweep", "--workers", "x"],
        ["--sweep", "--workers", "0"],
        ["--sweep", "--workers", "-2"],
        ["--check", "missing.txt"],
        ["--workers", "3"],  # a worker count without --sweep
    ])
    def test_cli_usage_error_exits_before_running(self, argv, tmp_path,
                                                 monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before rejecting the arguments")

        monkeypatch.setattr(campaign, "run_campaign", must_not_run)
        monkeypatch.setattr(campaign, "run_sweep", must_not_run)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            campaign.main(argv)
        assert exc.value.code == 2
