"""Unit tests for eSW generation: constraints, substitution, equivalence."""

import pytest

from repro.kernel import Event, Module, ns, us
from repro.models import ProcessingElement
from repro.ocp import OcpMasterPort
from repro.rtos import Rtos
from repro.ship import ShipChannel, ShipInt, ShipMasterPort, ShipSlavePort
from repro.esw import (
    CpuHeld,
    EswConstraintError,
    EswSynthesisError,
    ExecuteFor,
    PartitionSpec,
    generate_esw,
    pe_violations,
    synthesize_pe,
    validate_partition,
)


class PingPE(ProcessingElement):
    def __init__(self, name, parent, chan, count=3, log=None):
        super().__init__(name, parent)
        self.count = count
        self.log = log if log is not None else []
        self.port = self.ship_port("port", ShipMasterPort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        for i in range(self.count):
            yield ExecuteFor(us(1))
            reply = yield from self.port.request(ShipInt(i))
            self.log.append(reply.value)


class PongPE(ProcessingElement):
    def __init__(self, name, parent, chan):
        super().__init__(name, parent)
        self.port = self.ship_port("port", ShipSlavePort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        while True:
            req = yield from self.port.recv()
            yield ExecuteFor(us(2))
            yield from self.port.reply(ShipInt(req.value * 10))


def build_pair(ctx, top):
    chan = ShipChannel("chan", top)
    ping = PingPE("ping", top, chan)
    pong = PongPE("pong", top, chan)
    return ping, pong


class TestConstraints:
    def test_ship_only_pe_passes(self, ctx, top):
        ping, pong = build_pair(ctx, top)
        assert pe_violations(ping) == []

    def test_non_ship_port_detected(self, ctx, top):
        chan = ShipChannel("chan", top)

        class BadPE(ProcessingElement):
            def __init__(self, name, parent):
                super().__init__(name, parent)
                self.sp = self.ship_port("sp", ShipMasterPort)
                self.sp.bind(chan)
                self.bus = OcpMasterPort("bus", self, required=False)
                self.add_thread(self.run)

            def run(self):
                yield ns(1)

        bad = BadPE("bad", top)
        violations = pe_violations(bad)
        assert violations
        assert "non-SHIP ports" in violations[0]

    def test_pe_without_processes_detected(self, ctx, top):
        class Empty(ProcessingElement):
            pass

        empty = Empty("empty", top)
        assert any("no behaviour" in v for v in pe_violations(empty))

    def test_validate_partition_raises_with_all_violations(self, ctx, top):
        class Empty(ProcessingElement):
            pass

        e1 = Empty("e1", top)
        e2 = Empty("e2", top)
        spec = PartitionSpec(software=[e1, e2])
        with pytest.raises(EswConstraintError) as err:
            validate_partition(spec)
        assert len(err.value.violations) == 2

    def test_partition_priority_lookup(self, ctx, top):
        ping, pong = build_pair(ctx, top)
        spec = PartitionSpec(software=[ping], priorities={"ping": 3})
        assert spec.priority_of(ping) == 3
        assert spec.priority_of(pong) == 10


class TestSynthesis:
    def test_functional_equivalence_hw_vs_sw(self):
        from repro.kernel import SimContext

        def run(partition_sw):
            ctx = SimContext()
            top = Module("top", ctx=ctx)
            ping, pong = build_pair(ctx, top)
            if partition_sw:
                os = Rtos("os", top, context_switch=ns(100))
                spec = PartitionSpec(software=[ping, pong])
                generate_esw(spec, os)
            ctx.run(us(1000))
            return ping.log

        assert run(False) == run(True) == [0, 10, 20]

    def test_kernel_processes_rehosted_not_duplicated(self, ctx, top):
        ping, pong = build_pair(ctx, top)
        os = Rtos("os", top)
        count_before = len(ctx.processes)
        image = generate_esw(PartitionSpec(software=[ping]), os)
        # ping's thread removed, one RTOS task wrapper added
        assert len(ctx.processes) == count_before
        assert len(image.tasks) == 1
        assert image.tasks[0].pe_name == "top.ping"

    def test_substitution_counts(self, ctx, top):
        ping, pong = build_pair(ctx, top)
        os = Rtos("os", top)
        image = generate_esw(PartitionSpec(software=[ping, pong]), os)
        ctx.run(us(1000))
        subs = image.substitutions
        # ping: 3 ExecuteFor; pong: 3 ExecuteFor
        assert subs.executes == 6
        # every channel blocking wait went through the RTOS
        assert subs.event_waits > 0
        assert subs.total == subs.delays + subs.event_waits + subs.executes

    def test_serialized_cpu_time_accounted(self, ctx, top):
        ping, pong = build_pair(ctx, top)
        os = Rtos("os", top)
        image = generate_esw(PartitionSpec(software=[ping, pong]), os)
        ctx.run(us(1000))
        cpu = {t.task.name: t.task.cpu_time for t in image.tasks}
        assert cpu["ping_run"] == us(3)
        assert cpu["pong_run"] == us(6)

    def test_delays_substituted(self, ctx, top):
        class Sleeper(ProcessingElement):
            def __init__(self, name, parent):
                super().__init__(name, parent)
                self.add_thread(self.run)

            def run(self):
                yield us(5)

        sleeper = Sleeper("sleeper", top)
        os = Rtos("os", top)
        image = generate_esw(PartitionSpec(software=[sleeper]), os)
        ctx.run(us(100))
        assert image.substitutions.delays == 1

    def test_static_sensitivity_rejected(self, ctx, top):
        class Static(ProcessingElement):
            def __init__(self, name, parent):
                super().__init__(name, parent)
                self.add_thread(self.run)

            def run(self):
                yield None

        static = Static("static", top)
        os = Rtos("os", top)
        synthesize_pe(static, os)
        with pytest.raises(EswSynthesisError, match="static"):
            ctx.run(us(10))

    def test_method_process_pe_rejected(self, ctx, top):
        class Methody(ProcessingElement):
            def __init__(self, name, parent):
                super().__init__(name, parent)
                self.add_method(self.tick)

            def tick(self):
                pass

        pe = Methody("methody", top)
        os = Rtos("os", top)
        with pytest.raises(EswSynthesisError, match="thread"):
            synthesize_pe(pe, os)

    def test_synthesize_empty_pe_rejected(self, ctx, top):
        class Empty(ProcessingElement):
            pass

        os = Rtos("os", top)
        with pytest.raises(EswSynthesisError, match="no processes"):
            synthesize_pe(Empty("empty", top), os)


class TestExecuteFor:
    def test_behaves_as_wait_at_kernel_level(self, ctx, top):
        log = []

        def body():
            yield ExecuteFor(ns(30))
            log.append(str(ctx.now))

        ctx.register_thread(body, "t")
        ctx.run()
        assert log == ["30 ns"]


class TestCpuHeld:
    def test_waits_as_its_condition_at_kernel_level(self, ctx, top):
        ev = Event(ctx, "ev")
        log = []

        def body():
            woke = yield CpuHeld(ns(30))
            log.append((str(ctx.now), woke))
            woke = yield CpuHeld(ev)
            log.append((str(ctx.now), woke is ev))

        def kicker():
            yield ns(50)
            ev.notify()

        ctx.register_thread(body, "t")
        ctx.register_thread(kicker, "k")
        ctx.run()
        assert log == [("30 ns", None), ("50 ns", True)]

    @pytest.mark.parametrize("held,bg_done", [(True, "7 us"),
                                               (False, "2 us")])
    def test_rehosted_held_wait_keeps_the_cpu(self, ctx, top, held,
                                              bg_done):
        """A high-priority PE's CPU-held wait keeps a lower-priority
        task off the CPU; the same wait yielded bare lets it run."""
        log = []

        class Waiter(ProcessingElement):
            def __init__(self, name, parent):
                super().__init__(name, parent)
                self.add_thread(self.run)

            def run(self):
                yield CpuHeld(us(5)) if held else us(5)
                log.append(("waiter", str(ctx.now)))

        def background():
            yield from os.execute(us(2))
            log.append(("bg", str(ctx.now)))

        os = Rtos("os", top)
        image = generate_esw(
            PartitionSpec(software=[Waiter("waiter", top)],
                          priorities={"waiter": 1}), os)
        os.create_task(background, "bg", priority=20)
        ctx.run(us(100))
        assert ("waiter", "5 us") in log
        assert ("bg", bg_done) in log
        # the held wait goes to the kernel as is: no substitution
        assert image.substitutions.delays == (0 if held else 1)
