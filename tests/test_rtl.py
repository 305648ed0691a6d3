"""Unit tests for the RTL substrate: bus core, accessors."""

import pytest

from repro.kernel import Clock, ns, us
from repro.cam import BusTiming, MemorySlave
from repro.ocp import OcpCmd, OcpRequest, OcpResp
from repro.rtl import RtlBusCore
from repro.accessors import build_prototype


def wr(addr, n=1, data=None):
    return OcpRequest(OcpCmd.WR, addr,
                      data=data or [1] * n, burst_length=n)


def rd(addr, n=1):
    return OcpRequest(OcpCmd.RD, addr, burst_length=n)


class TestRtlBusCore:
    def _core(self, ctx, top, pipelined=True, split_rw=True):
        clk = Clock("clk", top, period=ns(10))
        core = RtlBusCore(
            "core", top, clock=clk,
            timing=BusTiming(arb_cycles=1, addr_cycles=1,
                             cycles_per_beat=1, pipelined=pipelined,
                             split_rw=split_rw),
        )
        mem = MemorySlave("mem", top, size=4096, read_wait=1,
                          write_wait=1)
        core.attach_slave(mem, 0, 4096)
        return clk, core, mem

    def test_single_write_functional(self, ctx, top):
        clk, core, mem = self._core(ctx, top)
        port = core.master_socket("m0")
        results = []

        def body():
            resp = yield from port.transport(wr(0x10, 2, data=[3, 4]))
            results.append(resp.resp)
            ctx.stop()

        ctx.register_thread(body, "t")
        ctx.run(us(100))
        assert results == [OcpResp.DVA]
        assert mem.peek_word(0x10) == 3 and mem.peek_word(0x14) == 4

    def test_cycle_count_matches_ccatb_formula(self, ctx, top):
        """RTL bus transaction duration tracks arb+addr+wait+beats."""
        clk, core, mem = self._core(ctx, top)
        port = core.master_socket("m0")
        timeline = {}

        def body():
            timeline["start"] = ctx.now
            yield from port.transport(rd(0, 8))
            timeline["end"] = ctx.now
            ctx.stop()

        ctx.register_thread(body, "t")
        ctx.run(us(100))
        cycles = (timeline["end"] - timeline["start"]) // ns(10)
        # CCATB predicts 2 + 1 + 8 = 11 cycles; allow +-2 cycles of
        # request/latch synchronization skew
        assert 11 <= cycles <= 13

    def test_decode_error(self, ctx, top):
        clk, core, mem = self._core(ctx, top)
        port = core.master_socket("m0")
        results = []

        def body():
            resp = yield from port.transport(rd(0x100000))
            results.append(resp.resp)
            ctx.stop()

        ctx.register_thread(body, "t")
        ctx.run(us(100))
        assert results == [OcpResp.ERR]

    def test_double_submit_rejected(self, ctx, top):
        from repro.kernel import SimulationError

        clk, core, mem = self._core(ctx, top)
        port = core.master_socket("m0")
        port.submit(rd(0))
        with pytest.raises(SimulationError, match="already pending"):
            port.submit(rd(4))

    def test_priority_arbitration(self, ctx, top):
        clk, core, mem = self._core(ctx, top)
        hi = core.master_socket("hi", priority=0)
        lo = core.master_socket("lo", priority=5)
        order = []

        def make(port, tag):
            def body():
                yield from port.transport(wr(0, 4))
                order.append(tag)
            return body

        ctx.register_thread(make(lo, "lo"), "lo")
        ctx.register_thread(make(hi, "hi"), "hi")

        def stopper():
            yield us(2)
            ctx.stop()

        ctx.register_thread(stopper, "s")
        ctx.run(us(10))
        assert order[0] == "hi"

    def test_cycles_counted(self, ctx, top):
        clk, core, mem = self._core(ctx, top)
        port = core.master_socket("m0")

        def body():
            yield from port.transport(wr(0, 1))
            ctx.stop()

        ctx.register_thread(body, "t")
        ctx.run(us(100))
        assert core.cycles > 0
        assert core.transactions_completed == 1
        assert 0.0 <= core.utilization() <= 1.0

    def test_requires_functional_slaves(self, ctx, top):
        from repro.kernel import ElaborationError

        clk = Clock("clk", top, period=ns(10))
        core = RtlBusCore("core", top, clock=clk)
        with pytest.raises(ElaborationError, match="functional"):
            core.attach_slave(object(), 0, 64)


class TestPrototype:
    def test_full_prototype_write_read(self, ctx, top):
        clk = Clock("clk", top, period=ns(10))
        mem = MemorySlave("mem", top, size=4096, read_wait=1,
                          write_wait=1)
        proto = build_prototype("proto", top, clk, fabric="plb")
        proto.attach_slave(mem, 0, 4096)
        master = proto.master_socket("pe")
        results = []

        def body():
            yield from master.transport(wr(0x40, 2, data=[8, 9]))
            resp = yield from master.transport(rd(0x40, 2))
            results.append(resp.data)
            ctx.stop()

        ctx.register_thread(body, "t")
        ctx.run(us(100))
        assert results == [[8, 9]]
        assert proto.accessors["pe"].bursts >= 1
        assert proto.core.transactions_completed == 2

    def test_two_pes_share_fabric(self, ctx, top):
        clk = Clock("clk", top, period=ns(10))
        mem = MemorySlave("mem", top, size=8192, read_wait=0,
                          write_wait=0)
        proto = build_prototype("proto", top, clk, fabric="plb")
        proto.attach_slave(mem, 0, 8192)
        m0 = proto.master_socket("pe0", priority=0)
        m1 = proto.master_socket("pe1", priority=1)
        done = []

        def make(master, base, tag):
            def body():
                yield from master.transport(wr(base, 4, data=[tag] * 4))
                done.append(tag)
            return body

        def drain():
            # Writes are posted: wait for the fabric to commit both
            # before stopping the simulation.
            while proto.core.transactions_completed < 2:
                yield clk.posedge_event
            ctx.stop()

        ctx.register_thread(make(m0, 0x0, 1), "b0")
        ctx.register_thread(make(m1, 0x1000, 2), "b1")
        ctx.register_thread(drain, "drain")
        ctx.run(us(100))
        assert sorted(done) == [1, 2]
        assert mem.peek_word(0x0) == 1
        assert mem.peek_word(0x1000) == 2

    def test_unknown_fabric_rejected(self, ctx, top):
        clk = Clock("clk", top, period=ns(10))
        with pytest.raises(ValueError, match="unknown fabric"):
            build_prototype("p", top, clk, fabric="hyperbus")

    def test_opb_fabric_variant(self, ctx, top):
        clk = Clock("clk", top, period=ns(20))
        mem = MemorySlave("mem", top, size=4096, read_wait=0,
                          write_wait=0)
        proto = build_prototype("proto", top, clk, fabric="opb")
        proto.attach_slave(mem, 0, 4096)
        master = proto.master_socket("pe")
        results = []

        def body():
            resp = yield from master.transport(wr(0, 1, data=[5]))
            results.append(resp.resp)
            ctx.stop()

        ctx.register_thread(body, "t")
        ctx.run(us(100))
        assert results == [OcpResp.DVA]
        assert not proto.core.timing.pipelined
