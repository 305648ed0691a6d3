"""Unit tests for OCP types, blocking transport, and pin-level adapters."""

import pytest

from repro.kernel import Clock, Module, ns, us
from repro.ocp import (
    BurstSeq,
    OcpCmd,
    OcpMasterPort,
    OcpPinBundle,
    OcpPinMaster,
    OcpPinSlave,
    OcpRequest,
    OcpResp,
    OcpResponse,
    OcpTargetIf,
)


class FunctionalMemory(OcpTargetIf):
    """Minimal zero-time OCP memory for tests."""

    def __init__(self):
        self.words = {}
        self.requests = []

    def transport(self, req):
        if False:
            yield
        return self.access(req)

    def access(self, req):
        self.requests.append(req)
        if req.cmd.is_write:
            for i in range(req.burst_length):
                self.words[req.beat_address(i)] = req.data[i]
            return OcpResponse.write_ok()
        return OcpResponse.read_ok(
            [self.words.get(req.beat_address(i), 0)
             for i in range(req.burst_length)]
        )


class TestOcpTypes:
    def test_idle_request_rejected(self):
        with pytest.raises(ValueError):
            OcpRequest(OcpCmd.IDLE, 0)

    def test_write_data_length_checked(self):
        with pytest.raises(ValueError):
            OcpRequest(OcpCmd.WR, 0, data=[1, 2], burst_length=3)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            OcpRequest(OcpCmd.RD, -4)

    def test_zero_burst_rejected(self):
        with pytest.raises(ValueError):
            OcpRequest(OcpCmd.RD, 0, burst_length=0)

    def test_incr_beat_addresses(self):
        req = OcpRequest(OcpCmd.RD, 0x100, burst_length=4)
        assert [req.beat_address(i) for i in range(4)] == [
            0x100, 0x104, 0x108, 0x10C
        ]

    def test_stream_beat_addresses(self):
        req = OcpRequest(OcpCmd.RD, 0x100, burst_length=3,
                         burst_seq=BurstSeq.STRM)
        assert {req.beat_address(i) for i in range(3)} == {0x100}

    def test_wrap_beat_addresses(self):
        req = OcpRequest(OcpCmd.RD, 0x108, burst_length=4,
                         burst_seq=BurstSeq.WRAP)
        assert [req.beat_address(i) for i in range(4)] == [
            0x108, 0x10C, 0x100, 0x104
        ]

    def test_beat_out_of_range(self):
        req = OcpRequest(OcpCmd.RD, 0, burst_length=2)
        with pytest.raises(ValueError):
            req.beat_address(2)

    def test_nbytes(self):
        req = OcpRequest(OcpCmd.RD, 0, burst_length=4)
        assert req.nbytes == 16

    def test_cmd_predicates(self):
        assert OcpCmd.RD.is_read and not OcpCmd.RD.is_write
        assert OcpCmd.WR.is_write and not OcpCmd.WR.is_read
        assert OcpCmd.WRNP.is_write
        assert OcpCmd.RDEX.is_read

    def test_response_helpers(self):
        assert OcpResponse.write_ok().ok
        assert OcpResponse.read_ok([1]).data == [1]
        assert not OcpResponse.error().ok


class TestMasterPort:
    def test_read_write_conveniences(self, ctx, top):
        mem = FunctionalMemory()
        port = OcpMasterPort("p", top)
        port.bind(mem)
        results = []

        def body():
            r = yield from port.write(0x10, [1, 2, 3])
            results.append(r.resp)
            r = yield from port.read(0x10, burst_length=3)
            results.append(r.data)

        ctx.register_thread(body, "t")
        ctx.run()
        assert results == [OcpResp.DVA, [1, 2, 3]]

    def test_master_id_annotated(self, ctx, top):
        mem = FunctionalMemory()
        port = OcpMasterPort("p", top)
        port.bind(mem)

        def body():
            yield from port.write(0, 5)

        ctx.register_thread(body, "t")
        ctx.run()
        assert mem.requests[0].master_id == "top.p"


class TestPinLevel:
    def _build(self, ctx, top, accept_latency=0):
        clk = Clock("clk", top, period=ns(10))
        bundle = OcpPinBundle("ocp", top, clock=clk)
        mem = FunctionalMemory()
        OcpPinSlave("slave", top, bundle=bundle, target=mem,
                    accept_latency=accept_latency)
        master = OcpPinMaster("master", top, bundle=bundle)
        return clk, bundle, mem, master

    def test_write_read_round_trip(self, ctx, top):
        clk, bundle, mem, master = self._build(ctx, top)
        results = []

        def body():
            r = yield from master.transport(
                OcpRequest(OcpCmd.WR, 0x40, data=[9, 8], burst_length=2)
            )
            results.append(r.resp)
            r = yield from master.transport(
                OcpRequest(OcpCmd.RD, 0x40, burst_length=2)
            )
            results.append(r.data)
            ctx.stop()

        ctx.register_thread(body, "t")
        ctx.run(us(10))
        assert results == [OcpResp.DVA, [9, 8]]

    def test_transfer_is_cycle_paced(self, ctx, top):
        """An N-beat write takes at least N clock cycles on the pins."""
        clk, bundle, mem, master = self._build(ctx, top)
        times = {}

        def body():
            times["start"] = ctx.now
            yield from master.transport(
                OcpRequest(OcpCmd.WR, 0, data=list(range(8)),
                           burst_length=8)
            )
            times["end"] = ctx.now
            ctx.stop()

        ctx.register_thread(body, "t")
        ctx.run(us(10))
        elapsed_cycles = (times["end"] - times["start"]) // ns(10)
        assert elapsed_cycles >= 8

    def test_accept_latency_stalls_first_beat(self, ctx, top):
        clk, bundle, mem, fast_master = self._build(ctx, top)
        done = {}

        def body():
            yield from fast_master.transport(
                OcpRequest(OcpCmd.WR, 0, data=[1], burst_length=1)
            )
            done["fast"] = ctx.now
            ctx.stop()

        ctx.register_thread(body, "t")
        ctx.run(us(10))

        ctx2 = type(ctx)()
        top2 = Module("top", ctx=ctx2)
        clk2 = Clock("clk", top2, period=ns(10))
        bundle2 = OcpPinBundle("ocp", top2, clock=clk2)
        mem2 = FunctionalMemory()
        OcpPinSlave("slave", top2, bundle=bundle2, target=mem2,
                    accept_latency=3)
        master2 = OcpPinMaster("master", top2, bundle=bundle2)

        def body2():
            yield from master2.transport(
                OcpRequest(OcpCmd.WR, 0, data=[1], burst_length=1)
            )
            done["slow"] = ctx2.now
            ctx2.stop()

        ctx2.register_thread(body2, "t")
        ctx2.run(us(10))
        assert done["slow"] - done["fast"] >= ns(30)

    def test_wrnp_gets_response_beat(self, ctx, top):
        clk, bundle, mem, master = self._build(ctx, top)
        results = []

        def body():
            r = yield from master.transport(
                OcpRequest(OcpCmd.WRNP, 0x4, data=[5], burst_length=1)
            )
            results.append(r.resp)
            ctx.stop()

        ctx.register_thread(body, "t")
        ctx.run(us(10))
        assert results == [OcpResp.DVA]
        assert mem.words[0x4] == 5

    def test_concurrent_masters_serialize_on_mutex(self, ctx, top):
        clk, bundle, mem, master = self._build(ctx, top)
        order = []

        def m1():
            yield from master.transport(
                OcpRequest(OcpCmd.WR, 0, data=[1, 1], burst_length=2)
            )
            order.append("m1")

        def m2():
            yield from master.transport(
                OcpRequest(OcpCmd.WR, 8, data=[2, 2], burst_length=2)
            )
            order.append("m2")
            ctx.stop()

        ctx.register_thread(m1, "m1")
        ctx.register_thread(m2, "m2")
        ctx.run(us(10))
        assert order == ["m1", "m2"]
        assert mem.words[0x0] == 1 and mem.words[0x8] == 2

    def test_missing_target_yields_error_response(self, ctx, top):
        clk = Clock("clk", top, period=ns(10))
        bundle = OcpPinBundle("ocp", top, clock=clk)
        OcpPinSlave("slave", top, bundle=bundle, target=None)
        master = OcpPinMaster("master", top, bundle=bundle)
        results = []

        def body():
            r = yield from master.transport(
                OcpRequest(OcpCmd.WRNP, 0, data=[1], burst_length=1)
            )
            results.append(r.resp)
            ctx.stop()

        ctx.register_thread(body, "t")
        ctx.run(us(10))
        assert results == [OcpResp.ERR]
