"""Unit tests for the CoreConnect CAM library (PLB, OPB)."""

import pytest

from repro.kernel import SimulationError, ns
from repro.cam import (
    MemorySlave,
    OpbBus,
    PLB_MAX_BURST,
    PlbBus,
)
from repro.ocp import OcpCmd, OcpRequest, OcpResp


def wr(addr, n=1):
    return OcpRequest(OcpCmd.WR, addr, data=[7] * n, burst_length=n)


def rd(addr, n=1):
    return OcpRequest(OcpCmd.RD, addr, burst_length=n)


class TestPlb:
    def test_defaults(self, ctx, top):
        plb = PlbBus("plb", top)
        assert plb.clock_period == ns(10)
        assert plb.timing.pipelined
        assert plb.timing.split_rw

    def test_oversize_burst_split_automatically(self, ctx, top):
        """The socket re-chunks long transfers into PLB-legal bursts."""
        plb = PlbBus("plb", top)
        mem = MemorySlave("m", top, size=1 << 12, read_wait=0,
                          write_wait=0)
        plb.attach_slave(mem, 0, 1 << 12)
        sock = plb.master_socket("m0")
        out = []

        def body():
            data = list(range(PLB_MAX_BURST + 9))
            resp = yield from sock.transport(
                OcpRequest(OcpCmd.WR, 0, data=data,
                           burst_length=len(data))
            )
            assert resp.ok
            resp = yield from sock.transport(
                rd(0, PLB_MAX_BURST + 9)
            )
            out.append(resp.data)

        ctx.register_thread(body, "t")
        ctx.run()
        assert out == [list(range(PLB_MAX_BURST + 9))]
        # two transactions were split: two sub-bursts each
        assert sock.split_transactions == 2
        assert plb.stats.transactions == 4

    def test_wrap_burst_cannot_be_split(self, ctx, top):
        from repro.ocp import BurstSeq

        plb = PlbBus("plb", top)
        mem = MemorySlave("m", top, size=1 << 12, read_wait=0,
                          write_wait=0)
        plb.attach_slave(mem, 0, 1 << 12)
        sock = plb.master_socket("m0")

        def body():
            yield from sock.transport(
                OcpRequest(OcpCmd.RD, 0,
                           burst_length=PLB_MAX_BURST + 1,
                           burst_seq=BurstSeq.WRAP)
            )

        ctx.register_thread(body, "t")
        with pytest.raises(SimulationError, match="cannot split"):
            ctx.run()

    def test_max_burst_allowed(self, ctx, top):
        plb = PlbBus("plb", top)
        mem = MemorySlave("m", top, size=1 << 12, read_wait=0,
                          write_wait=0)
        plb.attach_slave(mem, 0, 1 << 12)
        sock = plb.master_socket("m0")
        out = []

        def body():
            resp = yield from sock.transport(rd(0, PLB_MAX_BURST))
            out.append((resp.resp, str(ctx.now)))

        ctx.register_thread(body, "t")
        ctx.run()
        # 2 cmd + 16 beats = 18 cycles
        assert out == [(OcpResp.DVA, "180 ns")]


class TestOpb:
    def test_slower_clock_and_no_pipelining(self, ctx, top):
        opb = OpbBus("opb", top)
        assert opb.clock_period == ns(20)
        assert not opb.timing.pipelined

    def test_single_transfer_timing(self, ctx, top):
        opb = OpbBus("opb", top)
        mem = MemorySlave("m", top, size=4096, read_wait=0, write_wait=0)
        opb.attach_slave(mem, 0, 4096)
        out = []
        sock = opb.master_socket("m0")

        def body():
            yield from sock.transport(wr(0, 1))
            out.append(str(ctx.now))

        ctx.register_thread(body, "t")
        ctx.run()
        # 3 cycles at 20 ns
        assert out == ["60 ns"]
