"""Unit tests for the extended CAM library: AHB and automatic burst
splitting."""

import pytest

from repro.kernel import SimulationError, ns
from repro.cam import (
    AHB_MAX_BURST,
    AhbBus,
    GenericBus,
    MemorySlave,
)
from repro.ocp import OcpCmd, OcpRequest, OcpResp


def wr(addr, n=1, value=1):
    return OcpRequest(OcpCmd.WR, addr, data=[value] * n, burst_length=n)


def rd(addr, n=1):
    return OcpRequest(OcpCmd.RD, addr, burst_length=n)


class TestAhb:
    def test_timing_single_transaction(self, ctx, top):
        ahb = AhbBus("ahb", top)
        mem = MemorySlave("m", top, size=4096, read_wait=1, write_wait=1)
        ahb.attach_slave(mem, 0, 4096)
        out = []
        sock = ahb.master_socket("m0")

        def body():
            yield from sock.transport(rd(0, 4))
            out.append(str(ctx.now))

        ctx.register_thread(body, "t")
        ctx.run()
        # 2 cmd + 1 wait + 4 beats = 7 cycles
        assert out == ["70 ns"]

    def test_single_data_path_serializes_read_and_write(self, ctx, top):
        """The structural PLB-vs-AHB difference: no split R/W buses."""
        ahb = AhbBus("ahb", top)
        mem = MemorySlave("m", top, size=4096, read_wait=0, write_wait=0)
        ahb.attach_slave(mem, 0, 4096)
        done = []

        def make(sock, req, tag):
            def body():
                yield from sock.transport(req)
                done.append((tag, str(ctx.now)))
            return body

        ctx.register_thread(
            make(ahb.master_socket("w"), wr(0, 8), "w"), "w")
        ctx.register_thread(
            make(ahb.master_socket("r"), rd(0x100, 8), "r"), "r")
        ctx.run()
        # write: cmd 0-20, data 20-100; read: cmd 20-40, data 100-180
        assert done == [("w", "100 ns"), ("r", "180 ns")]

    def test_burst_split_at_ahb_limit(self, ctx, top):
        ahb = AhbBus("ahb", top)
        mem = MemorySlave("m", top, size=4096, read_wait=0, write_wait=0)
        ahb.attach_slave(mem, 0, 4096)
        sock = ahb.master_socket("m0")
        out = []

        def body():
            data = list(range(AHB_MAX_BURST * 2 + 3))
            resp = yield from sock.transport(
                OcpRequest(OcpCmd.WR, 0, data=data,
                           burst_length=len(data))
            )
            out.append(resp.resp)
            resp = yield from sock.transport(rd(0, len(data)))
            out.append(resp.data == data)

        ctx.register_thread(body, "t")
        ctx.run()
        assert out == [OcpResp.DVA, True]
        assert ahb.stats.transactions == 6  # 3 write + 3 read chunks

    def test_round_robin_default(self, ctx, top):
        ahb = AhbBus("ahb", top)
        assert ahb.arbiter.name == "round-robin"


class TestBurstSplitting:
    def test_generic_bus_unlimited_by_default(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        mem = MemorySlave("m", top, size=4096, read_wait=0, write_wait=0)
        bus.attach_slave(mem, 0, 4096)
        sock = bus.master_socket("m0")
        out = []

        def body():
            resp = yield from sock.transport(wr(0, 64))
            out.append(resp.resp)

        ctx.register_thread(body, "t")
        ctx.run()
        assert out == [OcpResp.DVA]
        assert bus.stats.transactions == 1
        assert sock.split_transactions == 0

    def test_split_preserves_addressing(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        bus.max_burst = 4
        mem = MemorySlave("m", top, size=4096, read_wait=0, write_wait=0)
        bus.attach_slave(mem, 0, 4096)
        sock = bus.master_socket("m0")
        out = []

        def body():
            data = list(range(10))
            yield from sock.transport(
                OcpRequest(OcpCmd.WR, 0x40, data=data, burst_length=10)
            )
            resp = yield from sock.transport(rd(0x40, 10))
            out.append(resp.data)

        ctx.register_thread(body, "t")
        ctx.run()
        assert out == [list(range(10))]
        # 10 beats at max 4 -> 3 sub-bursts each way
        assert bus.stats.transactions == 6

    def test_split_error_propagates(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        bus.max_burst = 4
        mem = MemorySlave("m", top, size=32, read_wait=0, write_wait=0)
        bus.attach_slave(mem, 0, 32)
        sock = bus.master_socket("m0")
        out = []

        def body():
            # 10 beats starting at 0: the second chunk runs off the end
            resp = yield from sock.transport(rd(0, 10))
            out.append(resp.resp)

        ctx.register_thread(body, "t")
        ctx.run()
        assert out == [OcpResp.ERR]

    def test_invalid_max_burst_rejected(self, ctx, top):
        from repro.cam import BusCam

        with pytest.raises(SimulationError, match="max_burst"):
            BusCam("bad", top, clock_period=ns(10), max_burst=0)
