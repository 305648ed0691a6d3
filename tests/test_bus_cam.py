"""Unit tests for the CCATB bus engine: exact cycle-count timing."""

import pytest

from repro.kernel import ns, us
from repro.cam import (
    BusTiming,
    GenericBus,
    BusCam,
    MemorySlave,
    StaticPriorityArbiter,
)
from repro.ocp import OcpCmd, OcpRequest, OcpResp
from tests.test_obs_hooks import TransferLog


def wr(addr, n=1, **kw):
    return OcpRequest(OcpCmd.WR, addr, data=[0] * n, burst_length=n, **kw)


def rd(addr, n=1, **kw):
    return OcpRequest(OcpCmd.RD, addr, burst_length=n, **kw)


def drive(ctx, socket, requests, out):
    """Register a thread driving `requests` and appending (resp, time)."""

    def body():
        for req in requests:
            resp = yield from socket.transport(req)
            out.append((resp.resp, str(ctx.now)))

    ctx.register_thread(body, f"drv_{id(requests)}")


class TestNonPipelinedTiming:
    def test_single_transaction_cycle_formula(self, ctx, top):
        """latency = (arb + addr + wait + beats) * period, exactly."""
        bus = GenericBus("bus", top, clock_period=ns(10))
        mem = MemorySlave("m", top, size=4096, read_wait=2, write_wait=1)
        bus.attach_slave(mem, 0, 4096)
        out = []
        drive(ctx, bus.master_socket("m0"), [rd(0, 4)], out)
        ctx.run()
        # 1 arb + 1 addr + 2 wait + 4 beats = 8 cycles = 80 ns
        assert out == [(OcpResp.DVA, "80 ns")]

    def test_write_uses_write_wait(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        mem = MemorySlave("m", top, size=4096, read_wait=9, write_wait=0)
        bus.attach_slave(mem, 0, 4096)
        out = []
        drive(ctx, bus.master_socket("m0"), [wr(0, 2)], out)
        ctx.run()
        # 1 + 1 + 0 + 2 = 4 cycles
        assert out == [(OcpResp.DVA, "40 ns")]

    def test_back_to_back_serialize(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        mem = MemorySlave("m", top, size=4096, read_wait=0, write_wait=0)
        bus.attach_slave(mem, 0, 4096)
        out = []
        drive(ctx, bus.master_socket("m0"), [wr(0, 1), wr(4, 1)], out)
        ctx.run()
        # each txn: 1+1+1 = 3 cycles
        assert [t for _, t in out] == ["30 ns", "60 ns"]

    def test_two_masters_priority_order(self, ctx, top):
        bus = BusCam("bus", top, clock_period=ns(10),
                     timing=BusTiming(), arbiter=StaticPriorityArbiter())
        mem = MemorySlave("m", top, size=4096, read_wait=0, write_wait=0)
        bus.attach_slave(mem, 0, 4096)
        hi = bus.master_socket("hi", priority=0)
        lo = bus.master_socket("lo", priority=5)
        order = []

        def make(sock, tag):
            def body():
                yield from sock.transport(wr(0, 4))
                order.append((tag, str(ctx.now)))
            return body

        # register low first so only priority (not order) decides
        ctx.register_thread(make(lo, "lo"), "lo")
        ctx.register_thread(make(hi, "hi"), "hi")
        ctx.run()
        assert order[0][0] == "hi"
        # hi: 1+1+4 = 6 cycles; lo grants after hi: 6+6 = 12 cycles
        assert order == [("hi", "60 ns"), ("lo", "120 ns")]

    def test_grant_aligns_to_cycle_boundary(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        mem = MemorySlave("m", top, size=4096, read_wait=0, write_wait=0)
        bus.attach_slave(mem, 0, 4096)
        sock = bus.master_socket("m0")
        out = []

        def body():
            yield ns(13)  # mid-cycle request
            resp = yield from sock.transport(wr(0, 1))
            out.append(str(ctx.now))

        ctx.register_thread(body, "t")
        ctx.run()
        # aligned to 20ns, then 3 cycles -> 50ns
        assert out == ["50 ns"]


class TestPipelinedTiming:
    def _plb_like(self, top, split_rw=True):
        return BusCam(
            "bus", top, clock_period=ns(10),
            timing=BusTiming(arb_cycles=1, addr_cycles=1,
                             cycles_per_beat=1, pipelined=True,
                             split_rw=split_rw),
        )

    def test_single_transaction_same_formula(self, ctx, top):
        bus = self._plb_like(top)
        mem = MemorySlave("m", top, size=4096, read_wait=1, write_wait=1)
        bus.attach_slave(mem, 0, 4096)
        out = []
        drive(ctx, bus.master_socket("m0"), [rd(0, 4)], out)
        ctx.run()
        # 2 cmd + (1 wait + 4 beats) = 7 cycles
        assert out == [(OcpResp.DVA, "70 ns")]

    def test_address_pipelining_overlaps_commands(self, ctx, top):
        """Second transaction's command phase overlaps the first's data
        phase: completion spacing is data-limited, not latency-limited."""
        bus = self._plb_like(top, split_rw=False)
        mem = MemorySlave("m", top, size=4096, read_wait=0, write_wait=0)
        bus.attach_slave(mem, 0, 4096)
        s1 = bus.master_socket("m1")
        s2 = bus.master_socket("m2")
        done = []

        def make(sock, tag):
            def body():
                yield from sock.transport(wr(0, 8))
                done.append((tag, str(ctx.now)))
            return body

        ctx.register_thread(make(s1, "a"), "a")
        ctx.register_thread(make(s2, "b"), "b")
        ctx.run()
        # a: cmd 0-20, data 20-100. b: cmd 20-40, data 100-180.
        assert done == [("a", "100 ns"), ("b", "180 ns")]

    def test_split_rw_read_write_overlap(self, ctx, top):
        """With separate read/write paths a read and a write drain
        concurrently."""
        bus = self._plb_like(top, split_rw=True)
        mem = MemorySlave("m", top, size=4096, read_wait=0, write_wait=0)
        bus.attach_slave(mem, 0, 4096)
        s1 = bus.master_socket("w")
        s2 = bus.master_socket("r")
        done = []

        def writer():
            yield from s1.transport(wr(0, 8))
            done.append(("w", str(ctx.now)))

        def reader():
            yield from s2.transport(rd(0x100, 8))
            done.append(("r", str(ctx.now)))

        ctx.register_thread(writer, "w")
        ctx.register_thread(reader, "r")
        ctx.run()
        # w: cmd 0-20, data 20-100 (write channel)
        # r: cmd 20-40, data 40-120 (read channel, no contention)
        assert ("w", "100 ns") in done
        assert ("r", "120 ns") in done

    def test_same_direction_still_serializes(self, ctx, top):
        bus = self._plb_like(top, split_rw=True)
        mem = MemorySlave("m", top, size=4096, read_wait=0, write_wait=0)
        bus.attach_slave(mem, 0, 4096)
        s1 = bus.master_socket("r1")
        s2 = bus.master_socket("r2")
        done = []

        def make(sock, tag):
            def body():
                yield from sock.transport(rd(0, 8))
                done.append((tag, str(ctx.now)))
            return body

        ctx.register_thread(make(s1, "r1"), "r1")
        ctx.register_thread(make(s2, "r2"), "r2")
        ctx.run()
        assert done == [("r1", "100 ns"), ("r2", "180 ns")]


class TestDecodeAndErrors:
    def test_unmapped_address_error_response(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        mem = MemorySlave("m", top, size=4096)
        bus.attach_slave(mem, 0, 4096)
        out = []
        drive(ctx, bus.master_socket("m0"), [rd(0x10000)], out)
        ctx.run()
        assert out[0][0] is OcpResp.ERR

    def test_burst_straddling_regions_rejected(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        bus.attach_slave(MemorySlave("a", top, size=64), 0, 64)
        bus.attach_slave(MemorySlave("b", top, size=64), 64, 64)
        out = []
        drive(ctx, bus.master_socket("m0"), [rd(56, 4)], out)
        ctx.run()
        assert out[0][0] is OcpResp.ERR

    def test_overlapping_slave_ranges_rejected(self, ctx, top):
        from repro.kernel import ElaborationError

        bus = GenericBus("bus", top, clock_period=ns(10))
        bus.attach_slave(MemorySlave("a", top, size=128), 0, 128)
        with pytest.raises(ElaborationError, match="overlap"):
            bus.attach_slave(MemorySlave("b", top, size=128), 64, 128)

    def test_slave_exception_becomes_error_response(self, ctx, top):
        class Buggy:
            def access(self, req):
                raise RuntimeError("boom")

        bus = GenericBus("bus", top, clock_period=ns(10))
        bus.attach_slave(Buggy(), 0, 64, name="buggy")
        out = []
        drive(ctx, bus.master_socket("m0"), [rd(0)], out)
        ctx.run()
        assert out[0][0] is OcpResp.ERR
        assert [r for r in ctx.reporter.reports if r.message_type == "bus"]

    def test_slave_without_interface_rejected(self, ctx, top):
        from repro.kernel import ElaborationError

        bus = GenericBus("bus", top, clock_period=ns(10))
        with pytest.raises(ElaborationError, match="access"):
            bus.attach_slave(object(), 0, 64)


class TestLocalization:
    def test_functional_slave_sees_local_addresses(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        mem = MemorySlave("m", top, size=256)
        bus.attach_slave(mem, 0x4000, 256)
        out = []
        drive(ctx, bus.master_socket("m0"),
              [wr(0x4010, 1), rd(0x4010, 1)], out)
        ctx.run()
        assert mem.peek_word(0x10) == 0
        assert out[-1][0] is OcpResp.DVA

    def test_localize_override(self, ctx, top):
        seen = []

        class Spy:
            def access(self, req):
                from repro.ocp import OcpResponse

                seen.append(req.addr)
                return OcpResponse.write_ok()

        bus = GenericBus("bus", top, clock_period=ns(10))
        bus.attach_slave(Spy(), 0x1000, 256, name="spy", localize=False)
        out = []
        drive(ctx, bus.master_socket("m0"), [wr(0x1010, 1)], out)
        ctx.run()
        assert seen == [0x1010]


class TestStatsAndRecording:
    def test_stats_and_report(self, ctx, top):
        log = TransferLog()
        ctx.attach_observer(log)
        bus = GenericBus("bus", top, clock_period=ns(10))
        mem = MemorySlave("m", top, size=4096, read_wait=0, write_wait=0)
        bus.attach_slave(mem, 0, 4096)
        out = []
        drive(ctx, bus.master_socket("m0"), [wr(0, 4), rd(0, 4)], out)
        ctx.run()
        assert bus.stats.transactions == 2
        assert bus.stats.bytes == 32
        # 1 + 1 + 4 cycles each, reported as the bus completes them
        t60, t120 = ns(60).femtoseconds, ns(120).femtoseconds
        assert log.transfers == [
            ("top.bus", "wr", "m0", "data", 0, t60, 16, 4),
            ("top.bus", "rd", "m0", "data", t60, t120, 16, 4),
        ]

    def test_wait_state_overrides_at_attach(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        mem = MemorySlave("m", top, size=4096, read_wait=9, write_wait=9)
        bus.attach_slave(mem, 0, 4096, read_wait=0, write_wait=0)
        out = []
        drive(ctx, bus.master_socket("m0"), [rd(0, 1)], out)
        ctx.run()
        # overrides beat the slave's own wait states: 1+1+0+1 = 3 cycles
        assert out == [(OcpResp.DVA, "30 ns")]

    def test_utilization_window(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        mem = MemorySlave("m", top, size=4096, read_wait=0, write_wait=0)
        bus.attach_slave(mem, 0, 4096)
        out = []
        drive(ctx, bus.master_socket("m0"), [wr(0, 8)], out)
        ctx.run(us(10))
        # 8 busy data cycles in a 100ns active window
        assert bus.utilization(until=ns(100)) == pytest.approx(0.8)
