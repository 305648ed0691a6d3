"""Unit tests for the crossbar CAM."""

import pytest

from repro.kernel import ns
from repro.cam import CrossbarCam, MemorySlave
from repro.ocp import OcpCmd, OcpRequest, OcpResp


def wr(addr, n=1):
    return OcpRequest(OcpCmd.WR, addr, data=[1] * n, burst_length=n)


class TestCrossbarConcurrency:
    def _two_slave_xbar(self, ctx, top):
        xbar = CrossbarCam("x", top, clock_period=ns(10))
        for i in range(2):
            mem = MemorySlave(f"m{i}", top, size=4096,
                              read_wait=0, write_wait=0)
            xbar.attach_slave(mem, i * 4096, 4096)
        return xbar

    def test_different_slaves_run_in_parallel(self, ctx, top):
        xbar = self._two_slave_xbar(ctx, top)
        done = []

        def make(sock, addr, tag):
            def body():
                yield from sock.transport(wr(addr, 8))
                done.append((tag, str(ctx.now)))
            return body

        ctx.register_thread(
            make(xbar.master_socket("a"), 0, "a"), "a")
        ctx.register_thread(
            make(xbar.master_socket("b"), 4096, "b"), "b")
        ctx.run()
        # both finish at the single-master time: full parallelism
        assert done == [("a", "100 ns"), ("b", "100 ns")]

    def test_same_slave_serializes(self, ctx, top):
        xbar = self._two_slave_xbar(ctx, top)
        done = []

        def make(sock, tag):
            def body():
                yield from sock.transport(wr(0, 8))
                done.append((tag, str(ctx.now)))
            return body

        ctx.register_thread(make(xbar.master_socket("a"), "a"), "a")
        ctx.register_thread(make(xbar.master_socket("b"), "b"), "b")
        ctx.run()
        times = sorted(t for _, t in done)
        assert times[0] == "100 ns"
        assert times[1] == "200 ns"

    def test_decode_error_counted(self, ctx, top):
        xbar = self._two_slave_xbar(ctx, top)
        out = []

        def body():
            resp = yield from xbar.master_socket("a").transport(
                wr(0x100000, 1)
            )
            out.append((resp.resp, str(ctx.now)))

        ctx.register_thread(body, "t")
        ctx.run()
        # the miss costs one command phase, as on the shared buses
        assert out == [(OcpResp.ERR, "20 ns")]

    def test_overlapping_regions_rejected(self, ctx, top):
        from repro.kernel import ElaborationError

        xbar = CrossbarCam("x", top, clock_period=ns(10))
        xbar.attach_slave(MemorySlave("a", top, size=4096), 0, 4096)
        with pytest.raises(ElaborationError, match="overlap"):
            xbar.attach_slave(MemorySlave("b", top, size=4096), 2048, 4096)

    def test_socket_reuse_same_name(self, ctx, top):
        xbar = self._two_slave_xbar(ctx, top)
        s1 = xbar.master_socket("cpu")
        s2 = xbar.master_socket("cpu")
        assert s1 is s2
