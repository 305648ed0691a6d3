"""Unit tests for memory slave models."""

import pytest

from repro.kernel import ns
from repro.cam import MemorySlave
from repro.ocp import OcpCmd, OcpRequest, OcpResp


def wr(addr, data, **kw):
    return OcpRequest(OcpCmd.WR, addr, data=list(data),
                      burst_length=len(data), **kw)


def rd(addr, n=1, **kw):
    return OcpRequest(OcpCmd.RD, addr, burst_length=n, **kw)


class TestFunctionalAccess:
    def test_write_then_read(self, ctx, top):
        mem = MemorySlave("m", top, size=4096)
        assert mem.access(wr(0x10, [1, 2, 3])).ok
        resp = mem.access(rd(0x10, 3))
        assert resp.data == [1, 2, 3]
        assert mem.reads == 1 and mem.writes == 1

    def test_unwritten_words_read_zero(self, ctx, top):
        mem = MemorySlave("m", top, size=4096)
        assert mem.access(rd(0x100, 4)).data == [0, 0, 0, 0]

    def test_out_of_bounds_burst_rejected(self, ctx, top):
        mem = MemorySlave("m", top, size=64)
        assert mem.access(rd(60, 1)).ok
        assert mem.access(rd(64, 1)).resp is OcpResp.ERR
        assert mem.access(rd(56, 3)).resp is OcpResp.ERR

    def test_word_masking(self, ctx, top):
        mem = MemorySlave("m", top, size=64, word_bytes=4)
        mem.access(wr(0, [0x1_FFFF_FFFF]))
        assert mem.access(rd(0)).data == [0xFFFF_FFFF]

    def test_byte_enables_merge(self, ctx, top):
        mem = MemorySlave("m", top, size=64)
        mem.access(wr(0, [0xAABBCCDD]))
        mem.access(wr(0, [0x11223344], byte_en=0b0011))
        assert mem.access(rd(0)).data == [0xAABB3344]

    def test_load_and_peek_helpers(self, ctx, top):
        mem = MemorySlave("m", top, size=256)
        mem.load_words(0x20, [7, 8, 9])
        assert mem.peek_word(0x24) == 8
        assert mem.access(rd(0x20, 3)).data == [7, 8, 9]

    def test_wait_states_advertised(self, ctx, top):
        mem = MemorySlave("m", top, read_wait=3, write_wait=1)
        assert mem.wait_states(rd(0)) == 3
        assert mem.wait_states(wr(0, [1])) == 1

    def test_validation(self, ctx, top):
        with pytest.raises(ValueError):
            MemorySlave("bad", top, size=0)
        with pytest.raises(ValueError):
            MemorySlave("bad2", top, word_bytes=3)


class TestBlockingTransport:
    def test_transport_charges_wait_states(self, ctx, top):
        mem = MemorySlave("m", top, size=64, read_wait=4, cycle=ns(10))
        log = []

        def body():
            resp = yield from mem.transport(rd(0))
            log.append((resp.ok, str(ctx.now)))

        ctx.register_thread(body, "t")
        ctx.run()
        assert log == [(True, "40 ns")]

    def test_transport_without_cycle_is_zero_time(self, ctx, top):
        mem = MemorySlave("m", top, size=64, read_wait=4)
        log = []

        def body():
            yield from mem.transport(rd(0))
            log.append(str(ctx.now))

        ctx.register_thread(body, "t")
        ctx.run()
        assert log == ["0 s"]
