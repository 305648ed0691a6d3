"""Slaves move a whole burst per call, over the burst's true footprint.

``MemorySlave`` and ``MailboxSlave`` answer a burst with one bounds
check and one comprehension.  The reference slaves below keep the
per-beat loops they had before, with the per-beat address arithmetic
of the time, corrected only in the bounds rule: every beat must lie in
range, checked before any beat is stored.  The property tests require
identical responses, storage, counters and (for the mailbox) doorbell,
consumed-event and ``irq`` activity for INCR, STRM and WRAP bursts of
any byte-enable and word size, at aligned, unaligned and out-of-range
addresses.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cam import MemorySlave, PlbBus
from repro.kernel import Event, Module, SimContext, SimulationError
from repro.models import CTRL_VALID, MailboxSlave
from repro.models.mailbox import WORD_BYTES
from repro.ocp import BurstSeq, OcpCmd, OcpRequest, OcpResp, OcpResponse


def per_beat_address(request: OcpRequest, beat: int) -> int:
    """One beat's byte address, computed on its own."""
    seq = request.burst_seq
    if seq is BurstSeq.INCR:
        return request.addr + beat * request.word_bytes
    if seq is BurstSeq.STRM:
        return request.addr
    span = request.burst_length * request.word_bytes
    base = (request.addr // span) * span
    return base + (request.addr - base + beat * request.word_bytes) % span


def per_beat_addresses(request: OcpRequest):
    return [per_beat_address(request, beat)
            for beat in range(request.burst_length)]


class PerBeatMemory(MemorySlave):
    """Reference: one word per loop iteration."""

    def access(self, request):
        addresses = per_beat_addresses(request)
        if not all(0 <= address and address + self.word_bytes <= self.size
                   for address in addresses):
            return OcpResponse.error()
        if request.cmd.is_write:
            for beat in range(request.burst_length):
                index = self._word_index(addresses[beat])
                value = request.data[beat] & self._word_mask
                if request.byte_en is not None:
                    value = self._merge_bytes(index, value, request.byte_en)
                self._words[index] = value
            self.writes += 1
            return OcpResponse.write_ok()
        data = [self._words.get(self._word_index(address), 0)
                for address in addresses]
        self.reads += 1
        return OcpResponse.read_ok(data)

    def _merge_bytes(self, index, new, byte_en):
        old = self._words.get(index, 0)
        merged = 0
        for byte in range(self.word_bytes):
            mask = 0xFF << (8 * byte)
            source = new if byte_en & (1 << byte) else old
            merged |= source & mask
        return merged


class PerBeatMailbox(MailboxSlave):
    """Reference: one register write or read per loop iteration."""

    def _reg_offset(self, offset):
        if offset % WORD_BYTES:
            raise SimulationError(f"unaligned access at {offset:#x}")
        if offset not in self._regs:
            raise SimulationError(f"offset {offset:#x} out of range")
        return offset

    def _write_reg(self, offset, value):
        self._regs[self._reg_offset(offset)] = value & 0xFFFFFFFF
        if offset == self.layout.ctrl_in:
            if value & CTRL_VALID:
                self.doorbell_in.notify()
            else:
                self.in_consumed.notify()
        elif offset == self.layout.ctrl_out:
            if not value & CTRL_VALID:
                self.out_consumed.notify()
            if self.irq is not None:
                self.irq.write(bool(value & CTRL_VALID))

    def access(self, request):
        offsets = per_beat_addresses(request)
        if any(offset + WORD_BYTES > self.layout.total_bytes
               for offset in offsets):
            return OcpResponse.error()
        for offset in offsets:
            self._reg_offset(offset)  # raises on an unaligned beat
        if request.cmd.is_write:
            for offset, value in zip(offsets, request.data):
                self._write_reg(offset, value)
            self.bus_writes += 1
            return OcpResponse.write_ok()
        data = [self._regs[self._reg_offset(offset)] for offset in offsets]
        self.bus_reads += 1
        return OcpResponse.read_ok(data)


class LoggedEvent(Event):
    """An event that appends its name to ``log`` on every notify."""

    def __init__(self, owner, name, log):
        super().__init__(owner, name)
        self.log = log

    def notify(self):
        self.log.append(self.name)
        super().notify()


# ---------------------------------------------------------------------------
# Generated bursts
# ---------------------------------------------------------------------------


@st.composite
def bursts(draw, span):
    """A request anywhere in ``[0, span)``, often unaligned or past it."""
    word_bytes = draw(st.sampled_from([4, 4, 4, 1, 2, 8]))
    length = draw(st.integers(1, 16))
    cmd = draw(st.sampled_from([OcpCmd.RD, OcpCmd.WR, OcpCmd.WR,
                                OcpCmd.WRNP]))
    full = (1 << word_bytes) - 1
    byte_en = draw(st.one_of(st.none(), st.just(full),
                             st.integers(0, (1 << 8) - 1)))
    aligned = draw(st.booleans())
    addr = draw(st.integers(0, span // 4)) * 4 if aligned else draw(
        st.integers(0, span))
    data = (draw(st.lists(st.integers(0, (1 << 64) - 1), min_size=length,
                          max_size=length))
            if cmd.is_write else [])
    return OcpRequest(cmd, addr, data=data, burst_length=length,
                      burst_seq=draw(st.sampled_from(list(BurstSeq))),
                      byte_en=byte_en, word_bytes=word_bytes)


def outcome(slave, request):
    """The response as comparable data, or the exception type raised."""
    try:
        response = slave.access(request)
    except SimulationError:
        return "raised"
    return response.resp, response.data


@given(size=st.integers(1, 96), word_bytes=st.sampled_from([1, 2, 4, 8]),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_memory_bursts_match_per_beat_reference(size, word_bytes, data):
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    fast = MemorySlave("fast", top, size=size, word_bytes=word_bytes)
    slow = PerBeatMemory("slow", top, size=size, word_bytes=word_bytes)
    for request in data.draw(st.lists(bursts(size + 16), min_size=1,
                                      max_size=8)):
        assert outcome(fast, request) == outcome(slow, request)
        # same words, inserted in the same order (snapshots keep it)
        assert list(fast._words.items()) == list(slow._words.items())
        assert (fast.reads, fast.writes) == (slow.reads, slow.writes)


@given(capacity=st.integers(1, 6), with_irq=st.booleans(),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_mailbox_bursts_match_per_beat_reference(capacity, with_irq, data):
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    boxes = []
    for name, cls in (("fast", MailboxSlave), ("slow", PerBeatMailbox)):
        box = cls(name, top, capacity_words=capacity, with_irq=with_irq)
        box.log = []
        for event in ("doorbell_in", "in_consumed", "out_consumed"):
            setattr(box, event, LoggedEvent(box, event, box.log))
        boxes.append(box)
    fast, slow = boxes
    span = fast.layout.total_bytes + 16
    for request in data.draw(st.lists(bursts(span), min_size=1,
                                      max_size=8)):
        assert outcome(fast, request) == outcome(slow, request)
        assert fast._regs == slow._regs
        assert (fast.bus_reads, fast.bus_writes) == (
            slow.bus_reads, slow.bus_writes)
        assert fast.log == slow.log
        if with_irq:
            assert fast.irq._next == slow.irq._next


@given(request=bursts(4096))
@settings(max_examples=300, deadline=None)
def test_beat_addresses_and_bounds_match_per_beat_arithmetic(request):
    expected = per_beat_addresses(request)
    assert list(request.beat_addresses()) == expected
    assert [request.beat_address(beat)
            for beat in range(request.burst_length)] == expected
    assert request.beat_bounds() == (min(expected), max(expected))


def test_rebased_copies_every_field_but_the_address():
    request = OcpRequest(OcpCmd.WR, 0x1010, data=[1, 2], burst_length=2,
                         burst_seq=BurstSeq.WRAP, byte_en=0x3,
                         master_id="m", word_bytes=8)
    moved = request.rebased(0x10)
    assert moved == OcpRequest(OcpCmd.WR, 0x10, data=[1, 2],
                               burst_length=2, burst_seq=BurstSeq.WRAP,
                               byte_en=0x3, master_id="m", word_bytes=8)
    assert moved.data is request.data
    assert request.addr == 0x1010


# ---------------------------------------------------------------------------
# WRAP and STRM footprints
# ---------------------------------------------------------------------------


def _plb_write(request):
    """Issue ``request`` on a PLB with a 32-byte memory at 0x1000."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    mem = MemorySlave("mem", top, size=32)
    plb.attach_slave(mem, 0x1000, 32)
    socket = plb.master_socket("cpu")
    responses = []

    def master():
        responses.append((yield from socket.transport(request)))

    ctx.register_thread(master, "master")
    ctx.run()
    return responses[0], mem


def test_wrap_burst_inside_a_region_decodes():
    """Beats 0x1014, 0x1018, 0x101C, 0x1010 all lie in the region,
    though ``addr + nbytes`` runs past its end."""
    response, mem = _plb_write(OcpRequest(
        OcpCmd.WR, 0x1014, data=[1, 2, 3, 4], burst_length=4,
        burst_seq=BurstSeq.WRAP))
    assert response.resp is OcpResp.DVA
    assert [mem.peek_word(offset) for offset in (0x14, 0x18, 0x1C, 0x10)
            ] == [1, 2, 3, 4]


def test_strm_burst_to_the_last_word_decodes():
    response, mem = _plb_write(OcpRequest(
        OcpCmd.WR, 0x101C, data=[5, 6, 7, 8], burst_length=4,
        burst_seq=BurstSeq.STRM))
    assert response.resp is OcpResp.DVA
    assert mem.peek_word(0x1C) == 8


def test_wrap_burst_past_the_end_is_rejected_whole(ctx, top):
    """Beats 20, 24, 28, 16: the last beat fits a 24-byte memory but
    two others do not, so nothing is stored."""
    mem = MemorySlave("mem", top, size=24)
    response = mem.access(OcpRequest(
        OcpCmd.WR, 20, data=[1, 2, 3, 4], burst_length=4,
        burst_seq=BurstSeq.WRAP))
    assert response.resp is OcpResp.ERR
    assert mem._words == {}
    assert mem.writes == 0
