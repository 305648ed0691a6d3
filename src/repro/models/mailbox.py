"""Memory-mapped message mailbox: the shared substrate for SHIP-over-bus.

Both the CCATB SHIP wrappers (:mod:`repro.models.wrappers`) and the
HW/SW interface (:mod:`repro.hwsw`) move SHIP byte streams through the
same register block — which is the point: the paper's generic HW/SW
interface *"virtually realizes a SHIP channel"* over shared memory plus
sideband signals, and the wrapper uses the identical mechanism over a
bus region.

Register map (word size 4 bytes, ``capacity_words`` data words each way)::

    0x00              CTRL_IN   control for messages INTO the mailbox owner
    0x04              LEN_IN    chunk length in bytes
    0x08 ...          DATA_IN   capacity_words words
    base_out + 0x00   CTRL_OUT  control for messages OUT of the owner
    base_out + 0x04   LEN_OUT
    base_out + 0x08.. DATA_OUT

CTRL bits: bit0 VALID (chunk present), bit1 MORE (message continues in a
later chunk), bit2 REQUEST (final chunk of a SHIP ``request``; a reply
will follow on the opposite direction).

The producer polls VALID==0, writes LEN+DATA, then sets CTRL (doorbell).
The consumer copies the chunk and clears CTRL.  Messages larger than the
data window are split into chunks; reassembly order is the bus's
write-ordering, which both our CAMs and real CoreConnect preserve
per-master.

Each side of that procedure is written once, here: :class:`MailboxBusSide`
(the requester, over the bus) and :class:`MailboxOwnerSide` (the owner,
on the registers).  The SHIP wrappers run them as kernel processes, the
HW/SW driver as RTOS tasks (see :class:`MailboxHost`).
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, Iterable, List, Optional, Tuple

from repro.kernel.errors import SimulationError
from repro.kernel.event import Event
from repro.kernel.object import SimObject
from repro.kernel.signal import Signal
from repro.kernel.simtime import SimTime, ZERO_TIME
from repro.ocp.tl import OcpTargetIf
from repro.ocp.types import OcpCmd, OcpRequest, OcpResponse

#: CTRL register bits
CTRL_VALID = 0x1
CTRL_MORE = 0x2
CTRL_REQUEST = 0x4

WORD_BYTES = 4
_WORD_MASK = 0xFFFFFFFF


class MailboxLayout:
    """Address arithmetic for the mailbox register block."""

    def __init__(self, capacity_words: int = 256):
        if capacity_words < 1:
            raise ValueError("mailbox needs at least one data word")
        self.capacity_words = capacity_words
        self.ctrl_in = 0x0
        self.len_in = WORD_BYTES
        self.data_in = 2 * WORD_BYTES
        base_out = (2 + capacity_words) * WORD_BYTES
        self.ctrl_out = base_out
        self.len_out = base_out + WORD_BYTES
        self.data_out = base_out + 2 * WORD_BYTES
        self.total_bytes = (4 + 2 * capacity_words) * WORD_BYTES

    @property
    def chunk_capacity_bytes(self) -> int:
        """Bytes one chunk's data window holds."""
        return self.capacity_words * WORD_BYTES


def bytes_to_words(data: bytes) -> List[int]:
    """Pack bytes into big-endian 32-bit words (zero padded)."""
    count = word_count(len(data))
    padded = data.ljust(count * WORD_BYTES, b"\x00")
    return list(struct.unpack(f">{count}I", padded))


def word_count(nbytes: int) -> int:
    """Words needed to hold ``nbytes`` bytes."""
    return (nbytes + WORD_BYTES - 1) // WORD_BYTES


def words_to_bytes(words: List[int], nbytes: int) -> bytes:
    """Inverse of :func:`bytes_to_words`, truncated to ``nbytes``."""
    return struct.pack(f">{len(words)}I", *words)[:nbytes]


def chunk_message(data: bytes, layout: MailboxLayout,
                  is_request: bool) -> List[Tuple[bytes, int]]:
    """Split a framed message into ``(chunk_bytes, ctrl_value)`` pairs."""
    capacity = layout.chunk_capacity_bytes
    chunks = [data[i:i + capacity] for i in range(0, len(data), capacity)]
    if not chunks:
        chunks = [b""]
    result = []
    for i, chunk in enumerate(chunks):
        last = i == len(chunks) - 1
        ctrl = CTRL_VALID
        if not last:
            ctrl |= CTRL_MORE
        elif is_request:
            ctrl |= CTRL_REQUEST
        result.append((chunk, ctrl))
    return result


class MailboxSlave(SimObject):
    """The bus-facing mailbox: a functional OCP slave plus owner-side API.

    The *bus side* (a remote SHIP wrapper or a device driver) accesses
    the registers with reads/writes through the bus.  The *owner side*
    (the slave-side SHIP wrapper process, or the HW adapter) uses the
    direct methods and the doorbell events.

    An optional ``irq`` signal implements the paper's sideband signals:
    it rises while CTRL_OUT holds a valid chunk, so a bus master can wait
    for the interrupt instead of polling.
    """

    def __init__(self, name, parent=None, ctx=None,
                 capacity_words: int = 256, with_irq: bool = True,
                 read_wait: int = 0, write_wait: int = 0):
        super().__init__(name, parent, ctx)
        self.layout = MailboxLayout(capacity_words)
        self.read_wait = read_wait
        self.write_wait = write_wait
        #: register byte offset -> value
        self._regs: Dict[int, int] = dict.fromkeys(
            range(0, self.layout.total_bytes, WORD_BYTES), 0
        )
        self.doorbell_in = Event(self, f"{self.full_name}.doorbell_in")
        self.in_consumed = Event(self, f"{self.full_name}.in_consumed")
        self.out_consumed = Event(self, f"{self.full_name}.out_consumed")
        self.irq: Optional[Signal] = (
            Signal("irq", self, init=False, check_writer=False)
            if with_irq else None
        )
        self.bus_reads = 0
        self.bus_writes = 0

    # -- register helpers ------------------------------------------------------

    def _write_reg(self, offset: int, value: int) -> None:
        self._regs[offset] = value & _WORD_MASK
        self._ctrl_written(offset, value)

    def _ctrl_written(self, offset: int, value: int) -> None:
        """Fire what writing ``value`` at ``offset`` signals, if a CTRL."""
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

    # -- bus-facing functional slave interface --------------------------------------

    def wait_states(self, request: OcpRequest) -> int:
        """Bus wait states for this access direction."""
        return self.read_wait if request.cmd.is_read else self.write_wait

    def access(self, request: OcpRequest) -> OcpResponse:
        """Functional bus access to the register block, a burst per call.

        ERR unless every beat falls in the block; a beat off a register
        boundary raises :class:`SimulationError`.
        """
        low, high = request.beat_bounds()
        if high + WORD_BYTES > self.layout.total_bytes:
            return OcpResponse.error()
        # Beats are ``low`` plus multiples of the request's word size,
        # so they all sit on register boundaries when ``low`` does and,
        # unless they share one address, that word size is too.
        if low % WORD_BYTES or (high > low
                                and request.word_bytes % WORD_BYTES):
            raise SimulationError(
                f"mailbox {self.full_name}: unaligned access at "
                f"{request.addr:#x}"
            )
        addresses = request.beat_addresses()
        regs = self._regs
        if request.cmd.is_write:
            data = request.data
            regs.update(zip(addresses,
                            [value & _WORD_MASK for value in data]))
            layout = self.layout
            if (low <= layout.ctrl_in <= high
                    or low <= layout.ctrl_out <= high):
                # in beat order, as separate register writes would
                for address, value in zip(addresses, data):
                    self._ctrl_written(address, value)
            self.bus_writes += 1
            return OcpResponse.write_ok()
        data = [regs[address] for address in addresses]
        self.bus_reads += 1
        return OcpResponse.read_ok(data)

    # -- owner-side API ------------------------------------------------------------------

    @property
    def in_ctrl(self) -> int:
        """Current CTRL_IN value."""
        return self._regs[self.layout.ctrl_in]

    @property
    def out_ctrl(self) -> int:
        """Current CTRL_OUT value."""
        return self._regs[self.layout.ctrl_out]

    def take_in_chunk(self) -> Tuple[bytes, int]:
        """Owner consumes the inbound chunk; returns ``(bytes, ctrl)``.

        Clears CTRL_IN so the producer may write the next chunk.
        """
        ctrl = self.in_ctrl
        if not ctrl & CTRL_VALID:
            raise SimulationError(
                f"mailbox {self.full_name}: take_in_chunk with no valid "
                f"chunk"
            )
        regs = self._regs
        nbytes = regs[self.layout.len_in]
        start = self.layout.data_in
        # a length past the window reads on to the block's end
        stop = min(start + word_count(nbytes) * WORD_BYTES,
                   self.layout.total_bytes)
        words = [regs[offset] for offset in range(start, stop, WORD_BYTES)]
        self._write_reg(self.layout.ctrl_in, 0)
        return words_to_bytes(words, nbytes), ctrl

    def put_out_chunk(self, data: bytes, ctrl: int) -> None:
        """Owner publishes an outbound chunk (CTRL_OUT must be clear)."""
        if self.out_ctrl & CTRL_VALID:
            raise SimulationError(
                f"mailbox {self.full_name}: put_out_chunk while previous "
                f"chunk unconsumed"
            )
        if len(data) > self.layout.chunk_capacity_bytes:
            raise SimulationError(
                f"mailbox {self.full_name}: chunk of {len(data)} bytes "
                f"exceeds capacity {self.layout.chunk_capacity_bytes}"
            )
        words = bytes_to_words(data)
        start = self.layout.data_out
        self._regs.update(zip(
            range(start, start + len(words) * WORD_BYTES, WORD_BYTES), words
        ))
        self._write_reg(self.layout.len_out, len(data))
        self._write_reg(self.layout.ctrl_out, ctrl)


def map_mailbox(name: str, parent, bus, base: int, capacity_words: int,
                with_irq: bool) -> MailboxSlave:
    """Create the mailbox ``<name>_mbox`` and map it on ``bus`` at ``base``."""
    mailbox = MailboxSlave(f"{name}_mbox", parent,
                           capacity_words=capacity_words, with_irq=with_irq)
    bus.attach_slave(mailbox, base, mailbox.layout.total_bytes,
                     name=f"{name}_mbox")
    return mailbox


# -- the procedure, once per side ---------------------------------------------


class MailboxHost:
    """How a process idles and what CPU time it charges in the procedure.

    The defaults are a kernel thread's, which charges nothing; an RTOS
    task overrides the three hooks and may set the two costs.
    """

    #: time charged on entry to each message-level call
    access_overhead: SimTime = ZERO_TIME
    #: time charged per word copied between a chunk and the owner
    copy_cost_per_word: SimTime = ZERO_TIME

    def _delay(self, duration: SimTime) -> Generator:
        yield duration

    def _block_on(self, event: Event) -> Generator:
        yield event

    def _execute(self, duration: SimTime) -> Generator:
        yield duration

    def _charge(self, cost: SimTime) -> Iterable:
        # Callers ``yield from`` the result; a zero cost (the kernel
        # thread's) builds no generator at all.
        return self._execute(cost) if cost else ()


class MailboxBusSide(MailboxHost):
    """The requester's side: programmed I/O to the block at ``base``.

    Replies are awaited on ``irq`` if given, else by polling; bursts are
    at most ``max_burst`` beats.  ``pio_reads``/``pio_writes`` count bus
    transactions, ``poll_reads`` the control-register polls among them.
    """

    #: longest bus burst either host issues (PLB allows 16)
    max_burst = 16

    def __init__(self, socket: OcpTargetIf, base: int, layout: MailboxLayout,
                 irq: Optional[Signal], poll_interval: Optional[SimTime]):
        self.socket = socket
        self.base = base
        self.layout = layout
        self.irq = irq
        self.poll_interval = poll_interval
        self.pio_reads = 0
        self.pio_writes = 0
        self.poll_reads = 0

    def write_words(self, offset: int, words: List[int]) -> Generator:
        """Write ``words`` from ``offset`` of the block in bursts."""
        for index in range(0, len(words), self.max_burst):
            beats = words[index:index + self.max_burst]
            request = OcpRequest(
                OcpCmd.WR, self.base + offset + index * WORD_BYTES,
                data=beats, burst_length=len(beats),
            )
            response = yield from self.socket.transport(request)
            if not response.ok:
                raise SimulationError(
                    f"mailbox at {self.base:#x}: bus write failed at "
                    f"{request.addr:#x}"
                )
            self.pio_writes += 1

    def read_words(self, offset: int, count: int) -> Generator:
        """Read ``count`` words from ``offset`` of the block in bursts."""
        words: List[int] = []
        for index in range(0, count, self.max_burst):
            beats = min(self.max_burst, count - index)
            request = OcpRequest(
                OcpCmd.RD, self.base + offset + index * WORD_BYTES,
                burst_length=beats,
            )
            response = yield from self.socket.transport(request)
            if not response.ok:
                raise SimulationError(
                    f"mailbox at {self.base:#x}: bus read failed at "
                    f"{request.addr:#x}"
                )
            self.pio_reads += 1
            words.extend(response.data)
        return words

    def _poll(self, offset: int, valid: bool) -> Generator:
        """Re-read the CTRL register at ``offset`` until VALID is ``valid``."""
        while True:
            ctrl = (yield from self.read_words(offset, 1))[0]
            self.poll_reads += 1
            if bool(ctrl & CTRL_VALID) == valid:
                return
            if self.poll_interval:  # None or zero: poll back to back
                yield from self._delay(self.poll_interval)

    def push_message(self, payload: bytes, is_request: bool) -> Generator:
        """Write one framed message as doorbell'd chunks."""
        yield from self._charge(self.access_overhead)
        layout = self.layout
        for chunk, ctrl in chunk_message(payload, layout, is_request):
            yield from self._poll(layout.ctrl_in, valid=False)
            yield from self.write_words(
                layout.len_in, [len(chunk)] + bytes_to_words(chunk)
            )
            yield from self.write_words(layout.ctrl_in, [ctrl])

    def pull_message(self) -> Generator:
        """Collect and acknowledge one outbound message; returns
        ``(payload_bytes, final_ctrl)``."""
        yield from self._charge(self.access_overhead)
        layout = self.layout
        payload = b""
        while True:
            if self.irq is not None:
                while not self.irq.read():
                    yield from self._block_on(self.irq.posedge_event)
            else:
                yield from self._poll(layout.ctrl_out, valid=True)
            ctrl, nbytes = yield from self.read_words(layout.ctrl_out, 2)
            words = yield from self.read_words(layout.data_out,
                                               word_count(nbytes))
            payload += words_to_bytes(words, nbytes)
            yield from self.write_words(layout.ctrl_out, [0])
            if not ctrl & CTRL_MORE:
                return payload, ctrl


class MailboxOwnerSide(MailboxHost):
    """The owner's side, on the registers of ``mailbox``."""

    mailbox: MailboxSlave

    def _charge_copy(self, nbytes: int) -> Iterable:
        return self._charge(self.copy_cost_per_word * word_count(nbytes))

    def pull_in_message(self) -> Generator:
        """Wait for and reassemble one inbound message; returns
        ``(payload_bytes, final_ctrl)``."""
        yield from self._charge(self.access_overhead)
        mailbox = self.mailbox
        payload = b""
        while True:
            while not mailbox.in_ctrl & CTRL_VALID:
                yield from self._block_on(mailbox.doorbell_in)
            chunk, ctrl = mailbox.take_in_chunk()
            yield from self._charge_copy(len(chunk))
            payload += chunk
            if not ctrl & CTRL_MORE:
                return payload, ctrl

    def push_out_message(self, payload: bytes) -> Generator:
        """Publish one outbound (reply) message as chunks."""
        yield from self._charge(self.access_overhead)
        mailbox = self.mailbox
        for chunk, ctrl in chunk_message(payload, mailbox.layout,
                                         is_request=False):
            while mailbox.out_ctrl & CTRL_VALID:
                yield from self._block_on(mailbox.out_consumed)
            yield from self._charge_copy(len(chunk))
            mailbox.put_out_chunk(chunk, ctrl)
