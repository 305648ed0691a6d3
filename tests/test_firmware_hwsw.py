"""Full-stack integration: firmware drives the HW/SW interface.

The ultimate test of the paper's §4 interface: the *device driver is
actual machine code* running on the bus-mastering CPU model.  The
firmware implements the mailbox protocol with loads/stores — poll
CTRL_IN free, copy a pre-encoded SHIP request frame into the data
window, ring the doorbell, poll CTRL_OUT, copy the reply out, ack —
while on the far side an ordinary SHIP slave PE serves the request,
never knowing its peer is software running from memory over the bus.

Every layer is live: ISA interpreter -> OCP transactions -> PLB CAM ->
mailbox registers -> SHIP wrapper -> SHIP channel -> PE, and back.
"""

import pytest

from repro.kernel import us
from repro.cam import MemorySlave, PlbBus
from repro.cpu import SimpleCpu, assemble
from repro.models import (
    CTRL_REQUEST,
    CTRL_VALID,
    MailboxSlave,
    ShipBusSlaveWrapper,
    bytes_to_words,
    words_to_bytes,
)
from repro.models.wrappers import ShipBusSlaveWrapper  # noqa: F811
from repro.ship import (
    ShipChannel,
    ShipInt,
    ShipSlavePort,
    decode_message,
    encode_message,
)
from repro.models import ProcessingElement

MAILBOX_BASE = 0x8000
CAPACITY_WORDS = 4
RESULT_BASE = 0x2000
FRAME_BASE = 0x1000


class AdderPE(ProcessingElement):
    """HW slave: replies value + 1000."""

    def __init__(self, name, parent, chan):
        super().__init__(name, parent)
        self.requests_served = 0
        self.port = self.ship_port("port", ShipSlavePort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        while True:
            req = yield from self.port.recv()
            self.requests_served += 1
            yield from self.port.reply(ShipInt(req.value + 1000))


def firmware(layout):
    """The device driver, in assembly."""
    ctrl_in = MAILBOX_BASE + layout.ctrl_in
    len_in = MAILBOX_BASE + layout.len_in
    data_in = MAILBOX_BASE + layout.data_in
    ctrl_out = MAILBOX_BASE + layout.ctrl_out
    len_out = MAILBOX_BASE + layout.len_out
    data_out = MAILBOX_BASE + layout.data_out
    return assemble([
        # ---- wait for a free inbound window -------------------------
        "poll_free:",
        ("LOAD", ctrl_in),
        ("BNEZ", "poll_free"),
        # ---- copy the 4-word frame image into DATA_IN ----------------
        ("LDI", 0),
        "SETX",
        "copy_in:",
        ("LOADX", FRAME_BASE),
        ("STOREX", data_in),
        ("INCX", 4),
        # loop while idx != 16: acc = idx - 16
        ("LOAD", 0x3000),          # scratch: current idx stored below
        ("ADDI", 4),
        ("STORE", 0x3000),
        ("ADDI", -16),
        ("BNEZ", "copy_in"),
        # ---- LEN_IN = frame length, doorbell with REQUEST -------------
        ("LOAD", 0x3004),          # frame byte length (poked by test)
        ("STORE", len_in),
        ("LDI", CTRL_VALID | CTRL_REQUEST),
        ("STORE", ctrl_in),
        # ---- wait for the reply ---------------------------------------
        "poll_reply:",
        ("LOAD", ctrl_out),
        ("BEQZ", "poll_reply"),
        # ---- copy the reply out, then ack ------------------------------
        ("LOAD", len_out),
        ("STORE", RESULT_BASE + 0x20),   # record reply length
        ("LDI", 0),
        "SETX",
        "copy_out:",
        ("LOADX", data_out),
        ("STOREX", RESULT_BASE),
        ("INCX", 4),
        ("LOAD", 0x3008),
        ("ADDI", 4),
        ("STORE", 0x3008),
        ("ADDI", -16),
        ("BNEZ", "copy_out"),
        ("LDI", 0),
        ("STORE", ctrl_out),
        "HALT",
    ])


@pytest.fixture
def system(ctx, top):
    plb = PlbBus("plb", top)
    # memory below the mailbox window
    mem = MemorySlave("mem", top, size=MAILBOX_BASE, read_wait=1,
                      write_wait=1)
    plb.attach_slave(mem, 0, MAILBOX_BASE)
    mailbox = MailboxSlave("mbox", top, capacity_words=CAPACITY_WORDS,
                           with_irq=False)
    plb.attach_slave(mailbox, MAILBOX_BASE, mailbox.layout.total_bytes)
    chan = ShipChannel("chan", top)
    ShipBusSlaveWrapper("wrap", top, channel=chan, mailbox=mailbox)
    pe = AdderPE("pe", top, chan)

    request_frame = encode_message(ShipInt(7))
    mem.load_words(FRAME_BASE, bytes_to_words(request_frame))
    mem.load_words(0x3004, [len(request_frame)])
    mem.load_words(0, firmware(mailbox.layout))
    cpu = SimpleCpu("cpu", top, socket=plb.master_socket("cpu"))
    return plb, mem, mailbox, pe, cpu


class TestFirmwareDriver:
    def test_firmware_request_reaches_pe_and_reply_returns(
            self, ctx, top, system):
        plb, mem, mailbox, pe, cpu = system
        ctx.run(us(100_000))
        assert cpu.halted and cpu.fault is None
        assert pe.requests_served == 1

        reply_len = mem.peek_word(RESULT_BASE + 0x20)
        words = [mem.peek_word(RESULT_BASE + i * 4) for i in range(4)]
        payload = words_to_bytes(words, reply_len)
        reply, _ = decode_message(payload)
        assert isinstance(reply, ShipInt)
        assert reply.value == 1007

    def test_firmware_generates_real_bus_traffic(self, ctx, top,
                                                 system):
        plb, mem, mailbox, pe, cpu = system
        ctx.run(us(100_000))
        # the driver's polls and copies all crossed the PLB
        assert mailbox.bus_reads > 2   # polls + reply reads
        assert mailbox.bus_writes >= 6  # frame + len + doorbell + ack
        assert plb.stats.transactions > 20
        assert cpu.instructions_retired > 30
