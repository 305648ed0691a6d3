"""A2 — software modeling-depth ablation: RTOS task vs real firmware.

The same HW/SW round trip (SHIP request to a hardware PE through the
mailbox) modeled at the two software fidelities the library offers:

* **task driver** — the SW adapter as an RTOS task using the Python
  device driver (:mod:`repro.hwsw`), the paper's intended modeling
  level;
* **firmware driver** — the driver as machine code on the
  :mod:`repro.cpu` instruction-set simulator, every poll and copy a
  real fetch/load/store.

Shape: both produce the same reply (functional equivalence across
modeling depths); the firmware model costs substantially more host time
per round trip and generates far more bus transactions — quantifying
why driver development happens at the task level and only final
validation runs at ISS level.
"""

import time


from repro.kernel import Module, SimContext, ns, us
from repro.cam import MemorySlave, PlbBus
from repro.cpu import SimpleCpu, assemble
from repro.flow import SystemMapper
from repro.models import (
    CTRL_REQUEST,
    CTRL_VALID,
    MailboxSlave,
    ProcessingElement,
    ShipBusSlaveWrapper,
    bytes_to_words,
    words_to_bytes,
)
from repro.rtos import Rtos
from repro.ship import (
    ShipChannel,
    ShipInt,
    ShipSlavePort,
    decode_message,
    encode_message,
)

from _util import print_table

MAILBOX_BASE = 0x8000


class AdderPE(ProcessingElement):
    """HW slave: replies value + 1000."""

    def __init__(self, name, parent, chan):
        super().__init__(name, parent)
        self.port = self.ship_port("port", ShipSlavePort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        """Serve requests forever."""
        while True:
            req = yield from self.port.recv()
            yield from self.port.reply(ShipInt(req.value + 1000))


def run_task_driver():
    """The round trip with the RTOS-task device driver."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    os = Rtos("os", top)
    link = SystemMapper(
        top, plb, rtos=os, mailbox_base=MAILBOX_BASE, use_irq=False,
        poll_interval=ns(100), capacity_words=4,
    ).connect("acc", master="sw")
    AdderPE("pe", top, link.slave_attach)
    out = []

    def main():
        reply = yield from link.master_attach.request(ShipInt(7))
        out.append(reply.value)

    os.create_task(main, "main", priority=5)
    ctx.run(us(100_000))
    return out[0], plb.stats.transactions, ctx


def run_firmware_driver():
    """The round trip with the machine-code device driver."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    mem = MemorySlave("mem", top, size=MAILBOX_BASE, read_wait=1,
                      write_wait=1)
    plb.attach_slave(mem, 0, MAILBOX_BASE)
    mailbox = MailboxSlave("mbox", top, capacity_words=4,
                           with_irq=False)
    plb.attach_slave(mailbox, MAILBOX_BASE, mailbox.layout.total_bytes)
    chan = ShipChannel("chan", top)
    ShipBusSlaveWrapper("wrap", top, channel=chan, mailbox=mailbox)
    AdderPE("pe", top, chan)

    layout = mailbox.layout
    frame = encode_message(ShipInt(7))
    mem.load_words(0x1000, bytes_to_words(frame))
    mem.load_words(0x3004, [len(frame)])
    mem.load_words(0, assemble([
        "poll_free:",
        ("LOAD", MAILBOX_BASE + layout.ctrl_in),
        ("BNEZ", "poll_free"),
        ("LDI", 0),
        "SETX",
        "copy_in:",
        ("LOADX", 0x1000),
        ("STOREX", MAILBOX_BASE + layout.data_in),
        ("INCX", 4),
        ("LOAD", 0x3000),
        ("ADDI", 4),
        ("STORE", 0x3000),
        ("ADDI", -16),
        ("BNEZ", "copy_in"),
        ("LOAD", 0x3004),
        ("STORE", MAILBOX_BASE + layout.len_in),
        ("LDI", CTRL_VALID | CTRL_REQUEST),
        ("STORE", MAILBOX_BASE + layout.ctrl_in),
        "poll_reply:",
        ("LOAD", MAILBOX_BASE + layout.ctrl_out),
        ("BEQZ", "poll_reply"),
        ("LOAD", MAILBOX_BASE + layout.len_out),
        ("STORE", 0x2020),
        ("LDI", 0),
        "SETX",
        "copy_out:",
        ("LOADX", MAILBOX_BASE + layout.data_out),
        ("STOREX", 0x2000),
        ("INCX", 4),
        ("LOAD", 0x3008),
        ("ADDI", 4),
        ("STORE", 0x3008),
        ("ADDI", -16),
        ("BNEZ", "copy_out"),
        ("LDI", 0),
        ("STORE", MAILBOX_BASE + layout.ctrl_out),
        "HALT",
    ]))
    SimpleCpu("cpu", top, socket=plb.master_socket("cpu"))
    ctx.run(us(100_000))
    reply_len = mem.peek_word(0x2020)
    words = [mem.peek_word(0x2000 + i * 4) for i in range(4)]
    reply, _ = decode_message(words_to_bytes(words, reply_len))
    return reply.value, plb.stats.transactions, ctx


def test_a2_task_driver_benchmark(benchmark):
    value, _, _ = benchmark(run_task_driver)
    assert value == 1007


def test_a2_firmware_driver_benchmark(benchmark):
    value, _, _ = benchmark(run_firmware_driver)
    assert value == 1007


def test_a2_modeling_depth_comparison(benchmark):
    def compare():
        walls = {}
        start = time.perf_counter()
        task = run_task_driver()
        walls["task"] = time.perf_counter() - start
        start = time.perf_counter()
        firmware = run_firmware_driver()
        walls["firmware"] = time.perf_counter() - start
        return task, firmware, walls

    task, firmware, walls = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    rows = [
        {
            "sw_model": "RTOS task driver",
            "reply": task[0],
            "bus_txns": task[1],
            "sim_time": str(task[2].last_activity_time),
            "wall_ms": round(walls["task"] * 1e3, 2),
        },
        {
            "sw_model": "firmware on ISS",
            "reply": firmware[0],
            "bus_txns": firmware[1],
            "sim_time": str(firmware[2].last_activity_time),
            "wall_ms": round(walls["firmware"] * 1e3, 2),
        },
    ]
    print_table("A2: software modeling depth (one HW/SW round trip)",
                rows)
    # functional equivalence across modeling depths
    assert task[0] == firmware[0] == 1007
    # the ISS model pays in bus traffic (fetches) ...
    assert firmware[1] > task[1]
