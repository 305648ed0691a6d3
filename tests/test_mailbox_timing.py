"""Timing of the mailbox protocol on every host that runs it.

The SHIP bus wrappers run the mailbox procedures of
``docs/ship_protocol.md`` §3 as kernel processes; the HW/SW driver runs
them as RTOS tasks that charge CPU time.  The expected values here were
captured from the implementation the tests were written against, so any
change to how either host idles, polls, charges CPU time or splits bus
bursts shows up as a changed number.  The closing property checks that
every orientation delivers what it was given, in order.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.apps.pipeline import build_cam
from repro.cam import PlbBus
from repro.hwsw import build_sw_master_interface, build_sw_slave_interface
from repro.kernel import Module, SimContext, ns, us
from repro.models import ProcessingElement, build_ship_over_bus
from repro.rtos import Rtos
from repro.ship import (
    ShipBytes,
    ShipIntArray,
    ShipMasterPort,
    ShipSlavePort,
    encode_message,
)

#: bytes of the SHIP frame header (tag + length) in front of every body
FRAME_BYTES = len(encode_message(ShipBytes(b"")))


def framed(nbytes: int, fill: int = 0) -> ShipBytes:
    """A message whose SHIP frame is exactly ``nbytes`` long."""
    return ShipBytes(bytes((fill + i) % 256
                           for i in range(nbytes - FRAME_BYTES)))


def reply_for(obj: ShipBytes) -> ShipBytes:
    """What every slave in this module answers to a request."""
    return ShipBytes(obj.value[::-1] + b"!")


class Echo(ProcessingElement):
    """HW slave: records what arrives, answers requests after a delay."""

    def __init__(self, name, parent, chan, compute=ns(0),
                 answer=reply_for):
        super().__init__(name, parent)
        self.chan = chan
        self.compute = compute
        self.answer = answer
        self.received = []
        self.port = self.ship_port("port", ShipSlavePort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        while True:
            msg = yield from self.port.recv()
            self.received.append(msg)
            if self.chan.pending_requests(self.port.end):
                if self.compute > ns(0):
                    yield self.compute
                yield from self.port.reply(self.answer(msg))


class Issuer(ProcessingElement):
    """HW master: issues ``(is_request, obj)`` operations in order."""

    def __init__(self, name, parent, chan, ops):
        super().__init__(name, parent)
        self.ops = ops
        self.replies = []
        self.done_at = []
        self.port = self.ship_port("port", ShipMasterPort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        for is_request, obj in self.ops:
            if is_request:
                reply = yield from self.port.request(obj)
                self.replies.append(reply)
            else:
                yield from self.port.send(obj)
            self.done_at.append(self.ctx.now.to("ns"))


# ---------------------------------------------------------------------------
# SW master: the device driver's PIO and handshake timing (E5's setup)
# ---------------------------------------------------------------------------


def sw_master_round_trip(use_irq, poll_interval=ns(200), rounds=6):
    """E5b's system: mean round trip (ns) of a 16-word request and the
    driver's PIO counts."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    os = Rtos("os", top, context_switch=ns(200))
    link = build_sw_master_interface(
        "acc", top, plb, os, 0x80000, capacity_words=64, use_irq=use_irq,
        poll_interval=poll_interval, access_overhead=ns(100),
    )
    Echo("hw", top, link.hw_channel, compute=us(5),
         answer=lambda msg: msg)
    payload = ShipIntArray(list(range(16)))
    latencies = []

    def main():
        for _ in range(rounds):
            start = ctx.now
            yield from link.sw_port.request(payload)
            latencies.append((ctx.now - start).to("ns"))

    os.create_task(main, "main", priority=5)
    ctx.run(us(1_000_000))
    assert len(latencies) == rounds
    return (sum(latencies) / rounds, link.driver.pio_reads,
            link.driver.pio_writes)


def test_sw_master_irq_round_trip():
    assert sw_master_round_trip(use_irq=True) == (5670.0, 24, 24)


def test_sw_master_fast_polling_round_trip():
    assert sw_master_round_trip(
        use_irq=False, poll_interval=ns(100)) == (5750.0, 258, 24)


def test_sw_master_slow_polling_round_trip():
    assert sw_master_round_trip(
        use_irq=False, poll_interval=us(2)) == (6900.0, 48, 24)


def sw_master_with_background(use_irq):
    """Round trips (ns) of a polled or IRQ-driven request and the CPU
    time a lower-priority task got meanwhile: the driver holds the CPU
    for PIO only, and sleeps or blocks in between."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    os = Rtos("os", top, context_switch=ns(200))
    link = build_sw_master_interface(
        "acc", top, plb, os, 0x80000, capacity_words=64, use_irq=use_irq,
        poll_interval=us(1), access_overhead=ns(100),
    )
    Echo("hw", top, link.hw_channel, compute=us(5),
         answer=lambda msg: msg)
    latencies = []

    def main():
        for _ in range(3):
            start = ctx.now
            yield from link.sw_port.request(ShipIntArray([1, 2, 3]))
            latencies.append((ctx.now - start).to("ns"))

    def background():
        while len(latencies) < 3:
            yield from os.execute(ns(100))

    os.create_task(main, "main", priority=5)
    bg = os.create_task(background, "bg", priority=20)
    ctx.run(us(1_000))
    return latencies, bg.cpu_time.to("ns")


def test_sw_master_polling_sleeps_between_polls():
    assert sw_master_with_background(use_irq=False) == (
        [5430.0, 5430.0, 5430.0], 12300.0)


def test_sw_master_irq_wait_releases_the_cpu():
    assert sw_master_with_background(use_irq=True) == (
        [5570.0, 5570.0, 5570.0], 14900.0)


# ---------------------------------------------------------------------------
# HW master: the owner-side driver's copy and entry charges
# ---------------------------------------------------------------------------

CAPACITY = 8                       # data words per chunk
CHUNK = CAPACITY * 4               # bytes per chunk

#: frame sizes around the chunk boundary: an empty body, one word short
#: of a chunk, exactly one chunk, one word over, and several chunks
HW_MASTER_SIZES = (FRAME_BYTES, CHUNK - 4, CHUNK, CHUNK + 4,
                   3 * CHUNK + 10)


def hw_master_run(use_irq_for_reply):
    """Per request: when the SW task got it and when the HW saw the
    reply (ns), over a CPU-local mailbox with nonzero driver costs."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    os = Rtos("os", top, context_switch=ns(200))
    link = build_sw_slave_interface(
        "sensor", top, plb, os, 0x9000, capacity_words=CAPACITY,
        hw_poll_interval=ns(100), copy_cost_per_word=ns(10),
        access_overhead=ns(50), use_irq_for_reply=use_irq_for_reply,
    )
    ops = [(True, framed(size, fill=i))
           for i, size in enumerate(HW_MASTER_SIZES)]
    hw = Issuer("hw", top, link.hw_channel, ops)
    got_at = []

    def rx():
        while True:
            msg = yield from link.sw_port.recv()
            got_at.append(ctx.now.to("ns"))
            yield from link.sw_port.reply(reply_for(msg))

    os.create_task(rx, "rx", priority=5)
    ctx.run(us(1_000))
    assert hw.replies == [reply_for(obj) for _, obj in ops]
    return list(zip(got_at, hw.done_at))


def test_hw_master_irq_reply_timing():
    assert hw_master_run(use_irq_for_reply=True) == [
        (270.0, 450.0), (670.0, 970.0), (1210.0, 1610.0),
        (1880.0, 2300.0), (2950.0, 3870.0),
    ]


def test_hw_master_polled_reply_timing():
    assert hw_master_run(use_irq_for_reply=False) == [
        (270.0, 510.0), (730.0, 1130.0), (1370.0, 1890.0),
        (2160.0, 2630.0), (3280.0, 4400.0),
    ]


# ---------------------------------------------------------------------------
# CAM level: the F1 pipeline over two wrapper links
# ---------------------------------------------------------------------------


def test_cam_pipeline_wrapper_and_mailbox_counts():
    system = build_cam(10)
    system.ctx.run()
    assert system.ctx.last_activity_time.to("ns") == 5860.0
    counts = [
        (link.master_wrapper.poll_reads, link.mailbox.bus_reads,
         link.mailbox.bus_writes)
        for link in system.extras["links"]
    ]
    assert counts == [(10, 10, 30), (10, 10, 30)]


# ---------------------------------------------------------------------------
# Every orientation delivers what it was given, in order
# ---------------------------------------------------------------------------

PROP_CAPACITY = 4
PROP_CHUNK = PROP_CAPACITY * 4

frame_sizes = st.one_of(
    st.integers(min_value=FRAME_BYTES, max_value=3 * PROP_CHUNK + 4),
    st.sampled_from([PROP_CHUNK - 4, PROP_CHUNK - 1, PROP_CHUNK,
                     PROP_CHUNK + 1, 2 * PROP_CHUNK]),
)
streams = st.lists(st.tuples(st.booleans(), frame_sizes),
                   min_size=1, max_size=6)


def _ops(stream):
    return [(is_request, framed(size, fill=i))
            for i, (is_request, size) in enumerate(stream)]


def _over_bus(ops, interrupt):
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    link = build_ship_over_bus("lnk", top, plb, 0x8000,
                               capacity_words=PROP_CAPACITY,
                               use_irq=interrupt, poll_interval=ns(100))
    master = Issuer("m", top, link.master_channel, ops)
    slave = Echo("s", top, link.slave_channel)
    ctx.run(us(10_000))
    return slave.received, master.replies


def _sw_master(ops, interrupt):
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    os = Rtos("os", top, context_switch=ns(50))
    link = build_sw_master_interface(
        "acc", top, plb, os, 0x8000, capacity_words=PROP_CAPACITY,
        use_irq=interrupt, poll_interval=ns(100), access_overhead=ns(20),
    )
    slave = Echo("hw", top, link.hw_channel)
    replies = []

    def main():
        for is_request, obj in ops:
            if is_request:
                replies.append((yield from link.sw_port.request(obj)))
            else:
                yield from link.sw_port.send(obj)

    os.create_task(main, "main", priority=5)
    ctx.run(us(10_000))
    return slave.received, replies


def _sw_slave(ops, interrupt):
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    os = Rtos("os", top, context_switch=ns(50))
    link = build_sw_slave_interface(
        "sensor", top, plb, os, 0x9000, capacity_words=PROP_CAPACITY,
        hw_poll_interval=ns(100), copy_cost_per_word=ns(5),
        access_overhead=ns(20), use_irq_for_reply=interrupt,
    )
    master = Issuer("hw", top, link.hw_channel, ops)
    received = []

    def rx():
        while True:
            msg = yield from link.sw_port.recv()
            received.append(msg)
            if link.sw_port.pending_requests:
                yield from link.sw_port.reply(reply_for(msg))

    os.create_task(rx, "rx", priority=5)
    ctx.run(us(10_000))
    return received, master.replies


@settings(max_examples=60, deadline=None)
@given(stream=streams, interrupt=st.booleans(),
       build=st.sampled_from([_over_bus, _sw_master, _sw_slave]))
def test_every_orientation_delivers_in_order(stream, interrupt, build):
    ops = _ops(stream)
    received, replies = build(ops, interrupt)
    assert received == [obj for _, obj in ops]
    assert replies == [reply_for(obj) for is_request, obj in ops
                       if is_request]
