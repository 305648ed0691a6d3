"""Timing of the mailbox protocol on every host that runs it.

The SHIP bus wrappers run the mailbox procedures of
``docs/ship_protocol.md`` §3 as kernel processes; a SW end runs them
inside the calling task of a PE that eSW generation re-hosted, charging
CPU time.  Every link here is built by
:class:`~repro.flow.mapping.SystemMapper`, the one way a SHIP
connection goes on a fabric, and every end is one of the same two PEs,
``Issuer`` and ``Echo``, whichever side is software.  The expected
values here were captured from the implementation the tests were
written against, so any change to how either host idles, polls, charges
CPU time or splits bus bursts shows up as a changed number.  The
closing property checks that every orientation delivers what it was
given, in order, on every CAM, on the RTL bus core and on a generated
prototype.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.accessors import build_prototype
from repro.apps.pipeline import build_cam
from repro.cam import PlbBus
from repro.esw import PartitionSpec, generate_esw
from repro.explore import FABRICS, ArchitectureConfig, build_fabric
from repro.flow import SystemMapper
from repro.kernel import Clock, Module, SimContext, ns, us
from repro.models import ProcessingElement
from repro.rtl import RtlBusCore
from repro.rtos import Rtos
from repro.ship import (
    ShipBytes,
    ShipInt,
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


def rehost(os, *pes):
    """Re-host ``pes`` as tasks of ``os``, at priorities 5, 6, ..."""
    generate_esw(PartitionSpec(
        software=list(pes),
        priorities={pe.name: 5 + i for i, pe in enumerate(pes)},
    ), os)


class Echo(ProcessingElement):
    """SHIP slave: records what arrives, when (ns) and how many
    requests it then owed, answers requests after a delay."""

    def __init__(self, name, parent, chan, compute=ns(0),
                 answer=reply_for):
        super().__init__(name, parent)
        self.chan = chan
        self.compute = compute
        self.answer = answer
        self.received = []
        self.received_at = []
        self.owed = []
        self.port = self.ship_port("port", ShipSlavePort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        while True:
            msg = yield from self.port.recv()
            self.received.append(msg)
            self.received_at.append(self.ctx.now.to("ns"))
            self.owed.append(self.chan.pending_requests(self.port.end))
            if self.owed[-1]:
                if self.compute > ns(0):
                    yield self.compute
                yield from self.port.reply(self.answer(msg))


class Issuer(ProcessingElement):
    """SHIP master: issues ``(is_request, obj)`` operations in order,
    recording when (ns) each began and ended."""

    def __init__(self, name, parent, chan, ops):
        super().__init__(name, parent)
        self.ops = ops
        self.replies = []
        self.begun_at = []
        self.done_at = []
        self.port = self.ship_port("port", ShipMasterPort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        for is_request, obj in self.ops:
            self.begun_at.append(self.ctx.now.to("ns"))
            if is_request:
                reply = yield from self.port.request(obj)
                self.replies.append(reply)
            else:
                yield from self.port.send(obj)
            self.done_at.append(self.ctx.now.to("ns"))

    @property
    def latencies(self):
        """Each operation's duration (ns)."""
        return [done - begun
                for begun, done in zip(self.begun_at, self.done_at)]


# ---------------------------------------------------------------------------
# SW master: the device driver's PIO and handshake timing (E5's setup)
# ---------------------------------------------------------------------------


def sw_master_round_trip(use_irq, poll_interval=ns(200), rounds=6,
                         words=16, compute=us(5)):
    """E5's system: mean round trip (ns) of a ``words``-word request to
    an accelerator that computes for ``compute``, and the driver's PIO
    counts."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    os = Rtos("os", top, context_switch=ns(200))
    link = SystemMapper(
        top, plb, mailbox_base=0x80000, capacity_words=64,
        use_irq=use_irq, poll_interval=poll_interval,
        driver_overhead=ns(100),
    ).connect("acc", master="sw")
    Echo("hw", top, link.slave_attach, compute=compute,
         answer=lambda msg: msg)
    payload = ShipIntArray(list(range(words)))
    app = Issuer("app", top, link.master_attach, [(True, payload)] * rounds)
    rehost(os, app)
    ctx.run(us(1_000_000))
    latencies = app.latencies
    assert len(latencies) == rounds
    return (sum(latencies) / rounds, link.bus_side.pio_reads,
            link.bus_side.pio_writes)


@pytest.mark.parametrize("words,expected", [
    (4, (500.0, 18, 18)),
    (16, (780.0, 24, 24)),
    (64, (2020.0, 54, 60)),
    (256, (6820.0, 162, 186)),     # four chunks through a 64-word mailbox
])
def test_sw_master_round_trip_vs_message_size(words, expected):
    """E5a's setup: IRQ handshake, an accelerator that answers at once."""
    assert sw_master_round_trip(use_irq=True, words=words,
                                compute=ns(0)) == expected


def test_sw_master_irq_round_trip():
    assert sw_master_round_trip(use_irq=True) == (5670.0, 24, 24)


def test_sw_master_fast_polling_round_trip():
    assert sw_master_round_trip(
        use_irq=False, poll_interval=ns(100)) == (5750.0, 258, 24)


def test_sw_master_slow_polling_round_trip():
    assert sw_master_round_trip(
        use_irq=False, poll_interval=us(2)) == (6900.0, 48, 24)


def test_sw_master_polled_task_driver_round_trip():
    """A2's task driver: one request through a 4-word mailbox, polled
    every 100 ns, with no context-switch or driver cost: the reply, the
    PLB transactions and when the last of them ended (ns)."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    os = Rtos("os", top)
    link = SystemMapper(
        top, plb, mailbox_base=0x8000, use_irq=False,
        poll_interval=ns(100), capacity_words=4,
    ).connect("acc", master="sw")
    Echo("pe", top, link.slave_attach,
         answer=lambda msg: ShipInt(msg.value + 1000))
    app = Issuer("app", top, link.master_attach, [(True, ShipInt(7))])
    rehost(os, app)
    ctx.run(us(100_000))
    assert ([reply.value for reply in app.replies], plb.stats.transactions,
            ctx.last_activity_time.to("ns")) == ([1007], 7, 290.0)


def sw_master_with_background(use_irq):
    """Round trips (ns) of a polled or IRQ-driven request and the CPU
    time a lower-priority task got meanwhile: the driver holds the CPU
    for PIO only, and sleeps or blocks in between."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    os = Rtos("os", top, context_switch=ns(200))
    link = SystemMapper(
        top, plb, mailbox_base=0x80000, capacity_words=64,
        use_irq=use_irq, poll_interval=us(1), driver_overhead=ns(100),
    ).connect("acc", master="sw")
    Echo("hw", top, link.slave_attach, compute=us(5),
         answer=lambda msg: msg)
    app = Issuer("app", top, link.master_attach,
                 [(True, ShipIntArray([1, 2, 3]))] * 3)
    rehost(os, app)

    def background():
        while len(app.done_at) < 3:
            yield from os.execute(ns(100))

    bg = os.create_task(background, "bg", priority=20)
    ctx.run(us(1_000))
    return app.latencies, bg.cpu_time.to("ns")


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


def hw_master_run(use_irq):
    """Per request: when the SW slave got it and when the HW saw the
    reply (ns), over a CPU-local mailbox with nonzero driver costs.
    ``use_irq`` is the mapper's: the HW master waits for each reply on
    the mailbox's interrupt or polls for it."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    os = Rtos("os", top, context_switch=ns(200))
    link = SystemMapper(
        top, plb, mailbox_base=0x9000, capacity_words=CAPACITY,
        use_irq=use_irq, poll_interval=ns(100), driver_overhead=ns(50),
    ).connect("sensor", slave="sw")
    link.owner_side.copy_cost_per_word = ns(10)
    ops = [(True, framed(size, fill=i))
           for i, size in enumerate(HW_MASTER_SIZES)]
    hw = Issuer("hw", top, link.master_attach, ops)
    sw = Echo("rx", top, link.slave_attach)
    rehost(os, sw)
    ctx.run(us(1_000))
    assert hw.replies == [reply_for(obj) for _, obj in ops]
    return list(zip(sw.received_at, hw.done_at))


def test_hw_master_irq_reply_timing():
    assert hw_master_run(use_irq=True) == [
        (270.0, 450.0), (670.0, 970.0), (1210.0, 1610.0),
        (1880.0, 2300.0), (2950.0, 3870.0),
    ]


def test_hw_master_polled_reply_timing():
    assert hw_master_run(use_irq=False) == [
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
        (conn.bus_side.poll_reads, conn.owner_side.mailbox.bus_reads,
         conn.owner_side.mailbox.bus_writes)
        for conn in system.extras["links"]
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


#: (master, slave) kinds; SW->SW maps to a local channel on any fabric
ORIENTATIONS = (("hw", "hw"), ("sw", "hw"), ("hw", "sw"), ("sw", "sw"))

#: every CAM, the RTL bus core, and a prototype, whose sockets are pin
#: masters behind accessors
TARGETS = FABRICS + ("rtl", "prototype")


def _fabric(target, top):
    if target in FABRICS:
        return build_fabric(ArchitectureConfig(fabric=target), top, ())
    clk = Clock("clk", top, period=ns(10))
    if target == "rtl":
        return RtlBusCore("core", top, clock=clk)
    return build_prototype("proto", top, clk)


def _deliver(ops, fabric, orientation, interrupt):
    """Map one connection with ``orientation`` onto ``fabric``, run
    ``ops`` through it and return what the slave received, the requests
    it owed after each receive, and the replies the master got.  The
    slave answers on its own request count, not on ``ops``; whichever
    end is software is the same PE, re-hosted.  A run on a CAM ends
    when it starves; a clocked fabric never starves, so its run stops
    once the slave holds every message and the master every reply."""
    master, slave = orientation
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    os = Rtos("os", top, context_switch=ns(50))
    link = SystemMapper(
        top, _fabric(fabric, top),
        capacity_words=PROP_CAPACITY, use_irq=interrupt,
        poll_interval=ns(100), driver_overhead=ns(20),
    ).connect("lnk", master=master, slave=slave)
    if orientation == ("hw", "sw"):
        link.owner_side.copy_cost_per_word = ns(5)
    issuer = Issuer("m", top, link.master_attach, ops)
    echo = Echo("s", top, link.slave_attach)
    rehost(os, *[pe for pe, kind in ((issuer, master), (echo, slave))
                 if kind == "sw"])
    requests = sum(is_request for is_request, _ in ops)

    def until_delivered():
        while (len(echo.received) < len(ops)
               or len(issuer.replies) < requests):
            yield ns(100)
        ctx.stop()

    if fabric not in FABRICS:
        ctx.register_thread(until_delivered, "until_delivered")
    ctx.run(us(10_000))
    return echo.received, echo.owed, issuer.replies


@settings(max_examples=280, deadline=None)
@given(stream=streams, interrupt=st.booleans(),
       fabric=st.sampled_from(TARGETS),
       orientation=st.sampled_from(ORIENTATIONS))
def test_every_orientation_delivers_in_order(stream, interrupt, fabric,
                                             orientation):
    ops = _ops(stream)
    received, owed, replies = _deliver(ops, fabric, orientation, interrupt)
    assert received == [obj for _, obj in ops]
    # the slave tells a request from a send by itself
    assert owed == [int(is_request) for is_request, _ in ops]
    assert replies == [reply_for(obj) for is_request, obj in ops
                       if is_request]
