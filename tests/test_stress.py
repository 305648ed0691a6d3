"""Stress tests: many links, tiny mailboxes, variable-size messages.

These push the SHIP-over-bus machinery into its awkward corners —
chunk interleaving across independent links on one bus, deep
backpressure through 1-word mailboxes, and randomized message-size
mixes — checking for data corruption, reordering, and deadlock.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel import Module, SimContext, ns, us
from repro.cam import PlbBus
from repro.flow import SystemMapper
from repro.models import ProcessingElement
from repro.ship import ShipIntArray, ShipMasterPort, ShipSlavePort


class Streamer(ProcessingElement):
    """Sends a fixed list of arrays over its SHIP port."""

    def __init__(self, name, parent, chan, payloads):
        super().__init__(name, parent)
        self.payloads = payloads
        self.port = self.ship_port("port", ShipMasterPort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        """Send every payload in order."""
        for payload in self.payloads:
            yield from self.port.send(ShipIntArray(payload))


class Collector(ProcessingElement):
    """Receives ``count`` arrays and records them."""

    def __init__(self, name, parent, chan, count):
        super().__init__(name, parent)
        self.count = count
        self.received = []
        self.port = self.ship_port("port", ShipSlavePort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        """Collect the expected number of messages."""
        for _ in range(self.count):
            msg = yield from self.port.recv()
            self.received.append(msg.values)


def run_stress(links=4, messages=10, capacity_words=2, seed=1):
    """Build ``links`` independent SHIP links on one PLB and stream
    randomized payloads through all of them concurrently."""
    rng = random.Random(seed)
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    pairs = []
    for i in range(links):
        link = SystemMapper(
            top, plb, mailbox_base=0x10000 * (i + 1),
            capacity_words=capacity_words,
            poll_interval=ns(70 + 13 * i),   # deliberately unaligned
        ).connect(f"l{i}", bus_priority=i)
        payloads = [
            [rng.randrange(-10_000, 10_000)
             for _ in range(rng.randrange(1, 40))]
            for _ in range(messages)
        ]
        Streamer(f"tx{i}", top, link.master_attach, payloads)
        collector = Collector(f"rx{i}", top, link.slave_attach,
                              messages)
        pairs.append((payloads, collector))
    ctx.run(us(10_000_000))
    return pairs, ctx


class TestManyLinksOneBus:
    def test_no_corruption_or_reordering(self):
        pairs, ctx = run_stress(links=4, messages=10, capacity_words=2)
        for payloads, collector in pairs:
            assert collector.received == payloads

    def test_one_word_mailboxes_still_progress(self):
        """Worst-case chunking: every word is its own doorbell'd chunk."""
        pairs, ctx = run_stress(links=2, messages=6, capacity_words=1)
        for payloads, collector in pairs:
            assert collector.received == payloads

    def test_deterministic_under_fixed_seed(self):
        first, ctx1 = run_stress(links=3, messages=5, seed=42)
        second, ctx2 = run_stress(links=3, messages=5, seed=42)
        assert ctx1.last_activity_time == ctx2.last_activity_time
        for (p1, c1), (p2, c2) in zip(first, second):
            assert c1.received == c2.received


@given(
    sizes=st.lists(st.integers(1, 80), min_size=1, max_size=8),
    capacity=st.integers(1, 8),
)
@settings(max_examples=10, deadline=None)
def test_single_link_any_size_mix(sizes, capacity):
    """Property: any message-size mix survives any mailbox capacity."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    link = SystemMapper(top, plb, mailbox_base=0x8000,
                        capacity_words=capacity,
                        poll_interval=ns(50)).connect("l")
    payloads = [list(range(n)) for n in sizes]
    Streamer("tx", top, link.master_attach, payloads)
    collector = Collector("rx", top, link.slave_attach, len(payloads))
    ctx.run(us(10_000_000))
    assert collector.received == payloads
