"""Unit tests for the generic SHIP-based HW/SW interface, as
:class:`~repro.flow.mapping.SystemMapper` builds it on a PLB."""

import pytest

from repro.kernel import Module, SimulationError, ns, us
from repro.cam import PlbBus
from repro.flow import SystemMapper
from repro.models import ProcessingElement
from repro.rtos import Rtos
from repro.ship import (
    Role,
    ShipInt,
    ShipIntArray,
    ShipMasterPort,
    ShipSlavePort,
)


class HwEcho(ProcessingElement):
    """HW slave PE: replies value+offset; never sees the bus."""

    def __init__(self, name, parent, chan, offset=1000,
                 latency=ns(100)):
        super().__init__(name, parent)
        self.offset = offset
        self.latency = latency
        self.received = []
        self.port = self.ship_port("port", ShipSlavePort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        while True:
            req = yield from self.port.recv()
            self.received.append(req.value)
            yield self.latency
            yield from self.port.reply(ShipInt(req.value + self.offset))


class HwProducer(ProcessingElement):
    """HW master PE: pushes arrays to software."""

    def __init__(self, name, parent, chan, frames):
        super().__init__(name, parent)
        self.frames = frames
        self.acks = []
        self.port = self.ship_port("port", ShipMasterPort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        for frame in self.frames:
            yield ns(50)
            reply = yield from self.port.request(ShipIntArray(frame))
            self.acks.append(reply.value)


class TestSwMasterDirection:
    def _system(self, ctx, top, use_irq=True, poll_interval=ns(100)):
        plb = PlbBus("plb", top)
        os = Rtos("os", top, context_switch=ns(200))
        link = SystemMapper(
            top, plb, rtos=os, mailbox_base=0x8000, capacity_words=256,
            use_irq=use_irq, poll_interval=poll_interval,
            driver_overhead=ns(100),
        ).connect("acc", master="sw")
        hw = HwEcho("hw", top, link.slave_attach)
        return plb, os, link, hw

    def test_request_reply_round_trip(self, ctx, top):
        plb, os, link, hw = self._system(ctx, top)
        results = []

        def main():
            for i in range(3):
                reply = yield from link.master_attach.request(ShipInt(i))
                results.append(reply.value)

        os.create_task(main, "main", priority=5)
        ctx.run(us(1000))
        assert results == [1000, 1001, 1002]
        assert hw.received == [0, 1, 2]

    def test_send_without_reply(self, ctx, top):
        plb = PlbBus("plb", top)
        os = Rtos("os", top)
        link = SystemMapper(
            top, plb, rtos=os, mailbox_base=0x8000, capacity_words=256,
            use_irq=True,
        ).connect("acc", master="sw")
        received = []

        class Sink(ProcessingElement):
            def __init__(self, name, parent, chan):
                super().__init__(name, parent)
                self.port = self.ship_port("port", ShipSlavePort)
                self.port.bind(chan)
                self.add_thread(self.run)

            def run(self):
                while True:
                    msg = yield from self.port.recv()
                    received.append(msg.value)

        Sink("hw", top, link.slave_attach)

        def main():
            yield from link.master_attach.send(ShipInt(7))

        os.create_task(main, "main", priority=5)
        ctx.run(us(1000))
        assert received == [7]
        assert link.master_attach.messages_sent == 1
        assert link.master_attach.replies_received == 0

    def test_sw_side_detected_as_master(self, ctx, top):
        plb, os, link, hw = self._system(ctx, top)

        def main():
            yield from link.master_attach.request(ShipInt(1))

        os.create_task(main, "main", priority=5)
        ctx.run(us(1000))
        assert link.master_attach.detected_role is Role.MASTER
        assert link.slave_attach.detected_role(hw.port.end) is Role.SLAVE

    def test_polling_mode_issues_more_pio_reads(self, ctx, top):
        plb1, os1, link_irq, _ = self._system(ctx, top, use_irq=True)

        def main_irq():
            yield from link_irq.master_attach.request(ShipInt(1))

        os1.create_task(main_irq, "main", priority=5)
        ctx.run(us(1000))
        irq_reads = link_irq.bus_side.pio_reads

        from repro.kernel import SimContext

        ctx2 = SimContext()
        top2 = Module("top", ctx=ctx2)
        plb2, os2, link_poll, _ = self._system(ctx2, top2, use_irq=False,
                                               poll_interval=ns(50))

        def main_poll():
            yield from link_poll.master_attach.request(ShipInt(1))

        os2.create_task(main_poll, "main", priority=5)
        ctx2.run(us(1000))
        assert link_poll.bus_side.pio_reads > irq_reads

    def test_cpu_released_while_waiting_on_irq(self, ctx, top):
        plb, os, link, hw = self._system(ctx, top, use_irq=True)
        background_progress = []

        def main():
            yield from link.master_attach.request(ShipInt(1))

        def background():
            while True:
                yield from os.execute(ns(500))
                background_progress.append(str(ctx.now))
                if len(background_progress) > 5:
                    return

        os.create_task(main, "main", priority=1)
        os.create_task(background, "bg", priority=20)
        ctx.run(us(1000))
        # the low-priority task made progress during the HW wait
        assert len(background_progress) >= 2


class TestSwSlaveDirection:
    def _system(self, ctx, top):
        plb = PlbBus("plb", top)
        os = Rtos("os", top)
        link = SystemMapper(
            top, plb, rtos=os, mailbox_base=0x9000, capacity_words=256,
            use_irq=True, driver_overhead=ns(50),
        ).connect("sensor", slave="sw")
        link.owner_side.copy_cost_per_word = ns(10)
        return plb, os, link

    def test_hw_to_sw_request_reply(self, ctx, top):
        plb, os, link = self._system(ctx, top)
        frames = [[1, 2, 3], [4, 5, 6]]
        hw = HwProducer("hw", top, link.master_attach, frames)
        seen = []

        def rx():
            while True:
                msg = yield from link.slave_attach.recv()
                seen.append(msg.values)
                yield from link.slave_attach.reply(ShipInt(sum(msg.values)))

        os.create_task(rx, "rx", priority=5)
        ctx.run(us(1000))
        assert seen == frames
        assert hw.acks == [6, 15]

    def test_sw_side_detected_as_slave(self, ctx, top):
        plb, os, link = self._system(ctx, top)
        hw = HwProducer("hw", top, link.master_attach, [[1]])

        def rx():
            msg = yield from link.slave_attach.recv()
            yield from link.slave_attach.reply(ShipInt(0))

        os.create_task(rx, "rx", priority=5)
        ctx.run(us(1000))
        assert link.slave_attach.detected_role is Role.SLAVE

    def test_reply_without_request_rejected(self, ctx, top):
        plb, os, link = self._system(ctx, top)

        def rx():
            yield from link.slave_attach.reply(ShipInt(0))

        os.create_task(rx, "rx", priority=5)
        with pytest.raises(SimulationError, match="no outstanding"):
            ctx.run(us(100))
