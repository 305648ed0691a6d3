"""Unit tests for the generic SHIP-based HW/SW interface."""

import pytest

from repro.kernel import Module, Signal, SimulationError, ns, us
from repro.cam import PlbBus
from repro.hwsw import (
    IrqController,
    build_sw_master_interface,
    build_sw_slave_interface,
)
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
        link = build_sw_master_interface(
            "acc", top, plb, os, 0x8000,
            use_irq=use_irq, poll_interval=poll_interval,
            access_overhead=ns(100),
        )
        hw = HwEcho("hw", top, link.hw_channel)
        return plb, os, link, hw

    def test_request_reply_round_trip(self, ctx, top):
        plb, os, link, hw = self._system(ctx, top)
        results = []

        def main():
            for i in range(3):
                reply = yield from link.sw_port.request(ShipInt(i))
                results.append(reply.value)

        os.create_task(main, "main", priority=5)
        ctx.run(us(1000))
        assert results == [1000, 1001, 1002]
        assert hw.received == [0, 1, 2]

    def test_send_without_reply(self, ctx, top):
        plb = PlbBus("plb", top)
        os = Rtos("os", top)
        link = build_sw_master_interface("acc", top, plb, os, 0x8000)
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

        Sink("hw", top, link.hw_channel)

        def main():
            yield from link.sw_port.send(ShipInt(7))

        os.create_task(main, "main", priority=5)
        ctx.run(us(1000))
        assert received == [7]
        assert link.sw_port.messages_sent == 1
        assert link.sw_port.replies_received == 0

    def test_sw_side_detected_as_master(self, ctx, top):
        plb, os, link, hw = self._system(ctx, top)

        def main():
            yield from link.sw_port.request(ShipInt(1))

        os.create_task(main, "main", priority=5)
        ctx.run(us(1000))
        assert link.sw_port.detected_role is Role.MASTER
        assert link.hw_channel.detected_role(hw.port.end) is Role.SLAVE

    def test_polling_mode_issues_more_pio_reads(self, ctx, top):
        plb1, os1, link_irq, _ = self._system(ctx, top, use_irq=True)

        def main_irq():
            yield from link_irq.sw_port.request(ShipInt(1))

        os1.create_task(main_irq, "main", priority=5)
        ctx.run(us(1000))
        irq_reads = link_irq.driver.pio_reads

        from repro.kernel import SimContext

        ctx2 = SimContext()
        top2 = Module("top", ctx=ctx2)
        plb2, os2, link_poll, _ = self._system(ctx2, top2, use_irq=False,
                                               poll_interval=ns(50))

        def main_poll():
            yield from link_poll.sw_port.request(ShipInt(1))

        os2.create_task(main_poll, "main", priority=5)
        ctx2.run(us(1000))
        assert link_poll.driver.pio_reads > irq_reads

    def test_cpu_released_while_waiting_on_irq(self, ctx, top):
        plb, os, link, hw = self._system(ctx, top, use_irq=True)
        background_progress = []

        def main():
            yield from link.sw_port.request(ShipInt(1))

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
        link = build_sw_slave_interface(
            "sensor", top, plb, os, 0x9000,
            copy_cost_per_word=ns(10), access_overhead=ns(50),
        )
        return plb, os, link

    def test_hw_to_sw_request_reply(self, ctx, top):
        plb, os, link = self._system(ctx, top)
        frames = [[1, 2, 3], [4, 5, 6]]
        hw = HwProducer("hw", top, link.hw_channel, frames)
        seen = []

        def rx():
            while True:
                msg = yield from link.sw_port.recv()
                seen.append(msg.values)
                yield from link.sw_port.reply(ShipInt(sum(msg.values)))

        os.create_task(rx, "rx", priority=5)
        ctx.run(us(1000))
        assert seen == frames
        assert hw.acks == [6, 15]

    def test_sw_side_detected_as_slave(self, ctx, top):
        plb, os, link = self._system(ctx, top)
        hw = HwProducer("hw", top, link.hw_channel, [[1]])

        def rx():
            msg = yield from link.sw_port.recv()
            yield from link.sw_port.reply(ShipInt(0))

        os.create_task(rx, "rx", priority=5)
        ctx.run(us(1000))
        assert link.sw_port.detected_role is Role.SLAVE

    def test_reply_without_request_rejected(self, ctx, top):
        plb, os, link = self._system(ctx, top)

        def rx():
            yield from link.sw_port.reply(ShipInt(0))

        os.create_task(rx, "rx", priority=5)
        with pytest.raises(SimulationError, match="no outstanding"):
            ctx.run(us(100))


class TestIrqController:
    def test_lines_aggregate_to_cpu_event(self, ctx, top):
        irqc = IrqController("irqc", top, lines=4)
        line0 = Signal("l0", top, init=False, check_writer=False)
        line2 = Signal("l2", top, init=False, check_writer=False)
        irqc.connect(0, line0)
        irqc.connect(2, line2)
        fired = []

        def cpu():
            while True:
                yield irqc.cpu_irq
                fired.append((str(ctx.now), irqc.pending_lines()))

        def hw():
            yield ns(10)
            line2.write(True)
            yield ns(10)
            line0.write(True)

        ctx.register_thread(cpu, "cpu")
        ctx.register_thread(hw, "hw")
        ctx.run()
        assert fired[0] == ("10 ns", [2])
        assert fired[1][1] == [0, 2]
        assert irqc.irq_count == 2

    def test_disabled_line_does_not_fire(self, ctx, top):
        irqc = IrqController("irqc", top, lines=2)
        line = Signal("l", top, init=False, check_writer=False)
        irqc.connect(1, line)
        irqc.disable(1)
        fired = []

        def cpu():
            yield irqc.cpu_irq
            fired.append("fired")  # pragma: no cover

        def hw():
            yield ns(5)
            line.write(True)

        ctx.register_thread(cpu, "cpu")
        ctx.register_thread(hw, "hw")
        ctx.run()
        assert fired == []
        assert irqc.pending_mask == 0
        irqc.enable(1)
        assert irqc.is_enabled(1)
        assert irqc.pending_mask == 0b10

    def test_connection_validation(self, ctx, top):
        irqc = IrqController("irqc", top, lines=2)
        line = Signal("l", top, init=False, check_writer=False)
        irqc.connect(0, line)
        with pytest.raises(SimulationError, match="already connected"):
            irqc.connect(0, line)
        with pytest.raises(SimulationError, match="out of range"):
            irqc.connect(5, line)

    def test_irq_controller_wired_into_interface(self, ctx, top):
        plb = PlbBus("plb", top)
        os = Rtos("os", top)
        irqc = IrqController("irqc", top, lines=2)
        link = build_sw_master_interface(
            "acc", top, plb, os, 0x8000,
            use_irq=True, irq_controller=irqc, irq_line=1,
        )
        HwEcho("hw", top, link.hw_channel)
        results = []

        def main():
            reply = yield from link.sw_port.request(ShipInt(5))
            results.append(reply.value)

        os.create_task(main, "main", priority=5)
        ctx.run(us(1000))
        assert results == [1005]
        assert irqc.irq_count >= 1


class TestIrqControllerWithRtos:
    def test_isr_driven_by_aggregated_irq(self, ctx, top):
        """Sideband line -> IRQ controller -> blocked RTOS task, end to end."""
        from repro.kernel import Signal
        from repro.rtos import Rtos

        irqc = IrqController("irqc", top, lines=2)
        line = Signal("line", top, init=False, check_writer=False)
        irqc.connect(1, line)
        os = Rtos("os", top)
        handled = []

        def isr():
            yield from os.block_on(irqc.cpu_irq)
            for pending in irqc.pending_lines():
                handled.append((pending, str(ctx.now)))

        def app():
            yield from os.execute(us(10))
            handled.append(("app-done", str(ctx.now)))

        os.create_task(isr, "isr", priority=0)
        os.create_task(app, "app", priority=5)

        def hw():
            yield us(3)
            line.write(True)

        ctx.register_thread(hw, "hw")
        ctx.run(us(100))
        assert (1, "3 us") in handled
        assert ("app-done", "10 us") in handled
