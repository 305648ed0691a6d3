"""Unit tests for SHIP-over-bus wrappers and the wrapper matrix (E8)."""

import pytest

from repro.kernel import Clock, Module, ns, us
from repro.cam import CrossbarCam, GenericBus, MemorySlave, OpbBus, PlbBus
from repro.flow import SystemMapper
from repro.models import ProcessingElement
from repro.models.wrappers import connect_pin_master_to_bus
from repro.ocp import OcpCmd, OcpPinMaster, OcpRequest
from repro.ship import ShipInt, ShipIntArray, ShipMasterPort, ShipSlavePort


class EchoMaster(ProcessingElement):
    """Sends values, requests their echo, records replies."""

    def __init__(self, name, parent, chan, values):
        super().__init__(name, parent)
        self.values = values
        self.replies = []
        self.port = self.ship_port("port", ShipMasterPort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        for v in self.values:
            reply = yield from self.port.request(ShipInt(v))
            self.replies.append(reply.value)


class EchoSlave(ProcessingElement):
    """Replies to each request with value + offset."""

    def __init__(self, name, parent, chan, offset=100):
        super().__init__(name, parent)
        self.offset = offset
        self.received = []
        self.port = self.ship_port("port", ShipSlavePort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        while True:
            req = yield from self.port.recv()
            self.received.append(req.value)
            yield from self.port.reply(ShipInt(req.value + self.offset))


def make_bus(kind, top):
    if kind == "plb":
        return PlbBus("bus", top)
    if kind == "opb":
        return OpbBus("bus", top)
    if kind == "generic":
        return GenericBus("bus", top, clock_period=ns(10))
    return CrossbarCam("bus", top, clock_period=ns(10))


class TestShipOverBusMatrix:
    @pytest.mark.parametrize("fabric", ["plb", "opb", "generic",
                                        "crossbar"])
    def test_request_reply_over_every_fabric(self, ctx, top, fabric):
        bus = make_bus(fabric, top)
        link = SystemMapper(top, bus, mailbox_base=0x8000,
                            capacity_words=64,
                            poll_interval=ns(100)).connect("lnk")
        master = EchoMaster("m", top, link.master_attach, [1, 2, 3])
        slave = EchoSlave("s", top, link.slave_attach)
        ctx.run(us(10_000))
        assert master.replies == [101, 102, 103]
        assert slave.received == [1, 2, 3]

    def test_large_message_chunks_and_reassembles(self, ctx, top):
        bus = PlbBus("bus", top)
        link = SystemMapper(top, bus, mailbox_base=0x8000,
                            capacity_words=8,
                            poll_interval=ns(50)).connect("lnk")
        big = list(range(100))  # 400B payload >> 32B chunks
        received = []

        class Sender(ProcessingElement):
            def __init__(self, name, parent, chan):
                super().__init__(name, parent)
                self.port = self.ship_port("port", ShipMasterPort)
                self.port.bind(chan)
                self.add_thread(self.run)

            def run(self):
                yield from self.port.send(ShipIntArray(big))

        class Receiver(ProcessingElement):
            def __init__(self, name, parent, chan):
                super().__init__(name, parent)
                self.port = self.ship_port("port", ShipSlavePort)
                self.port.bind(chan)
                self.add_thread(self.run)

            def run(self):
                msg = yield from self.port.recv()
                received.append(msg.values)

        Sender("snd", top, link.master_attach)
        Receiver("rcv", top, link.slave_attach)
        ctx.run(us(10_000))
        assert received == [big]

    def test_irq_mode_avoids_reply_polling(self, ctx, top):
        bus = PlbBus("bus", top)
        link_poll = SystemMapper(
            top, bus, mailbox_base=0x8000, capacity_words=64,
            use_irq=False, poll_interval=ns(200),
        ).connect("poll")
        link_irq = SystemMapper(
            top, bus, mailbox_base=0x10000, capacity_words=64, use_irq=True,
        ).connect("irq")
        m1 = EchoMaster("m1", top, link_poll.master_attach, [1])
        EchoSlave("s1", top, link_poll.slave_attach)
        m2 = EchoMaster("m2", top, link_irq.master_attach, [2])
        EchoSlave("s2", top, link_irq.slave_attach)
        ctx.run(us(10_000))
        assert m1.replies == [101]
        assert m2.replies == [102]
        # polling link performs strictly more status reads
        assert (link_poll.bus_side.poll_reads
                > link_irq.bus_side.poll_reads)

    def test_wrapper_stats(self, ctx, top):
        bus = GenericBus("bus", top, clock_period=ns(10))
        link = SystemMapper(top, bus, mailbox_base=0x0, capacity_words=256,
                            poll_interval=ns(50)).connect("lnk")
        master = EchoMaster("m", top, link.master_attach, [5])
        EchoSlave("s", top, link.slave_attach)
        ctx.run(us(1000))
        assert link.bus_side.messages_forwarded == 1
        assert link.bus_side.replies_returned == 1
        assert link.owner_side.messages_delivered == 1
        assert link.owner_side.replies_sent == 1


class TestPinWrapper:
    def test_pin_master_reaches_bus_slave(self, ctx, top):
        clk = Clock("clk", top, period=ns(10))
        bus = PlbBus("bus", top)
        mem = MemorySlave("mem", top, size=4096, read_wait=0,
                          write_wait=0)
        bus.attach_slave(mem, 0, 4096)
        bundle, adapter = connect_pin_master_to_bus(
            "pe", top, bus, clk
        )
        master = OcpPinMaster("pe_drv", top, bundle=bundle)
        results = []

        def body():
            yield from master.transport(
                OcpRequest(OcpCmd.WR, 0x20, data=[5, 6],
                           burst_length=2)
            )
            resp = yield from master.transport(
                OcpRequest(OcpCmd.RD, 0x20, burst_length=2)
            )
            results.append(resp.data)
            ctx.stop()

        ctx.register_thread(body, "t")
        ctx.run(us(100))
        assert results == [[5, 6]]
        assert adapter.bursts_handled >= 1


class TestTlDirectAttachment:
    def test_ocp_tl_pe_binds_bus_socket_directly(self, ctx, top):
        from repro.ocp import OcpMasterPort

        bus = OpbBus("bus", top)
        mem = MemorySlave("mem", top, size=4096, read_wait=0,
                          write_wait=0)
        bus.attach_slave(mem, 0, 4096)

        class TlPE(Module):
            def __init__(self, name, parent, socket):
                super().__init__(name, parent)
                self.port = OcpMasterPort("port", self)
                self.port.bind(socket)
                self.result = None
                self.add_thread(self.run)

            def run(self):
                yield from self.port.write(0x8, [42])
                resp = yield from self.port.read(0x8)
                self.result = resp.data[0]

        pe = TlPE("pe", top, bus.master_socket("pe"))
        ctx.run()
        assert pe.result == 42
