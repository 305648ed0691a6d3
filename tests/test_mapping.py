"""Unit tests for the automatic communication mapper (SystemMapper)."""

import pytest

from repro.accessors import build_prototype
from repro.kernel import Clock, ElaborationError, Module, SimContext, ns, us
from repro.cam import PLB_TIMING, CrossbarCam, PlbBus
from repro.esw import PartitionSpec, generate_esw
from repro.flow import SystemMapper
from repro.flow.mapping import master_socket_name
from repro.hwsw import PioSocket, SwShipEnd
from repro.models import (
    ProcessingElement,
    ShipBusMasterWrapper,
    ShipBusSlaveWrapper,
)
from repro.models.mailbox import MailboxBusSide, MailboxOwnerSide
from repro.rtl import RtlBusCore
from repro.rtos import Rtos
from repro.ship import ShipInt, ShipMasterPort, ShipSlavePort, ShipTiming


class Client(ProcessingElement):
    def __init__(self, name, parent, attach, jobs=3):
        super().__init__(name, parent)
        self.jobs = jobs
        self.got = []
        self.port = self.ship_port("port", ShipMasterPort)
        self.port.bind(attach)
        self.add_thread(self.run)

    def run(self):
        for i in range(self.jobs):
            reply = yield from self.port.request(ShipInt(i))
            self.got.append(reply.value)


class Server(ProcessingElement):
    def __init__(self, name, parent, attach):
        super().__init__(name, parent)
        self.port = self.ship_port("port", ShipSlavePort)
        self.port.bind(attach)
        self.add_thread(self.run)

    def run(self):
        while True:
            req = yield from self.port.recv()
            yield from self.port.reply(ShipInt(req.value + 100))


GOLDEN = [100, 101, 102]


def run_hw_hw(mapper_factory):
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    mapper = mapper_factory(top)
    conn = mapper.connect("c0")
    client = Client("client", top, conn.master_attach)
    Server("server", top, conn.slave_attach)
    ctx.run(us(100_000))
    return client.got, conn, ctx


class TestHardwareTargets:
    def test_pv_target(self):
        got, conn, _ = run_hw_hw(lambda top: SystemMapper(top, "pv"))
        assert got == GOLDEN
        assert "untimed" in conn.mapping

    def test_ccatb_target_adds_time(self):
        _, _, ctx_pv = run_hw_hw(lambda top: SystemMapper(top, "pv"))
        got, conn, ctx_cc = run_hw_hw(
            lambda top: SystemMapper(
                top, "ccatb",
                ship_timing=ShipTiming(base_latency=ns(100)),
            )
        )
        assert got == GOLDEN
        assert ctx_cc.last_activity_time > ctx_pv.last_activity_time

    def test_fabric_target_allocates_mailboxes(self):
        bases = []

        def factory(top):
            plb = PlbBus("plb", top)
            mapper = SystemMapper(top, plb, poll_interval=ns(100),
                                  mailbox_base=0x40000)
            bases.append(mapper)
            return mapper

        got, conn, _ = run_hw_hw(factory)
        assert got == GOLDEN
        assert "0x40000" in conn.mapping
        mapper = bases[0]
        # a second connection gets the next window
        ctx2 = SimContext()
        top2 = Module("top", ctx=ctx2)
        plb2 = PlbBus("plb", top2)
        mapper2 = SystemMapper(top2, plb2, mailbox_base=0x40000)
        c1 = mapper2.connect("a")
        c2 = mapper2.connect("b")
        assert "0x40000" in c1.mapping
        assert "0x50000" in c2.mapping

    def test_crossbar_fabric_works_too(self):
        def factory(top):
            xbar = CrossbarCam("xbar", top, clock_period=ns(10))
            return SystemMapper(top, xbar, poll_interval=ns(100))

        got, conn, _ = run_hw_hw(factory)
        assert got == GOLDEN


class TestSoftwareEndpoints:
    """The same Client and Server on either side; eSW generation
    re-hosts whichever end is software."""

    def _run(self, master, slave, target="fabric"):
        ctx = SimContext()
        top = Module("top", ctx=ctx)
        os = Rtos("os", top)
        if target == "fabric":
            fabric = PlbBus("plb", top)
            mapper = SystemMapper(top, fabric, poll_interval=ns(100))
        else:
            mapper = SystemMapper(top, target)
        conn = mapper.connect("c0", master=master, slave=slave)
        client = Client("client", top, conn.master_attach)
        server = Server("server", top, conn.slave_attach)
        generate_esw(PartitionSpec(
            software=[pe for pe, kind in ((client, master), (server, slave))
                      if kind == "sw"],
            priorities={"client": 5, "server": 6},
        ), os)
        ctx.run(us(100_000))
        return client.got, conn

    def test_sw_master_hw_slave(self):
        got, conn = self._run("sw", "hw")
        assert got == GOLDEN
        assert "SW master" in conn.mapping

    def test_hw_master_sw_slave(self):
        got, conn = self._run("hw", "sw")
        assert got == GOLDEN
        assert "HW master" in conn.mapping

    def test_sw_sw_local_channel(self):
        got, conn = self._run("sw", "sw")
        assert got == GOLDEN
        assert "local channel" in conn.mapping
        # same CPU: no mailbox and no bus side on the fabric
        assert (conn.bus_side, conn.owner_side) == (None, None)

    def test_sw_endpoints_on_pv_target(self):
        got, conn = self._run("sw", "sw", target="pv")
        assert got == GOLDEN


class TestFabricComposition:
    """One mailbox link for every orientation with a HW end."""

    @pytest.mark.parametrize("use_irq", [False, True])
    @pytest.mark.parametrize("master,slave,bus_kind,owner_kind", [
        ("hw", "hw", ShipBusMasterWrapper, ShipBusSlaveWrapper),
        ("sw", "hw", MailboxBusSide, ShipBusSlaveWrapper),
        ("hw", "sw", ShipBusMasterWrapper, MailboxOwnerSide),
    ])
    def test_mailbox_and_both_sides(self, ctx, top, master, slave,
                                    bus_kind, owner_kind, use_irq):
        plb = PlbBus("plb", top)
        mapper = SystemMapper(top, plb, mailbox_base=0x40000,
                              use_irq=use_irq)
        conn = mapper.connect("c0", master=master, slave=slave)
        assert type(conn.bus_side) is bus_kind
        assert type(conn.owner_side) is owner_kind
        # a SW end is the attachment and runs its side in the task
        for kind, attach, side in ((master, conn.master_attach,
                                    conn.bus_side),
                                   (slave, conn.slave_attach,
                                    conn.owner_side)):
            assert (kind == "sw") == isinstance(attach, SwShipEnd)
            if kind == "sw":
                assert attach.side is side
        mailbox = conn.owner_side.mailbox
        assert conn.bus_side.base == 0x40000
        socket = conn.bus_side.socket
        if master == "sw":
            # programmed I/O: the same socket, its waits CPU-held
            assert isinstance(socket, PioSocket)
            socket = socket.socket
        assert socket is plb.master_socket(master_socket_name("c0"))
        # the mapper's use_irq decides for every orientation
        assert (mailbox.irq is not None) == use_irq
        assert conn.bus_side.irq is mailbox.irq

    def test_link_label_names_its_fabric(self, ctx, top):
        clk = Clock("clk", top, period=ns(10))
        fabrics = {
            "top.plb": PlbBus("plb", top),
            "top.core": RtlBusCore("core", top, clock=clk,
                                   timing=PLB_TIMING),
            "top.proto": build_prototype("proto", top, clk),
        }
        for index, (fabric_name, fabric) in enumerate(fabrics.items()):
            conn = SystemMapper(top, fabric).connect(f"c{index}")
            assert conn.mapping == (
                f"SHIP-over-{fabric_name} link (HW master, HW slave), "
                "mailbox @ 0x100000"
            )


class TestMapperValidation:
    def test_unknown_target_rejected(self, ctx, top):
        with pytest.raises(ElaborationError, match="unknown mapping"):
            SystemMapper(top, "rtl")

    def test_non_fabric_object_rejected(self, ctx, top):
        with pytest.raises(ElaborationError, match="attach_slave"):
            SystemMapper(top, object())

    def test_duplicate_connection_name_rejected(self, ctx, top):
        mapper = SystemMapper(top, "pv")
        mapper.connect("c0")
        with pytest.raises(ElaborationError, match="already mapped"):
            mapper.connect("c0")

    def test_bad_endpoint_kind_rejected(self, ctx, top):
        plb = PlbBus("plb", top)
        mapper = SystemMapper(top, plb)
        with pytest.raises(ElaborationError, match="hw.*sw|'hw' or 'sw'"):
            mapper.connect("c0", master="fpga")
        # the rejected connection took no name, address or bus resource
        assert plb.slaves == []
        assert "0x100000" in mapper.connect("c0").mapping
