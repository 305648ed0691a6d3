"""E8 — "virtually any PE can be connected to the CAM" (§3).

The wrapper claim: PEs with SHIP, OCP-TL, or pin-accurate OCP
interfaces all attach to any communication architecture in the CAM
library.  This benchmark runs the full compatibility matrix — three PE
interface styles x four fabrics — moving the same data through each
combination and checking it arrives intact.

Shape: 12/12 combinations functionally pass.
"""

import pytest

from repro.kernel import Clock, Module, SimContext, ns, us
from repro.cam import CrossbarCam, GenericBus, MemorySlave, OpbBus, PlbBus
from repro.flow import SystemMapper
from repro.models import ProcessingElement, connect_pin_master_to_bus
from repro.ocp import OcpCmd, OcpMasterPort, OcpPinMaster, OcpRequest
from repro.ship import ShipIntArray, ShipMasterPort, ShipSlavePort

from _util import print_table

FABRICS = ("plb", "opb", "generic", "crossbar")
PE_STYLES = ("ship", "ocp-tl", "ocp-pin")
DATA = list(range(24))


def make_fabric(kind, top):
    if kind == "plb":
        return PlbBus("bus", top)
    if kind == "opb":
        return OpbBus("bus", top)
    if kind == "generic":
        return GenericBus("bus", top, clock_period=ns(10))
    return CrossbarCam("bus", top, clock_period=ns(10))


def run_ship_pe(fabric_kind):
    """SHIP PE -> wrapper -> fabric -> mailbox -> SHIP PE."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    bus = make_fabric(fabric_kind, top)
    link = SystemMapper(top, bus, mailbox_base=0x8000, capacity_words=32,
                        poll_interval=ns(100)).connect("lnk")
    received = []

    class Sender(ProcessingElement):
        def __init__(self, name, parent, chan):
            super().__init__(name, parent)
            self.port = self.ship_port("port", ShipMasterPort)
            self.port.bind(chan)
            self.add_thread(self.run)

        def run(self):
            yield from self.port.send(ShipIntArray(DATA))

    class Receiver(ProcessingElement):
        def __init__(self, name, parent, chan):
            super().__init__(name, parent)
            self.port = self.ship_port("port", ShipSlavePort)
            self.port.bind(chan)
            self.add_thread(self.run)

        def run(self):
            msg = yield from self.port.recv()
            received.append(msg.values)

    Sender("tx", top, link.master_attach)
    Receiver("rx", top, link.slave_attach)
    ctx.run(us(100_000))
    return received == [DATA]


def run_ocp_tl_pe(fabric_kind):
    """OCP-TL PE (blocking transport port) -> fabric -> memory."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    bus = make_fabric(fabric_kind, top)
    mem = MemorySlave("mem", top, size=4096, read_wait=1, write_wait=1)
    bus.attach_slave(mem, 0, 4096)
    result = []

    class TlPE(Module):
        def __init__(self, name, parent, socket):
            super().__init__(name, parent)
            self.port = OcpMasterPort("port", self)
            self.port.bind(socket)
            self.add_thread(self.run)

        def run(self):
            # stay within the PLB 16-beat burst limit
            half = len(DATA) // 2
            yield from self.port.write(0x100, DATA[:half])
            yield from self.port.write(0x100 + half * 4, DATA[half:])
            r1 = yield from self.port.read(0x100, burst_length=half)
            r2 = yield from self.port.read(0x100 + half * 4,
                                           burst_length=half)
            result.append(r1.data + r2.data)

    TlPE("pe", top, bus.master_socket("pe"))
    ctx.run(us(100_000))
    return result == [DATA]


def run_ocp_pin_pe(fabric_kind):
    """Pin-accurate OCP PE -> pin wrapper -> fabric -> memory."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    clk = Clock("clk", top, period=ns(10))
    bus = make_fabric(fabric_kind, top)
    mem = MemorySlave("mem", top, size=4096, read_wait=1, write_wait=1)
    bus.attach_slave(mem, 0, 4096)
    bundle, _adapter = connect_pin_master_to_bus("pe", top, bus, clk)
    master = OcpPinMaster("drv", top, bundle=bundle)
    result = []

    def body():
        # PLB bursts cap at 16 beats: split like a real pin master would
        half = len(DATA) // 2
        yield from master.transport(OcpRequest(
            OcpCmd.WR, 0x100, data=DATA[:half], burst_length=half))
        yield from master.transport(OcpRequest(
            OcpCmd.WR, 0x100 + half * 4, data=DATA[half:],
            burst_length=half))
        r1 = yield from master.transport(OcpRequest(
            OcpCmd.RD, 0x100, burst_length=half))
        r2 = yield from master.transport(OcpRequest(
            OcpCmd.RD, 0x100 + half * 4, burst_length=half))
        result.append(r1.data + r2.data)
        ctx.stop()

    ctx.register_thread(body, "t")
    ctx.run(us(100_000))
    return result == [DATA]


RUNNERS = {
    "ship": run_ship_pe,
    "ocp-tl": run_ocp_tl_pe,
    "ocp-pin": run_ocp_pin_pe,
}


@pytest.mark.parametrize("style", PE_STYLES)
@pytest.mark.parametrize("fabric", FABRICS)
def test_e8_combination(benchmark, style, fabric):
    ok = benchmark.pedantic(
        lambda: RUNNERS[style](fabric), rounds=1, iterations=1
    )
    assert ok, f"{style} PE failed over {fabric}"


def test_e8_matrix_table(benchmark):
    def run_matrix():
        return {
            (style, fabric): RUNNERS[style](fabric)
            for style in PE_STYLES
            for fabric in FABRICS
        }

    matrix = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    rows = []
    for style in PE_STYLES:
        row = {"pe_interface": style}
        for fabric in FABRICS:
            row[fabric] = "pass" if matrix[(style, fabric)] else "FAIL"
        rows.append(row)
    print_table("E8: wrapper compatibility matrix", rows)
    assert all(matrix.values()), "a wrapper combination failed"
