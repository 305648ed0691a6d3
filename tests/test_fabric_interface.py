"""Every fabric is wired through one interface.

``attach_slave`` maps a slave into the fabric's address map
(:func:`repro.cam.bus.map_slave` behind every fabric) and
``master_socket`` creates or returns the socket of a name.  The CAMs,
the RTL bus core and a generated prototype all offer both, so
:class:`~repro.flow.SystemMapper` maps the same SHIP system onto any of
them with no adapter.
"""

from __future__ import annotations

import pytest

from repro.accessors import build_prototype
from repro.apps.pipeline import SinkPE, SourcePE, TransformPE, reference_output
from repro.cam import PLB_TIMING, CrossbarCam, MemorySlave, PlbBus
from repro.flow import SystemMapper
from repro.kernel import Clock, ElaborationError, Module, SimContext, ns, us
from repro.rtl import RtlBusCore

FABRICS = ("plb", "crossbar", "rtl", "prototype")


def build(kind, top):
    """Fabric ``kind`` under ``top``; the clocked ones on a 10 ns clock,
    the PLB's period."""
    if kind == "plb":
        return PlbBus("plb", top)
    if kind == "crossbar":
        return CrossbarCam("xb", top)
    clk = Clock("clk", top, period=ns(10))
    if kind == "rtl":
        return RtlBusCore("core", top, clock=clk, timing=PLB_TIMING)
    return build_prototype("proto", top, clk, fabric="plb")


def transactions(fabric):
    """Bus transactions the fabric completed."""
    if isinstance(fabric, PlbBus):
        return fabric.stats.transactions
    core = getattr(fabric, "core", fabric)
    return core.transactions_completed


@pytest.mark.parametrize("kind", FABRICS)
def test_address_map_rejects_bad_slaves(kind):
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    fabric = build(kind, top)
    # a prototype's address map is its core's
    bus = getattr(fabric, "core", fabric)
    m1 = MemorySlave("m1", top, size=0x100)
    m2 = MemorySlave("m2", top, size=0x100)
    for size in (0, -4):
        with pytest.raises(ElaborationError, match="size <= 0") as err:
            fabric.attach_slave(m1, 0x0, size)
        assert bus.full_name in str(err.value)
    with pytest.raises(ElaborationError, match="must be functional") as err:
        fabric.attach_slave(object(), 0x800, 0x100)
    assert bus.full_name in str(err.value)
    fabric.attach_slave(m1, 0x0, 0x100)
    with pytest.raises(ElaborationError, match="overlap") as err:
        fabric.attach_slave(m2, 0x80, 0x100)
    assert bus.full_name in str(err.value)
    assert "'top.m2' and 'top.m1'" in str(err.value)
    # rejected slaves leave the map as it was
    assert [binding.name for binding in bus.slaves] == ["top.m1"]


@pytest.mark.parametrize("kind", FABRICS)
def test_master_socket_returns_the_socket_of_that_name(kind):
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    fabric = build(kind, top)
    m0 = fabric.master_socket("m0")
    assert fabric.master_socket("m0", priority=3) is m0
    assert fabric.master_socket("m1") is not m0
    if kind in ("rtl", "prototype"):
        # one latch per name: the arbiters and snapshots key ports by it
        core = getattr(fabric, "core", fabric)
        assert [(p.name, p.priority, p.index) for p in core.ports] == [
            ("m0", 0, 0), ("m1", 0, 1)]
    if kind == "prototype":
        assert list(fabric.accessors) == ["m0", "m1"]


class LastBlockStops(SinkPE):
    """F1's sink, ending the run with its last block: a clocked fabric
    never starves."""

    def run(self):
        yield from super().run()
        self.ctx.stop()


#: (fabric, blocks) -> (sink's completion ns, bus transactions).  The
#: RTL core is the reference the CAM must reproduce; the prototype adds
#: the OCP pin handshakes to every transaction.
F1_PINS = {
    ("plb", 12): (6_860, 96),
    ("plb", 64): (32_860, 523),
    ("rtl", 12): (6_940, 96),
    ("rtl", 64): (32_940, 512),
    ("prototype", 12): (9_750, 96),
    ("prototype", 64): (47_190, 512),
}


@pytest.mark.parametrize("kind,blocks", sorted(F1_PINS))
def test_f1_maps_onto_every_fabric_unchanged(kind, blocks):
    """F1's three PEs on two mapped links (``build_cam``'s options),
    with no adapter between the mapper and the fabric."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    fabric = build(kind, top)
    mapper = SystemMapper(top, fabric, mailbox_base=0x10000,
                          poll_interval=ns(100))
    c1, c2 = (mapper.connect(f"c{i}", bus_priority=i) for i in (1, 2))
    SourcePE("source", top, c1.master_attach, blocks)
    TransformPE("transform", top, c1.slave_attach, c2.master_attach, blocks)
    sink = LastBlockStops("sink", top, c2.slave_attach, blocks)
    ctx.run(us(1_000))
    assert sink.results == reference_output(blocks)
    assert (ctx.now.to("ns"), transactions(fabric)) == F1_PINS[kind, blocks]
