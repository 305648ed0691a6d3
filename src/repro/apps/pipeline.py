"""A JPEG-encoder-like block pipeline, buildable at every flow level.

The canonical embedded application the TLM literature motivates with:
a source streams pixel blocks, a transform stage runs an integer
Walsh-Hadamard transform (a stand-in for the DCT with exact integer
arithmetic, so equivalence checks are bit-exact), and a sink quantizes
and records the result.

``build_pv`` / ``build_ccatb`` / ``build_cam`` / ``build_prototype_level``
construct the *same* pipeline at the four levels of Figure 1:

* **PV** (component-assembly): PEs on untimed SHIP channels;
* **CCATB**: the same PEs, channels annotated with transaction timing;
* **CAM**: the same PEs, channels carried over a CoreConnect PLB through
  the SHIP wrappers — real bus traffic, mailboxes, arbitration;
* **prototype**: communication refined to shared-memory staging over the
  pin-accurate RTL fabric through accessors (how the synthesized
  hardware actually moves bulk data), with the same transform math.

The first three are one wiring that a :class:`~repro.flow.SystemMapper`
maps onto each level, so the PE code is shared unchanged — the paper's
core claim — and the arithmetic is shared by all four: every level of
:func:`pipeline_flow` must produce identical sink output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.kernel import Clock, Module, SimContext, ns, ps, us
from repro.esw import ExecuteFor
from repro.flow import DesignFlow, SystemMapper
from repro.models import AbstractionLevel, ProcessingElement
from repro.cam import MemorySlave, PlbBus
from repro.ocp import OcpCmd, OcpPinBundle, OcpPinMaster, OcpRequest
from repro.accessors import SlaveMapEntry, build_prototype
from repro.ship import (
    ShipIntArray,
    ShipMasterPort,
    ShipSlavePort,
    ShipTiming,
)

#: Values per block (a 4x4 tile).
BLOCK_SIZE = 16


def generate_block(index: int) -> List[int]:
    """Deterministic test-pattern block (pseudo image data)."""
    return [((index * 31 + i * 7) % 251) - 125 for i in range(BLOCK_SIZE)]


def walsh_hadamard(block: List[int]) -> List[int]:
    """4x4 integer Walsh-Hadamard transform (rows then columns)."""
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"block must have {BLOCK_SIZE} values")

    def butterfly4(a, b, c, d):
        s0, s1 = a + b, a - b
        s2, s3 = c + d, c - d
        return [s0 + s2, s1 + s3, s0 - s2, s1 - s3]

    rows = [
        butterfly4(*block[r * 4:(r + 1) * 4]) for r in range(4)
    ]
    out = [0] * BLOCK_SIZE
    for c in range(4):
        col = butterfly4(rows[0][c], rows[1][c], rows[2][c], rows[3][c])
        for r in range(4):
            out[r * 4 + c] = col[r]
    return out


def quantize(block: List[int], step: int = 8) -> List[int]:
    """Quantization with round-toward-zero, as a fixed divider would."""
    return [int(v / step) for v in block]


def reference_output(blocks: int, quant_step: int = 8) -> List[List[int]]:
    """Golden model: what the sink must record for ``blocks`` blocks."""
    return [
        quantize(walsh_hadamard(generate_block(i)), quant_step)
        for i in range(blocks)
    ]


# ---------------------------------------------------------------------------
# SHIP processing elements (shared by PV / CCATB / CAM levels)
# ---------------------------------------------------------------------------


class SourcePE(ProcessingElement):
    """Streams blocks into the pipeline."""

    def __init__(self, name, parent, out_chan, blocks: int,
                 compute_time=ns(200)):
        super().__init__(name, parent)
        self.blocks = blocks
        self.compute_time = compute_time
        self.out = self.ship_port("out", ShipMasterPort)
        self.out.bind(out_chan)
        self.add_thread(self.run)

    def run(self):
        """Emit ``blocks`` generated blocks downstream."""
        for i in range(self.blocks):
            yield ExecuteFor(self.compute_time)
            yield from self.out.send(ShipIntArray(generate_block(i)))


class TransformPE(ProcessingElement):
    """Walsh-Hadamard transform stage."""

    def __init__(self, name, parent, in_chan, out_chan, blocks: int,
                 compute_time=ns(500)):
        super().__init__(name, parent)
        self.blocks = blocks
        self.compute_time = compute_time
        self.inp = self.ship_port("inp", ShipSlavePort)
        self.inp.bind(in_chan)
        self.out = self.ship_port("out", ShipMasterPort)
        self.out.bind(out_chan)
        self.add_thread(self.run)

    def run(self):
        """Transform each received block and forward it."""
        for _ in range(self.blocks):
            block = yield from self.inp.recv()
            yield ExecuteFor(self.compute_time)
            yield from self.out.send(
                ShipIntArray(walsh_hadamard(block.values))
            )


class SinkPE(ProcessingElement):
    """Quantizes and records the final blocks."""

    def __init__(self, name, parent, in_chan, blocks: int,
                 quant_step: int = 8, compute_time=ns(100)):
        super().__init__(name, parent)
        self.blocks = blocks
        self.quant_step = quant_step
        self.compute_time = compute_time
        self.results: List[List[int]] = []
        self.inp = self.ship_port("inp", ShipSlavePort)
        self.inp.bind(in_chan)
        self.add_thread(self.run)

    def run(self):
        """Quantize and record each received block."""
        for _ in range(self.blocks):
            block = yield from self.inp.recv()
            yield ExecuteFor(self.compute_time)
            self.results.append(quantize(block.values, self.quant_step))


@dataclass
class PipelineSystem:
    """Handle to a built pipeline: context, top module and its stages."""

    ctx: SimContext
    top: Module
    source: Module
    transform: Module
    sink: Module
    extras: dict = field(default_factory=dict)

    @property
    def pes(self) -> List[Module]:
        """The stages in pipeline order (what eSW generation re-hosts)."""
        return [self.source, self.transform, self.sink]

    def outputs(self) -> List[List[int]]:
        """The sink's recorded blocks."""
        return list(self.sink.results)


# ---------------------------------------------------------------------------
# Level builders
# ---------------------------------------------------------------------------


def _map_pipeline(level: str, blocks: int,
                  **mapper_options) -> PipelineSystem:
    """The SHIP pipeline, its two connections mapped by a
    :class:`SystemMapper` onto ``"pv"``, ``"ccatb"`` or (``"cam"``) a PLB."""
    ctx = SimContext(f"pipeline_{level}")
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top) if level == "cam" else None
    mapper = SystemMapper(top, level if plb is None else plb,
                          **mapper_options)
    # on a fabric the upstream link's master wins arbitration
    c1, c2 = (mapper.connect(f"c{i}", bus_priority=i) for i in (1, 2))
    source = SourcePE("source", top, c1.master_attach, blocks)
    transform = TransformPE("transform", top, c1.slave_attach,
                            c2.master_attach, blocks)
    sink = SinkPE("sink", top, c2.slave_attach, blocks)
    return PipelineSystem(ctx, top, source, transform, sink,
                          {"plb": plb, "links": (c1, c2)})


def build_pv(blocks: int = 16) -> PipelineSystem:
    """Component-assembly model: untimed SHIP channels."""
    return _map_pipeline("pv", blocks)


def build_ccatb(blocks: int = 16,
                timing: Optional[ShipTiming] = None) -> PipelineSystem:
    """CCATB model: the same PEs on timing-annotated channels.

    The default annotation costs 538 ns a block against the CAM's
    500 ns: the CCATB channel blocks the sender for each transfer,
    while the CAM wrappers overlap transfers with computation.  CCATB
    therefore ends before the CAM below 14 blocks and after it above.
    """
    return _map_pipeline(
        "ccatb", blocks,
        ship_timing=timing or ShipTiming(base_latency=ns(10),
                                         per_byte=ps(400)),
    )


def build_cam(blocks: int = 16, poll_interval=ns(100),
              use_irq: bool = False) -> PipelineSystem:
    """CAM level: SHIP channels carried over a CoreConnect PLB."""
    return _map_pipeline("cam", blocks, mailbox_base=0x10000,
                         poll_interval=poll_interval, use_irq=use_irq)


def build_prototype_level(blocks: int = 16) -> PipelineSystem:
    """Pin-accurate prototype: shared-memory staging over the RTL
    fabric through accessors.

    Each PE is refined to a pin-level OCP master; blocks move through
    two memory regions (A: source->transform, B: transform->sink) with
    one-word flags for flow control — the canonical refinement of a
    message-passing channel into the prototype's shared memory.
    """
    ctx = SimContext("pipeline_proto")
    top = Module("top", ctx=ctx)
    clk = Clock("clk", top, period=ns(10))
    mem = MemorySlave("mem", top, size=1 << 12, read_wait=1,
                      write_wait=1)
    bundles = {
        name: OcpPinBundle(f"{name}_pins", top, clock=clk)
        for name in ("source", "transform", "sink")
    }
    build_prototype("proto", top, clk, bundles,
                    [SlaveMapEntry(mem, 0, 1 << 12)], fabric="plb",
                    priorities={"source": 2, "transform": 1, "sink": 0})
    masters = {
        name: OcpPinMaster(f"{name}_drv", top, bundle=bundle)
        for name, bundle in bundles.items()
    }

    region_a, flag_a = 0x100, 0x0
    region_b, flag_b = 0x200, 0x4

    def write_block(master, base, values):
        yield from master.transport(OcpRequest(
            OcpCmd.WR, base, data=[v & 0xFFFFFFFF for v in values],
            burst_length=len(values),
        ))

    def read_block(master, base, count):
        resp = yield from master.transport(OcpRequest(
            OcpCmd.RD, base, burst_length=count,
        ))
        # words are stored unsigned; restore the sign
        return [v - (1 << 32) if v >= (1 << 31) else v
                for v in resp.data]

    def read_flag(master, addr):
        resp = yield from master.transport(OcpRequest(
            OcpCmd.RD, addr, burst_length=1,
        ))
        return resp.data[0]

    def write_flag(master, addr, value):
        yield from master.transport(OcpRequest(
            OcpCmd.WR, addr, data=[value], burst_length=1,
        ))

    def poll_flag(master, addr, want):
        while True:
            value = yield from read_flag(master, addr)
            if value == want:
                return
            yield clk.period * 4

    class ProtoSource(Module):
        def __init__(self, name, parent):
            super().__init__(name, parent)
            self.add_thread(self.run)

        def run(self):
            m = masters["source"]
            for i in range(blocks):
                yield ns(200)
                yield from poll_flag(m, flag_a, 0)
                yield from write_block(m, region_a, generate_block(i))
                yield from write_flag(m, flag_a, 1)

    class ProtoTransform(Module):
        def __init__(self, name, parent):
            super().__init__(name, parent)
            self.add_thread(self.run)

        def run(self):
            m = masters["transform"]
            for _ in range(blocks):
                yield from poll_flag(m, flag_a, 1)
                block = yield from read_block(m, region_a, BLOCK_SIZE)
                yield from write_flag(m, flag_a, 0)
                yield ns(500)
                transformed = walsh_hadamard(block)
                yield from poll_flag(m, flag_b, 0)
                yield from write_block(m, region_b, transformed)
                yield from write_flag(m, flag_b, 1)

    class ProtoSink(Module):
        def __init__(self, name, parent):
            super().__init__(name, parent)
            self.results: List[List[int]] = []
            self.add_thread(self.run)

        def run(self):
            m = masters["sink"]
            for _ in range(blocks):
                yield from poll_flag(m, flag_b, 1)
                block = yield from read_block(m, region_b, BLOCK_SIZE)
                yield from write_flag(m, flag_b, 0)
                yield ns(100)
                self.results.append(quantize(block))
            ctx.stop()

    source = ProtoSource("source_pe", top)
    transform = ProtoTransform("transform_pe", top)
    sink = ProtoSink("sink_pe", top)
    return PipelineSystem(ctx, top, source, transform, sink)


#: Level -> builder, in refinement order.
LEVEL_BUILDERS: Dict[AbstractionLevel, Callable[[int], PipelineSystem]] = {
    AbstractionLevel.COMPONENT_ASSEMBLY: build_pv,
    AbstractionLevel.CCATB: build_ccatb,
    AbstractionLevel.COMM_ARCHITECTURE: build_cam,
    AbstractionLevel.PIN_ACCURATE: build_prototype_level,
}

#: Simulated-time bound of a flow run: the prototype's sink stops its own
#: run, so the bound only ends a wedged prototype (its clock never idles).
RUN_BOUND = us(1_000_000)

#: End-time orderings that hold at every length, as chains of levels that
#: each end no later than the next: the untimed level first, and the CAM
#: no later than the prototype.  CCATB against the CAM is not one (see
#: :func:`build_ccatb`).
END_ORDER = [
    (AbstractionLevel.COMPONENT_ASSEMBLY, AbstractionLevel.CCATB),
    (AbstractionLevel.COMPONENT_ASSEMBLY,
     AbstractionLevel.COMM_ARCHITECTURE, AbstractionLevel.PIN_ACCURATE),
]


def pipeline_flow(blocks: int) -> DesignFlow:
    """Every level's builder registered on one design flow; run it with
    ``run_all(RUN_BOUND)`` or ``run_stage(level, RUN_BOUND)``."""
    flow = DesignFlow("jpeg_pipeline")
    for level, builder in LEVEL_BUILDERS.items():
        flow.register(level, partial(builder, blocks))
    return flow
