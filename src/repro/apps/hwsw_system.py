"""A HW/SW-partitioned system: software pipeline, hardware accelerator.

The embedded-system shape the paper's introduction motivates: control
and I/O in software on an embedded CPU, the compute kernel in user
hardware, connected over CoreConnect through the generic SHIP-based
HW/SW interface.  Both sides are ordinary SHIP PEs.  eSW generation
re-hosts the software one as an RTOS task, whose SHIP port binds the
link's SW end (device driver + communication library, run inside the
task); the hardware accelerator never learns its peer lives in software.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.kernel import Module, SimContext, SimTime, ns, us
from repro.cam import PlbBus
from repro.esw import ExecuteFor, PartitionSpec, generate_esw
from repro.flow.mapping import MappedConnection, SystemMapper
from repro.models import ProcessingElement
from repro.rtos import Rtos
from repro.ship import ShipIntArray, ShipMasterPort, ShipSlavePort
from repro.apps.pipeline import (
    generate_block,
    quantize,
    walsh_hadamard,
)


#: The accelerator's transform time per block.
HW_COMPUTE = ns(300)
#: CPU time the SW application spends preparing a block (half that to
#: post-process its reply).
SW_COMPUTE = us(1)
#: CPU time the device driver charges on entry to each SHIP call.
DRIVER_OVERHEAD = ns(100)


class HwTransformPE(ProcessingElement):
    """The hardware accelerator: SHIP slave running the transform."""

    def __init__(self, name, parent, chan):
        super().__init__(name, parent)
        self.blocks_processed = 0
        self.port = self.ship_port("port", ShipSlavePort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        """Serve transform requests forever."""
        while True:
            block = yield from self.port.recv()
            yield HW_COMPUTE
            self.blocks_processed += 1
            yield from self.port.reply(
                ShipIntArray(walsh_hadamard(block.values))
            )


class SwAppPE(ProcessingElement):
    """Source + sink as one software application: prepares each block,
    has the accelerator transform it and post-processes the reply."""

    def __init__(self, name, parent, chan, blocks, quant_step):
        super().__init__(name, parent)
        self.blocks = blocks
        self.quant_step = quant_step
        self.results: List[List[int]] = []
        self.port = self.ship_port("port", ShipMasterPort)
        self.port.bind(chan)
        self.add_thread(self.main)

    def main(self):
        """Drive every block through the accelerator."""
        for i in range(self.blocks):
            yield ExecuteFor(SW_COMPUTE)        # prepare the block
            reply = yield from self.port.request(
                ShipIntArray(generate_block(i))
            )
            yield ExecuteFor(SW_COMPUTE // 2)   # post-process
            self.results.append(quantize(reply.values, self.quant_step))


@dataclass
class HwSwSystem:
    """Handle to a built HW/SW system."""

    ctx: SimContext
    os: Rtos
    link: MappedConnection
    accelerator: HwTransformPE
    results: List[List[int]]

    def outputs(self) -> List[List[int]]:
        """The quantized blocks recorded so far."""
        return list(self.results)


def build_hwsw_system(
    blocks: int = 8,
    use_irq: bool = True,
    poll_interval: SimTime = ns(200),
    context_switch: SimTime = ns(500),
    quant_step: int = 8,
    capacity_words: int = 64,
) -> HwSwSystem:
    """Build the partitioned system; run ``system.ctx.run(...)`` next."""
    ctx = SimContext("hwsw_system")
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    os = Rtos("os", top, context_switch=context_switch)
    mapper = SystemMapper(top, plb, mailbox_base=0x80000,
                          capacity_words=capacity_words, use_irq=use_irq,
                          poll_interval=poll_interval,
                          driver_overhead=DRIVER_OVERHEAD)
    link = mapper.connect("acc", master="sw")
    accelerator = HwTransformPE("hw_dct", top, link.slave_attach)
    app = SwAppPE("app", top, link.master_attach, blocks, quant_step)
    generate_esw(PartitionSpec(software=[app], priorities={"app": 5}), os)
    return HwSwSystem(ctx=ctx, os=os, link=link, accelerator=accelerator,
                      results=app.results)
