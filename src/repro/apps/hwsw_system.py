"""A HW/SW-partitioned system: software pipeline, hardware accelerator.

The embedded-system shape the paper's introduction motivates: control
and I/O in software on an embedded CPU, the compute kernel in user
hardware, connected over CoreConnect through the generic SHIP-based
HW/SW interface.  The software side drives the accelerator with the SW
communication library (device driver + SHIP calls); the hardware side is
an ordinary SHIP slave PE that never learns its peer lives in software.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.kernel import Module, SimContext, SimTime, ns, us
from repro.cam import PlbBus
from repro.flow.mapping import MappedConnection, SystemMapper
from repro.models import ProcessingElement
from repro.rtos import Rtos
from repro.ship import ShipIntArray, ShipSlavePort
from repro.apps.pipeline import (
    generate_block,
    quantize,
    reference_output,
    walsh_hadamard,
)


class HwTransformPE(ProcessingElement):
    """The hardware accelerator: SHIP slave running the transform."""

    def __init__(self, name, parent, chan, compute_time=ns(300)):
        super().__init__(name, parent)
        self.compute_time = compute_time
        self.blocks_processed = 0
        self.port = self.ship_port("port", ShipSlavePort)
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        """Serve transform requests forever."""
        while True:
            block = yield from self.port.recv()
            yield self.compute_time
            self.blocks_processed += 1
            yield from self.port.reply(
                ShipIntArray(walsh_hadamard(block.values))
            )


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

    def golden(self, blocks: int) -> List[List[int]]:
        """Expected output for ``blocks`` blocks."""
        return reference_output(blocks)


def build_hwsw_system(
    blocks: int = 8,
    use_irq: bool = True,
    poll_interval: SimTime = ns(200),
    access_overhead: SimTime = ns(100),
    context_switch: SimTime = ns(500),
    sw_compute: SimTime = us(1),
    quant_step: int = 8,
    capacity_words: int = 64,
) -> HwSwSystem:
    """Build the partitioned system; run ``system.ctx.run(...)`` next."""
    ctx = SimContext("hwsw_system")
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    os = Rtos("os", top, context_switch=context_switch)
    mapper = SystemMapper(top, plb, rtos=os, mailbox_base=0x80000,
                          capacity_words=capacity_words, use_irq=use_irq,
                          poll_interval=poll_interval,
                          driver_overhead=access_overhead)
    link = mapper.connect("acc", master="sw")
    accelerator = HwTransformPE("hw_dct", top, link.slave_attach)
    results: List[List[int]] = []

    def sw_main():
        """Source + sink as embedded software (one application task)."""
        for i in range(blocks):
            yield from os.execute(sw_compute)       # prepare the block
            reply = yield from link.master_attach.request(
                ShipIntArray(generate_block(i))
            )
            yield from os.execute(sw_compute // 2)  # post-process
            results.append(quantize(reply.values, quant_step))

    os.create_task(sw_main, "app_main", priority=5)
    return HwSwSystem(ctx=ctx, os=os, link=link, accelerator=accelerator,
                      results=results)
