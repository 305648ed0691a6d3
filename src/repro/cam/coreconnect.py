"""IBM CoreConnect communication architecture models.

The paper's case study targets CoreConnect, so the CAM library ships its
two bus tiers:

* :class:`PlbBus` — the Processor Local Bus: address-pipelined, separate
  read and write data paths, static-priority arbitration, bursts.  The
  high-performance tier where processors, DMA engines and memory live.
* :class:`OpbBus` — the On-chip Peripheral Bus: simpler, non-pipelined,
  single data path.  The peripheral tier.

Cycle parameters follow the public CoreConnect PLB/OPB specifications at
the granularity CCATB needs: one arbitration cycle, one address cycle,
one data beat per cycle, plus slave wait states.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.simtime import SimTime, ns
from repro.cam.arbiters import Arbiter, StaticPriorityArbiter
from repro.cam.bus import BusCam, BusTiming

#: Default PLB clock: 100 MHz, the usual embedded PowerPC 405 setting.
PLB_DEFAULT_PERIOD = ns(10)
#: Default OPB clock: 50 MHz (often half the PLB clock).
OPB_DEFAULT_PERIOD = ns(20)

#: Maximum fixed-length burst the PLB model accepts (PLB spec: 16).
PLB_MAX_BURST = 16

#: PLB timing, shared by :class:`PlbBus` and the RTL core: one arbitration
#: and one address cycle, a beat per cycle, pipelined, split read/write.
PLB_TIMING = BusTiming(arb_cycles=1, addr_cycles=1, cycles_per_beat=1,
                       pipelined=True, split_rw=True)
#: OPB timing: the PLB's cycle counts, unpipelined, on one data path.
OPB_TIMING = BusTiming(arb_cycles=1, addr_cycles=1, cycles_per_beat=1,
                       pipelined=False, split_rw=False)


class PlbBus(BusCam):
    """CoreConnect Processor Local Bus CAM (CCATB)."""

    def __init__(
        self,
        name,
        parent=None,
        ctx=None,
        clock_period: SimTime = None,
        arbiter: Optional[Arbiter] = None,
        metrics=None,
    ):
        super().__init__(
            name,
            parent,
            ctx,
            clock_period=clock_period or PLB_DEFAULT_PERIOD,
            timing=PLB_TIMING,
            arbiter=arbiter or StaticPriorityArbiter(),
            # sockets transparently split longer transfers into
            # PLB-legal fixed-length bursts
            max_burst=PLB_MAX_BURST,
            metrics=metrics,
        )


class OpbBus(BusCam):
    """CoreConnect On-chip Peripheral Bus CAM (CCATB)."""

    def __init__(
        self,
        name,
        parent=None,
        ctx=None,
        clock_period: SimTime = None,
        arbiter: Optional[Arbiter] = None,
        metrics=None,
    ):
        super().__init__(
            name,
            parent,
            ctx,
            clock_period=clock_period or OPB_DEFAULT_PERIOD,
            timing=OPB_TIMING,
            arbiter=arbiter or StaticPriorityArbiter(),
            metrics=metrics,
        )
