"""AMBA bus CAM: the comparison fabric outside CoreConnect.

The paper's CAM concept is architecture-neutral — "given a library of
CAMs (e.g. of the CoreConnect architecture)" — so the library also
ships the other bus family an exploration would realistically compare
against: :class:`AhbBus`, AMBA 2.0 AHB.  It has pipelined address/data
phases like PLB, but a *single* shared data path (no separate
read/write buses), which is exactly the structural difference
exploration should expose on mixed read/write traffic.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.simtime import SimTime, ns
from repro.cam.arbiters import Arbiter, RoundRobinArbiter
from repro.cam.bus import BusCam, BusTiming

#: AHB INCR16 is the longest defined fixed burst.
AHB_MAX_BURST = 16


class AhbBus(BusCam):
    """AMBA 2.0 AHB CAM: pipelined, single shared data path."""

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
            clock_period=clock_period or ns(10),
            timing=BusTiming(
                arb_cycles=1,
                addr_cycles=1,
                cycles_per_beat=1,
                pipelined=True,
                split_rw=False,   # the structural difference vs PLB
            ),
            arbiter=arbiter or RoundRobinArbiter(),
            max_burst=AHB_MAX_BURST,
            metrics=metrics,
        )
