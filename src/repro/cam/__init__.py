"""``repro.cam`` — communication architecture models (CAMs).

A CAM is a CCATB simulation model of a bus or network: cycle-accurate at
transaction boundaries, arithmetic inside.  The library covers the
paper's CoreConnect case (PLB, OPB), AMBA AHB, a generic shared bus,
a crossbar, memory slaves, and pluggable arbitration policies —
enough to run the communication-architecture exploration of experiment
E3 and the accuracy check of E2.
"""

from repro.cam.amba import AHB_MAX_BURST, AhbBus
from repro.cam.arbiters import (
    Arbiter,
    RoundRobinArbiter,
    StaticPriorityArbiter,
    TdmaArbiter,
    make_arbiter,
)
from repro.cam.bus import (
    BusCam,
    BusStats,
    BusTiming,
    GenericBus,
    SlaveBinding,
)
from repro.cam.coreconnect import (
    OPB_DEFAULT_PERIOD,
    PLB_DEFAULT_PERIOD,
    PLB_MAX_BURST,
    PLB_TIMING,
    OpbBus,
    PlbBus,
)
from repro.cam.crossbar import CrossbarCam
from repro.cam.memory import MemorySlave

__all__ = [
    "AHB_MAX_BURST",
    "AhbBus",
    "Arbiter",
    "BusCam",
    "BusStats",
    "BusTiming",
    "CrossbarCam",
    "GenericBus",
    "MemorySlave",
    "OPB_DEFAULT_PERIOD",
    "OpbBus",
    "PLB_DEFAULT_PERIOD",
    "PLB_MAX_BURST",
    "PLB_TIMING",
    "PlbBus",
    "RoundRobinArbiter",
    "SlaveBinding",
    "StaticPriorityArbiter",
    "TdmaArbiter",
    "make_arbiter",
]
