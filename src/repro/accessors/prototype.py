"""Automatic prototype generation.

Given RTL-refined PEs (each presenting a pin-level OCP interface), a
target fabric description, and a memory map, :func:`build_prototype`
instantiates the fabric core, attaches one accessor per PE, and returns
the wired system — the paper's "automatic generation of a synthesizable
prototype of the hardware part" as a construction step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.kernel.clock import Clock
from repro.kernel.module import Module
from repro.ocp.pin import OcpPinBundle
from repro.cam.arbiters import Arbiter, StaticPriorityArbiter
from repro.cam.bus import GENERIC_TIMING, BusTiming
from repro.cam.coreconnect import OPB_TIMING, PLB_TIMING
from repro.rtl.buscore import RtlBusCore
from repro.accessors.accessor import RtlAccessor

#: Fabric presets an accessor can target, mirroring the CAM library.
FABRIC_TIMINGS: Dict[str, BusTiming] = {
    "plb": PLB_TIMING,
    "opb": OPB_TIMING,
    "generic": GENERIC_TIMING,
}


@dataclass
class SlaveMapEntry:
    """One slave in the prototype's memory map."""

    target: object
    base: int
    size: int
    name: Optional[str] = None
    read_wait: Optional[int] = None
    write_wait: Optional[int] = None


@dataclass
class Prototype:
    """A generated hardware prototype."""

    core: RtlBusCore
    accessors: Dict[str, RtlAccessor] = field(default_factory=dict)

    def accessor_for(self, pe_name: str) -> RtlAccessor:
        """The accessor generated for the named PE."""
        return self.accessors[pe_name]


def build_prototype(
    name: str,
    parent: Module,
    clock: Clock,
    pe_bundles: Dict[str, OcpPinBundle],
    memory_map: Sequence[SlaveMapEntry],
    fabric: str = "plb",
    arbiter: Optional[Arbiter] = None,
    priorities: Optional[Dict[str, int]] = None,
    accept_latency: int = 0,
) -> Prototype:
    """Wire PEs to a fabric through accessors; returns the prototype.

    Parameters
    ----------
    pe_bundles:
        Per-PE pin-level OCP bundles (each PE is the OCP master of its
        bundle).
    memory_map:
        Slaves to place on the fabric.
    fabric:
        One of ``"plb"``, ``"opb"``, ``"generic"``.
    priorities:
        Optional per-PE bus priorities (lower wins); default 0.
    """
    try:
        timing = FABRIC_TIMINGS[fabric]
    except KeyError:
        raise ValueError(
            f"unknown fabric {fabric!r}; expected one of "
            f"{sorted(FABRIC_TIMINGS)}"
        ) from None
    core = RtlBusCore(
        f"{name}_core", parent, clock=clock, timing=timing,
        arbiter=arbiter or StaticPriorityArbiter(),
    )
    for entry in memory_map:
        core.attach_slave(
            entry.target, entry.base, entry.size, name=entry.name,
            read_wait=entry.read_wait, write_wait=entry.write_wait,
        )
    priorities = priorities or {}
    accessors: Dict[str, RtlAccessor] = {}
    for pe_name, bundle in pe_bundles.items():
        port = core.master_port(pe_name, priorities.get(pe_name, 0))
        accessors[pe_name] = RtlAccessor(
            f"{name}_acc_{pe_name}", parent,
            bundle=bundle, bus_port=port, accept_latency=accept_latency,
        )
    return Prototype(core=core, accessors=accessors)
