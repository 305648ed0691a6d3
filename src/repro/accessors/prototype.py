"""Automatic prototype generation.

Given a target fabric description, :func:`build_prototype` instantiates
the fabric core and returns a :class:`Prototype` that is wired like any
fabric: slaves go into its address map with ``attach_slave``, and each
``master_socket`` is a pin-level OCP master connected to the core
through its own accessor — the paper's "automatic generation of a
synthesizable prototype of the hardware part" as a construction step.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.kernel.clock import Clock
from repro.kernel.module import Module
from repro.ocp.pin import OcpPinBundle, OcpPinMaster
from repro.cam.arbiters import Arbiter
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


class Prototype:
    """A generated hardware prototype: the RTL bus core with the fabric
    interface of every CAM.

    ``attach_slave`` is the core's.  :meth:`master_socket` returns a
    pin-level OCP master (an :class:`OcpPinMaster`, so any TL master or
    SHIP wrapper can drive it) whose pins an :class:`RtlAccessor`
    connects to the core.
    """

    def __init__(self, name: str, parent: Module, core: RtlBusCore,
                 accept_latency: int):
        self.name = name
        self.parent = parent
        self.full_name = f"{parent.full_name}.{name}"
        self.core = core
        self.accept_latency = accept_latency
        self.attach_slave = core.attach_slave
        #: socket name -> the accessor generated for it
        self.accessors: Dict[str, RtlAccessor] = {}
        self._sockets: Dict[str, OcpPinMaster] = {}

    def master_socket(self, name: str, priority: int = 0) -> OcpPinMaster:
        """Create (or fetch) master ``name``'s socket: a pin bundle, the
        accessor that connects it to the core's socket ``name`` at
        ``priority`` (lower wins), and the pin master that drives it."""
        if name not in self._sockets:
            bundle = OcpPinBundle(f"{self.name}_{name}_pins", self.parent,
                                  clock=self.core.clock)
            self.accessors[name] = RtlAccessor(
                f"{self.name}_acc_{name}", self.parent, bundle=bundle,
                bus_port=self.core.master_socket(name, priority),
                accept_latency=self.accept_latency,
            )
            self._sockets[name] = OcpPinMaster(
                f"{self.name}_{name}_drv", self.parent, bundle=bundle)
        return self._sockets[name]


def build_prototype(
    name: str,
    parent: Module,
    clock: Clock,
    fabric: str = "plb",
    arbiter: Optional[Arbiter] = None,
    accept_latency: int = 0,
) -> Prototype:
    """Generate the fabric core ``<name>_core`` on ``clock``; returns
    the prototype to attach slaves and masters to.

    Parameters
    ----------
    fabric:
        One of ``"plb"``, ``"opb"``, ``"generic"``.
    arbiter:
        The core's arbitration policy; static priority by default.
    accept_latency:
        Every accessor's extra cycles before it accepts a burst.
    """
    try:
        timing = FABRIC_TIMINGS[fabric]
    except KeyError:
        raise ValueError(
            f"unknown fabric {fabric!r}; expected one of "
            f"{sorted(FABRIC_TIMINGS)}"
        ) from None
    core = RtlBusCore(f"{name}_core", parent, clock=clock, timing=timing,
                      arbiter=arbiter)
    return Prototype(name, parent, core, accept_latency)
