"""The design flow's abstraction levels (Figure 1 of the paper).

The flow moves a system through three TLM models before implementation:

1. **Component-assembly model** — untimed functional PEs communicating
   through SHIP channels (Cai & Gajski's terminology).
2. **CCATB model** — the same PEs with communication mapped onto
   cycle-count-accurate-at-the-boundaries channels/buses
   (Pasricha et al.).
3. **Communication architecture model** — a concrete bus CAM (e.g.
   CoreConnect PLB) carrying the traffic through OCP TL interfaces.

Below that sit pin-accurate interfaces and the RTL accessors.

:class:`ProcessingElement` is the base class for PEs that travel through
the flow: it standardizes how a PE declares its SHIP ports so the
refinement machinery (:mod:`repro.flow`) can re-map communication
without touching PE behaviour — the paper's central promise.
"""

from __future__ import annotations

import enum
from typing import Dict, List

from repro.kernel.module import Module
from repro.ship.ports import ShipPort


class AbstractionLevel(enum.IntEnum):
    """Levels of the design flow, most abstract first.

    Integer ordering reflects refinement: a higher value is closer to
    implementation.
    """

    COMPONENT_ASSEMBLY = 0
    CCATB = 1
    COMM_ARCHITECTURE = 2
    PIN_ACCURATE = 3


class ProcessingElement(Module):
    """A PE whose external communication goes exclusively through SHIP.

    Subclasses create their SHIP ports with :meth:`ship_port` so the
    ports are discoverable by the refinement and eSW-generation machinery
    (which must verify the paper's constraint that SW-bound PEs use only
    SHIP channels).
    """

    def __init__(self, name, parent=None, ctx=None):
        super().__init__(name, parent, ctx)
        self._ship_ports: Dict[str, ShipPort] = {}

    def ship_port(self, name: str, port_cls=ShipPort) -> ShipPort:
        """Declare a SHIP port; returns it (and remembers it)."""
        port = port_cls(name, self)
        self._ship_ports[name] = port
        return port

    @property
    def ship_ports(self) -> List[ShipPort]:
        """The SHIP ports this PE declared."""
        return list(self._ship_ports.values())
