"""OCP transaction-level interface: blocking transport.

One generator call (:class:`OcpTargetIf`) carries a whole burst and
returns the response.  This is the interface the bus CAMs expose and
consume, and the one the pin adapters
(:class:`~repro.ocp.pin.OcpPinMaster`, :class:`~repro.ocp.pin.OcpPinSlave`)
translate to and from pins; it corresponds to OCP TL2, where timing
lives in the channel, not in phases.  Every level moves the same
:class:`~repro.ocp.types.OcpRequest` / :class:`~repro.ocp.types.OcpResponse`
payloads, so refinement between them is mechanical.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Generator

from repro.kernel.port import Port
from repro.ocp.types import OcpRequest


class OcpTargetIf(ABC):
    """Blocking-transport OCP target interface.

    Implemented by memory slaves, bus CAM master-attachment points, and
    TLM adapters.  ``transport`` is a generator method: invoke with
    ``response = yield from target.transport(request)``.
    """

    @abstractmethod
    def transport(self, request: OcpRequest) -> Generator:
        """Carry one burst transaction; returns an :class:`OcpResponse`."""


class OcpMasterPort(Port):
    """Master-side port for blocking OCP transport."""

    def __init__(self, name, parent=None, ctx=None, required: bool = True):
        super().__init__(name, parent, ctx, iface_type=OcpTargetIf,
                         required=required)

    def transport(self, request: OcpRequest) -> Generator:
        """Blocking burst transport through the bound target."""
        if request.master_id is None:
            request.master_id = self.full_name
        return (yield from self.channel.transport(request))

    def read(self, addr: int, burst_length: int = 1) -> Generator:
        """Convenience read burst; returns the response."""
        from repro.ocp.types import OcpCmd

        req = OcpRequest(OcpCmd.RD, addr, burst_length=burst_length)
        return (yield from self.transport(req))

    def write(self, addr: int, data) -> Generator:
        """Convenience write burst; returns the response."""
        from repro.ocp.types import OcpCmd

        beats = list(data) if isinstance(data, (list, tuple)) else [data]
        req = OcpRequest(
            OcpCmd.WR, addr, data=beats, burst_length=len(beats)
        )
        return (yield from self.transport(req))
