"""``repro.ocp`` — Open Core Protocol interfaces.

OCP is the openly-licensed socket the paper adopts below the CCATB
level.  The package provides the transaction vocabulary
(:class:`OcpRequest` / :class:`OcpResponse`), blocking transport
(:class:`OcpTargetIf`, :class:`OcpMasterPort`), and the pin-accurate
signal bundle with pin<->TL adapter state machines.
"""

from repro.ocp.monitor import OcpPinMonitor, OcpViolation
from repro.ocp.pin import OcpPinBundle, OcpPinMaster, OcpPinSlave
from repro.ocp.tl import OcpMasterPort, OcpTargetIf
from repro.ocp.types import BurstSeq, OcpCmd, OcpRequest, OcpResp, OcpResponse

__all__ = [
    "BurstSeq",
    "OcpCmd",
    "OcpMasterPort",
    "OcpPinBundle",
    "OcpPinMaster",
    "OcpPinMonitor",
    "OcpPinSlave",
    "OcpViolation",
    "OcpRequest",
    "OcpResp",
    "OcpResponse",
    "OcpTargetIf",
]
