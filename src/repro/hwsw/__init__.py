"""``repro.hwsw`` — the SW adapter of the generic SHIP-based HW/SW interface.

Implements the paper's §4 interface: a SHIP channel virtually spanning
the HW/SW boundary, split into a HW adapter (bus-mapped mailbox +
wrapper, with sideband IRQ) and a SW adapter (device driver +
communication library implementing the four SHIP calls).  This package
holds the SW adapter; :class:`~repro.flow.mapping.SystemMapper` builds
the whole interface when it maps a connection with a SW end onto a
fabric.
"""

from repro.hwsw.commlib import SwShipMaster, SwShipSlave
from repro.hwsw.driver import LocalMailboxDriver, MailboxDriver

__all__ = [
    "LocalMailboxDriver",
    "MailboxDriver",
    "SwShipMaster",
    "SwShipSlave",
]
