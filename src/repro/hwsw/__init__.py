"""``repro.hwsw`` — the SW adapter of the generic SHIP-based HW/SW interface.

Implements the paper's §4 interface: a SHIP channel virtually spanning
the HW/SW boundary, split into a HW adapter (bus-mapped mailbox +
wrapper, with sideband IRQ) and a SW adapter (device driver +
communication library implementing the four SHIP calls).  This package
holds the SW adapter, :class:`SwShipEnd`: what a re-hosted SW PE's SHIP
port binds on a mapped link.  It runs its half of the mailbox procedure
inside the calling task, doing its programmed I/O over a
:class:`PioSocket`.  :class:`~repro.flow.mapping.SystemMapper` builds
the whole interface when it maps a connection with a SW end onto a
fabric; :func:`~repro.esw.synthesis.generate_esw` re-hosts the PEs.
"""

from repro.hwsw.commlib import PioSocket, SwShipEnd

__all__ = [
    "PioSocket",
    "SwShipEnd",
]
