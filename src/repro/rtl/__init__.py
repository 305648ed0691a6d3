"""``repro.rtl`` — pin-accurate substrate.

The cycle-by-cycle bus core that serves as the pin-accurate reference
fabric for the accessor-based prototype and for the CCATB
accuracy/speed experiments.
"""

from repro.rtl.buscore import RtlBusCore, RtlMasterPort

__all__ = [
    "RtlBusCore",
    "RtlMasterPort",
]
