"""``repro.accessors`` — RTL accessors and prototype generation.

Accessors connect pin-level-OCP PEs to a target communication
architecture; :func:`build_prototype` performs the paper's automatic
prototype generation: a fabric core whose every master socket is a
pin-level OCP master behind its own accessor.
"""

from repro.accessors.accessor import RtlAccessor
from repro.accessors.prototype import (
    FABRIC_TIMINGS,
    Prototype,
    build_prototype,
)

__all__ = [
    "FABRIC_TIMINGS",
    "Prototype",
    "RtlAccessor",
    "build_prototype",
]
