"""``repro.apps`` — reference applications built on the public API.

Shared by the runnable examples, the integration tests, and the F1
benchmark: the JPEG-like block pipeline at all four abstraction levels
and the HW/SW-partitioned accelerator system.
"""

from repro.apps.hwsw_system import (
    HwSwSystem,
    HwTransformPE,
    build_hwsw_system,
)
from repro.apps.packet_switch import (
    EgressPE,
    ForwardingPE,
    IngressPE,
    PacketSwitchSystem,
    build_packet_switch,
    make_packet,
)
from repro.apps.pipeline import (
    BLOCK_SIZE,
    END_ORDER,
    LEVEL_BUILDERS,
    RUN_BOUND,
    PipelineSystem,
    SinkPE,
    SourcePE,
    TransformPE,
    build_cam,
    build_ccatb,
    build_prototype_level,
    build_pv,
    generate_block,
    pipeline_flow,
    quantize,
    reference_output,
    walsh_hadamard,
)

__all__ = [
    "BLOCK_SIZE",
    "END_ORDER",
    "EgressPE",
    "ForwardingPE",
    "HwSwSystem",
    "IngressPE",
    "PacketSwitchSystem",
    "build_packet_switch",
    "make_packet",
    "HwTransformPE",
    "LEVEL_BUILDERS",
    "PipelineSystem",
    "RUN_BOUND",
    "SinkPE",
    "SourcePE",
    "TransformPE",
    "build_cam",
    "build_ccatb",
    "build_hwsw_system",
    "build_prototype_level",
    "build_pv",
    "generate_block",
    "pipeline_flow",
    "quantize",
    "reference_output",
    "walsh_hadamard",
]
