"""``repro.explore`` — communication architecture exploration.

Traffic generation, design-space description, the build/run/measure
loop, and Pareto analysis, powering the exploration experiment (E3).
"""

from repro.explore.runner import (
    BootSpec,
    ExplorationResult,
    FaultSpec,
    FaultSummary,
    MasterMetrics,
    PointResult,
    WARM_START_KEY,
    build_fabric,
    decode_payload,
    explore,
    format_table,
    materialize_boot_checkpoint,
    pareto_front,
    point_regions,
    results_to_csv,
    run_payload_batch,
    run_point,
)
from repro.explore.space import (
    ARBITERS,
    FABRICS,
    ArchitectureConfig,
    DesignSpace,
)
from repro.explore.workload import (
    PATTERNS,
    SUBSTREAMS,
    MasterTrafficSpec,
    TrafficMaster,
    standard_workloads,
    substream_seed,
)

__all__ = [
    "ARBITERS",
    "ArchitectureConfig",
    "BootSpec",
    "DesignSpace",
    "ExplorationResult",
    "WARM_START_KEY",
    "FABRICS",
    "FaultSpec",
    "FaultSummary",
    "MasterMetrics",
    "PointResult",
    "MasterTrafficSpec",
    "PATTERNS",
    "SUBSTREAMS",
    "TrafficMaster",
    "substream_seed",
    "build_fabric",
    "decode_payload",
    "explore",
    "format_table",
    "materialize_boot_checkpoint",
    "pareto_front",
    "point_regions",
    "results_to_csv",
    "run_payload_batch",
    "run_point",
    "standard_workloads",
]
