"""``repro.esw`` — systematic embedded-software generation.

Implements §4 of the paper: partition specification, the two eSW
constraints (component-assembly level, SHIP-only communication), and
the library-substitution synthesizer that re-hosts PE behaviour as RTOS
tasks without modifying PE source.
"""

from repro.esw.partition import (
    EswConstraintError,
    PartitionSpec,
    pe_violations,
    validate_partition,
)
from repro.esw.synthesis import (
    CpuHeld,
    EswImage,
    EswSynthesisError,
    EswTask,
    ExecuteFor,
    SubstitutionCounts,
    generate_esw,
    synthesize_pe,
)

__all__ = [
    "CpuHeld",
    "EswConstraintError",
    "EswImage",
    "EswSynthesisError",
    "EswTask",
    "ExecuteFor",
    "PartitionSpec",
    "SubstitutionCounts",
    "generate_esw",
    "pe_violations",
    "synthesize_pe",
    "validate_partition",
]
