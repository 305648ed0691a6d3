"""HW/SW partition specification and the paper's eSW constraints.

§4 of the paper sets two constraints for a PE to be synthesizable to an
embedded-software entity:

1. *"eSW generation takes place in a transaction-level model of the
   system, namely the component-assembly model"* — the PE's behaviour
   must be untimed-functional with communication through channels, not
   pins.
2. *"The PEs that are to become eSW exclusively must use SHIP channels
   for communication with other PEs of the system."*

:func:`validate_partition` enforces both mechanically and returns a
machine-checkable report, so a violated constraint is a diagnosed design
error, not a silent mis-synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.kernel.errors import KernelError
from repro.kernel.module import Module
from repro.kernel.port import Port
from repro.ship.ports import ShipPort


class EswConstraintError(KernelError):
    """A PE selected for eSW violates the paper's §4 constraints."""

    def __init__(self, violations: List[str]):
        super().__init__(
            "eSW constraints violated:\n  " + "\n  ".join(violations)
        )
        self.violations = violations


#: RTOS priority of a SW-partition PE that ``priorities`` does not list.
DEFAULT_PRIORITY = 10


@dataclass
class PartitionSpec:
    """Assignment of PEs to the SW partition.

    ``priorities`` optionally assigns an RTOS priority per PE name
    (:data:`DEFAULT_PRIORITY` otherwise); unlisted PEs stay in hardware.
    """

    software: List[Module] = field(default_factory=list)
    priorities: Dict[str, int] = field(default_factory=dict)

    def priority_of(self, pe: Module) -> int:
        """RTOS priority assigned to this PE."""
        return self.priorities.get(pe.name, DEFAULT_PRIORITY)


def pe_violations(pe: Module) -> List[str]:
    """Check one PE against the eSW constraints; returns violations."""
    violations: List[str] = []
    non_ship = [
        obj.full_name
        for obj in pe.iter_descendants()
        if isinstance(obj, Port) and not isinstance(obj, ShipPort)
    ]
    if non_ship:
        violations.append(
            f"{pe.full_name}: non-SHIP ports present: {non_ship} "
            f"(constraint: SW-bound PEs communicate exclusively via SHIP)"
        )
    if not pe.ctx.processes_of(pe):
        violations.append(
            f"{pe.full_name}: has no behaviour processes to synthesize"
        )
    return violations


def validate_partition(spec: PartitionSpec) -> List[str]:
    """Validate every SW-bound PE; raises on any violation."""
    violations: List[str] = []
    for pe in spec.software:
        violations.extend(pe_violations(pe))
    if violations:
        raise EswConstraintError(violations)
    return violations
