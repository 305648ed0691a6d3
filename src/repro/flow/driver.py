"""The design-flow driver: run one application across abstraction levels.

Figure 1 of the paper shows a single system description refined through
component-assembly, CCATB, and communication-architecture models down to
the prototype.  The promise of a *systematic* flow is that each
refinement changes only the communication mapping, never the behaviour —
so the outputs at every level must be identical, while timing fidelity
grows and simulation speed drops.

:class:`DesignFlow` packages that discipline: each level registers a
*builder* producing a fresh system (a context and its outputs); the driver
runs each stage, checks cross-level functional equivalence, and reports
the speed/accuracy profile.  Experiment F1 and the flow examples are
written against this driver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.kernel.errors import KernelError
from repro.kernel.simtime import SimTime
from repro.models.levels import AbstractionLevel

#: A builder returns a fresh system: an object with a ``ctx`` (the
#: :class:`SimContext` to run) and an ``outputs()`` method to call after
#: the run, such as :class:`repro.apps.PipelineSystem`.
StageBuilder = Callable[[], Any]


class FlowError(KernelError):
    """A stage failed or the flow is mis-assembled."""


@dataclass
class StageResult:
    """Outcome of running one abstraction level."""

    level: AbstractionLevel
    outputs: list
    sim_time: SimTime
    wall_seconds: float
    delta_cycles: int

    @property
    def sim_ns(self) -> float:
        """Simulated completion time in nanoseconds."""
        return self.sim_time.to("ns")

    def speed_events_per_second(self) -> float:
        """Delta cycles per wall second — a proxy for simulation speed."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.delta_cycles / self.wall_seconds


@dataclass
class FlowReport:
    """The cross-level summary."""

    name: str
    results: Dict[AbstractionLevel, StageResult] = field(
        default_factory=dict
    )

    @property
    def levels(self) -> List[AbstractionLevel]:
        """Levels present, most abstract first."""
        return sorted(self.results)

    @property
    def functionally_equivalent(self) -> bool:
        """All levels produced identical outputs."""
        return not self.mismatches()

    def mismatches(self) -> List[Tuple[AbstractionLevel, AbstractionLevel]]:
        """Level pairs whose outputs differ."""
        levels = self.levels
        bad = []
        for i, a in enumerate(levels):
            for b in levels[i + 1:]:
                if self.results[a].outputs != self.results[b].outputs:
                    bad.append((a, b))
        return bad

    def ends_in_order(self, chains: Iterable[Sequence[AbstractionLevel]]
                      ) -> bool:
        """True if, in each chain of levels, every level's simulation
        completed no later than the next one's.  Which chains hold is
        the application's claim: a timing annotation is an estimate."""
        return all(self.results[a].sim_time <= self.results[b].sim_time
                   for chain in chains for a, b in zip(chain, chain[1:]))

    def format_table(self) -> str:
        """Human-readable per-level profile table."""
        lines = [
            f"design flow: {self.name}",
            f"{'level':24} {'sim time':>14} {'deltas':>10} "
            f"{'wall s':>9} {'deltas/s':>12}",
        ]
        for lvl in self.levels:
            res = self.results[lvl]
            lines.append(
                f"{lvl.name:24} {str(res.sim_time):>14} "
                f"{res.delta_cycles:>10} {res.wall_seconds:>9.4f} "
                f"{res.speed_events_per_second():>12.0f}"
            )
        lines.append(
            f"functionally equivalent: {self.functionally_equivalent}"
        )
        return "\n".join(lines)


class DesignFlow:
    """Register builders per level, then run the whole flow."""

    def __init__(self, name: str):
        self.name = name
        self._builders: Dict[AbstractionLevel, StageBuilder] = {}

    def register(self, level: AbstractionLevel,
                 builder: StageBuilder) -> None:
        """Attach a stage builder to an abstraction level."""
        if level in self._builders:
            raise FlowError(
                f"flow {self.name!r}: level {level.name} already has a "
                f"builder"
            )
        self._builders[level] = builder

    def run_stage(self, level: AbstractionLevel,
                  max_time: Optional[SimTime] = None) -> StageResult:
        """Build and simulate one level; returns its result."""
        try:
            builder = self._builders[level]
        except KeyError:
            raise FlowError(
                f"flow {self.name!r}: no builder for level {level.name}"
            ) from None
        system = builder()
        ctx = system.ctx
        wall_start = time.perf_counter()
        ctx.run(max_time)
        wall = time.perf_counter() - wall_start
        return StageResult(
            level=level,
            outputs=system.outputs(),
            # completion time, not the run horizon: bounded runs advance
            # `now` to the bound on starvation
            sim_time=ctx.last_activity_time,
            wall_seconds=wall,
            delta_cycles=ctx.delta_count,
        )

    def run_all(self, max_time: Optional[SimTime] = None) -> FlowReport:
        """Run every registered stage, most abstract first."""
        if not self._builders:
            raise FlowError(f"flow {self.name!r}: no stages registered")
        report = FlowReport(name=self.name)
        for level in sorted(self._builders):
            report.results[level] = self.run_stage(level, max_time)
        return report
