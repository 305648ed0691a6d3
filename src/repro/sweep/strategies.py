"""The exhaustive search strategy over a communication-architecture
design space.

:class:`GridSearch` simulates every config in the space through a
:class:`~repro.sweep.engine.SweepEngine` (and therefore through its
worker pool and result cache) and returns the outcomes ranked
best-first on the chosen objective; the ranking is deterministic for a
given seed.

With an optional ``replication`` policy
(:class:`repro.stats.ReplicationPolicy`) every point runs as a
seed-replicated ensemble through :class:`repro.stats.ReplicatedRunner`
— same engine, same warm pool — and ``run()`` returns
:class:`repro.stats.ReplicatedOutcome` objects ranked by their
CI-backed estimates instead of bare single-run outcomes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.kernel.simtime import SimTime
from repro.explore.runner import FaultSpec
from repro.explore.workload import MasterTrafficSpec
from repro.sweep.engine import SweepEngine, SweepOutcome, ranked
from repro.sweep.points import points_for_space


class GridSearch:
    """Exhaustive sweep: one point per config in the space."""

    def __init__(self, space, specs: Sequence[MasterTrafficSpec],
                 workload: str = "workload",
                 max_sim_time: Optional[SimTime] = None,
                 seed: int = 1, faults: Optional[FaultSpec] = None,
                 boot=None):
        self.points = points_for_space(
            space, specs, workload=workload, max_sim_time=max_sim_time,
            seed=seed, faults=faults, boot=boot,
        )

    def run(self, engine: SweepEngine,
            objective: str = "mean_latency_ns",
            replication=None, rerun: bool = False) -> List[SweepOutcome]:
        """Run every point; return outcomes ranked best-first.

        With a ``replication`` policy every point runs as a replicated
        ensemble and the ranking is by CI-backed estimate.  ``rerun``
        bypasses cache reads (see :meth:`SweepEngine.run`).
        """
        if replication is None:
            return ranked(engine.run(self.points, rerun=rerun), objective)
        # Deferred so a plain sweep never imports repro.stats (and the
        # two packages avoid a module-level import cycle).
        from repro.stats.replicate import ReplicatedRunner, ranked_replicated

        runner = ReplicatedRunner(engine, policy=replication)
        return ranked_replicated(
            runner.run(self.points, objective=objective, rerun=rerun),
            objective)
