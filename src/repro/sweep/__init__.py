"""``repro.sweep`` — parallel design-space sweeps with a result cache.

The exploration runner (:mod:`repro.explore`) simulates one design
point at a time; this package turns that into an exploration *engine*:
:class:`SweepPoint` gives every point a canonical content key,
:class:`SweepStore` persists results as append-only JSONL so sweeps
resume incrementally, :class:`SweepEngine` shards uncached points in
batched chunks over a persistent :class:`WorkerPool` of warm,
pre-imported worker processes — bit-identical results regardless of
pool size, batch size, or cache state, with process startup paid once
per engine instead of once per run — and :class:`GridSearch` ranks
every point of a design space.
The runtime is *self-healing*: :class:`RecoveryPolicy` bounds worker
respawns, batch requeues/bisection toward poison points, per-point
deadlines, and quarantine (kind-tagged ``failed`` store records that
resumed runs skip deterministically).  ``python -m repro.sweep``
drives it all from the command line and emits ranked JSON/CSV reports.
"""

from repro.sweep.engine import (
    BATCHES_PER_WORKER,
    OBJECTIVES,
    SweepEngine,
    SweepOutcome,
    objective_value,
    quarantined,
    ranked,
)
from repro.sweep.points import CODE_VERSION, SweepPoint, points_for_space
from repro.sweep.pool import (
    WorkerPool,
    WorkerPoolError,
    resolve_workers,
)
from repro.sweep.recovery import (
    RecoveryPolicy,
    ShutdownGuard,
    SweepInterrupted,
)
from repro.sweep.store import STORE_SCHEMA, SweepStore
from repro.sweep.strategies import GridSearch

__all__ = [
    "BATCHES_PER_WORKER",
    "CODE_VERSION",
    "GridSearch",
    "OBJECTIVES",
    "RecoveryPolicy",
    "STORE_SCHEMA",
    "ShutdownGuard",
    "SweepEngine",
    "SweepInterrupted",
    "SweepOutcome",
    "SweepPoint",
    "SweepStore",
    "WorkerPool",
    "WorkerPoolError",
    "objective_value",
    "points_for_space",
    "quarantined",
    "ranked",
    "resolve_workers",
]
