"""The parallel sweep engine: shard points over warm workers, cache results.

:class:`SweepEngine` turns a list of :class:`~repro.sweep.points.SweepPoint`
into a list of :class:`SweepOutcome` by (1) serving every point whose
content key is already in the attached :class:`~repro.sweep.store.SweepStore`
straight from cache, and (2) sharding the rest — in batched chunks — across
a persistent :class:`~repro.sweep.pool.WorkerPool`.  The pool spawns once,
pre-imports the simulation stack, and stays hot across ``run()`` calls, so
multi-run sessions (replication rounds, fault campaigns, CLI resume
loops) pay process startup exactly once; after warmup the per-point
dispatch cost is one share of a batched IPC round-trip.

Three properties make the engine safe to parallelize:

* **Process isolation** — each point simulates in a fresh
  :class:`~repro.kernel.SimContext` inside a worker process, and the
  kernel's active-context guard (:func:`repro.kernel.active_context`)
  rejects interleaved runs, so no interpreter state leaks between
  points.  Workers are long-lived, but every point builds its own
  context, so reuse never aliases simulation state.
* **Canonical results** — workers return
  :meth:`~repro.explore.ExplorationResult.to_dict` payloads and the
  engine reconstitutes them with ``from_dict``; without a pool the
  engine calls the workers' own batch runner in-process, so results
  are bit-identical whether computed in-process, by 4 warm workers, in
  any batch size, or served from cache.
* **Content-keyed determinism** — a point's key fixes its seed and
  workload, so results never depend on pool size, batch size, or shard
  order; the engine restores input order when collecting.

Cached-vs-computed counts and pool reuse flow into an optional
:class:`repro.obs.MetricsRegistry` under ``sweep.*``.  An optional
:class:`repro.obs.telemetry.SweepTelemetry` (the ``telemetry=``
keyword) additionally records per-run spans and worker-side span
blobs for one merged trace — every touch is guarded by
``telemetry is not None`` and this module never imports the telemetry
stack itself, so the telemetry-off path stays exactly as cheap (and as
import-free) as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.explore.runner import ExplorationResult, run_payload_batch
from repro.sweep.points import SweepPoint
from repro.sweep.pool import WorkerPool, resolve_workers
from repro.sweep.recovery import (
    LOSS_KINDS,
    RECOVERY_COUNTERS,
    RecoveryPolicy,
    quarantine_record,
)
from repro.sweep.store import SweepStore

#: Ranking objectives: name -> (result accessor, higher_is_better).
OBJECTIVES: Dict[str, Tuple[Callable, bool]] = {
    "mean_latency_ns": (lambda r: r.mean_latency_ns, False),
    "throughput_mbps": (lambda r: r.throughput_mbps, True),
    "utilization": (lambda r: r.utilization, True),
}

#: Target of batches *per worker* when sharding pending points: pending
#: points go out in ``ceil(pending / (workers * BATCHES_PER_WORKER))``
#: sized batches.  ``>1`` keeps the parent's backlog non-empty so fast
#: workers take the next batch instead of idling at the tail.
BATCHES_PER_WORKER = 4


@dataclass
class SweepOutcome:
    """One design point's result plus its provenance.

    A *quarantined* point — one that kept raising, crashing its
    worker, or blowing its deadline until the
    :class:`~repro.sweep.recovery.RecoveryPolicy` budget ran out —
    carries ``result=None`` and a ``failure`` dict (kind, error type,
    message, traceback digest, attempt count) instead.  :func:`ranked`
    skips quarantined outcomes; reports list them separately.
    """

    point: SweepPoint
    key: str
    result: Optional[ExplorationResult]
    #: True when the result came from the store, not a fresh simulation.
    cached: bool
    #: quarantine record when the point failed permanently, else None
    failure: Optional[dict] = None

    @property
    def failed(self) -> bool:
        """True when this point was quarantined instead of simulated."""
        return self.failure is not None

    def quarantine_row(self) -> dict:
        """Deterministic report row for a quarantined outcome."""
        failure = self.failure or {}
        return {
            "config": self.point.config.name,
            "workload": self.point.workload,
            "kind": failure.get("kind"),
            "error_type": failure.get("error_type"),
            "message": failure.get("message"),
            "traceback_digest": failure.get("traceback_digest"),
            "attempts": failure.get("attempts"),
            "key": self.key,
        }

    def row(self, objective: str = "mean_latency_ns") -> dict:
        """Deterministic report row for this outcome.

        Contains only simulation-derived fields (no wall-clock times),
        so rows are bit-identical across pool sizes and cache states.
        """
        result = self.result
        return {
            "config": result.config.name,
            "workload": result.workload,
            "objective": objective,
            "value": objective_value(result, objective),
            "mean_latency_ns": result.mean_latency_ns,
            "throughput_mbps": result.throughput_mbps,
            "utilization": result.utilization,
            "sim_time_ns": result.sim_time_ns,
            "total_bytes": result.total_bytes,
            "all_done": result.all_done,
            "key": self.key,
        }


def objective_value(result: ExplorationResult, objective: str) -> float:
    """Extract the named objective from a result."""
    try:
        accessor, _ = OBJECTIVES[objective]
    except KeyError:
        raise ValueError(
            f"unknown objective {objective!r}; expected one of "
            f"{sorted(OBJECTIVES)}"
        ) from None
    return accessor(result)


def ranked(outcomes: Sequence[SweepOutcome],
           objective: str = "mean_latency_ns") -> List[SweepOutcome]:
    """Outcomes sorted best-first on ``objective``.

    Ties break on the config cache key then the workload name, so the
    ranking is total and reproducible.  Quarantined outcomes (no
    result to rank) are excluded — report them from
    :meth:`SweepOutcome.quarantine_row` instead of silently dropping
    them at the caller.
    """
    accessor, higher_better = OBJECTIVES[objective]
    sign = -1.0 if higher_better else 1.0
    return sorted(
        (o for o in outcomes if not o.failed),
        key=lambda o: (sign * accessor(o.result),
                       o.point.config.cache_key(), o.point.workload),
    )


def quarantined(outcomes: Sequence[SweepOutcome]) -> List[SweepOutcome]:
    """The quarantined outcomes, in deterministic (key) order."""
    return sorted((o for o in outcomes if o.failed),
                  key=lambda o: o.key)


class SweepEngine:
    """Shards sweep points over a persistent warm pool with a cache.

    ``workers`` may be an int, ``None`` (serial), or ``"auto"``
    (:func:`os.cpu_count`).  The pool is lazy: nothing spawns until the
    first ``run()`` actually has more than one uncached point, and once
    spawned it persists across ``run()`` calls until :meth:`close` (the
    engine is also a context manager).  ``telemetry`` attaches a
    :class:`repro.obs.telemetry.SweepTelemetry` hub that records the
    orchestrator and worker spans of a merged trace, with zero
    involvement (and zero imports) when left ``None``.
    """

    def __init__(self, workers=None,
                 store: Optional[SweepStore] = None,
                 telemetry=None,
                 recovery: Optional[RecoveryPolicy] = None,
                 deadline_s: Optional[float] = None,
                 checkpoint_dir: Optional[str] = None,
                 warm_start: bool = False):
        self.workers = resolve_workers(workers)
        self.store = store
        #: how this engine survives crashes/hangs/poison points; a
        #: ``deadline_s`` argument overrides the policy's deadline
        #: (convenience for ``--max-point-seconds``)
        if recovery is None:
            recovery = RecoveryPolicy(deadline_s=deadline_s)
        elif deadline_s is not None:
            recovery = replace(recovery, deadline_s=deadline_s)
        self.recovery = recovery
        #: optional :class:`repro.obs.telemetry.SweepTelemetry` hub;
        #: the engine drives its run/dispatch protocol and the pool
        #: forwards its batch and respawn events to it.  The engine
        #: does not own it — callers ``close()`` it after the last run.
        self.telemetry = telemetry
        #: directory boot checkpoints are materialized into / loaded
        #: from; required (with ``warm_start=True``) for warm-started
        #: sweeps, ignored otherwise
        self.checkpoint_dir = checkpoint_dir
        #: warm-start pending points that carry a boot phase: the
        #: engine materializes one boot checkpoint per checkpoint
        #: family and workers resume each point from it instead of
        #: simulating the boot inline.  Purely a transport/scheduling
        #: optimization — results and content keys are unchanged.
        self.warm_start = bool(warm_start)
        if self.warm_start and self.checkpoint_dir is None:
            raise ValueError("warm_start=True requires checkpoint_dir")
        self._pool: Optional[WorkerPool] = None
        #: pending points annotated for warm start by the most recent
        #: :meth:`run` (0 when warm start is off or no point has a boot)
        self.last_warm_points = 0
        #: boot-checkpoint families resolved (materialized or reused
        #: from disk) by the most recent run
        self.last_checkpoints_saved = 0
        #: warm-started points / resolved families summed across this
        #: engine's lifetime (the CLI summary line)
        self.session_warm_points = 0
        self.session_checkpoints = 0
        #: points served from cache by the most recent :meth:`run`
        self.last_cached = 0
        #: points freshly simulated by the most recent :meth:`run`
        self.last_computed = 0
        #: batches sent to the pool by the most recent :meth:`run`,
        #: retry rounds included (0 = simulated in-process)
        self.last_batches = 0
        #: ``run()`` calls that found the pool already warm and reused it
        self.pool_reuses = 0
        #: points quarantined by the most recent :meth:`run` (fresh and
        #: cache-served quarantines both count)
        self.last_quarantined = 0
        #: recovery counter summary of the most recent pooled dispatch
        #: (None when the run stayed in-process / fully cached)
        self.last_recovery: Optional[dict] = None
        #: quarantined outcomes across this engine's lifetime, keyed by
        #: point key; a later success (e.g. ``rerun=True``) removes its
        #: entry.  Strategies return only ranked outcomes, so report
        #: writers read the quarantined section from here.
        self.session_failures: Dict[str, SweepOutcome] = {}
        #: recovery counters summed across this engine's lifetime
        self.session_recovery: Dict[str, int] = {}

    # -- pool lifecycle -----------------------------------------------

    @property
    def pool(self) -> Optional[WorkerPool]:
        """The persistent worker pool, or None before first parallel run."""
        return self._pool

    @property
    def pool_spawns(self) -> int:
        """Processes spawned over this engine's lifetime (0 = none yet)."""
        return self._pool.spawn_count if self._pool is not None else 0

    def pool_pids(self) -> List[int]:
        """Live worker PIDs (empty when no pool is warm)."""
        return self._pool.worker_pids() if self._pool is not None else []

    def dispatch_overhead_s(self) -> float:
        """Submit-to-worker-start latency of a no-op task, in seconds.

        Warms the pool if needed; serial engines (``workers == 1``)
        report 0.0 — in-process dispatch is a function call.
        """
        if self.workers <= 1:
            return 0.0
        return self._ensure_pool(count_reuse=False).ping()

    def close(self) -> None:
        """Shut the worker pool down; idempotent.

        The engine stays usable — the next parallel ``run()`` spawns a
        fresh pool generation.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self, count_reuse: bool = True) -> WorkerPool:
        """The warm pool, spawning it on first use."""
        if self._pool is None:
            self._pool = WorkerPool(self.workers)
        was_warm = self._pool.started
        self._pool.ensure_started()
        if was_warm and count_reuse:
            self.pool_reuses += 1
        return self._pool

    # -- the sweep ----------------------------------------------------

    def run(self, points: Sequence[SweepPoint],
            rerun: bool = False) -> List[SweepOutcome]:
        """Resolve every point to an outcome, in input order.

        Cache lookups happen first; the remaining (deduplicated)
        points are simulated by :meth:`_simulate` — in-process when
        ``workers == 1`` or only one point is pending, otherwise as
        batched shards on the persistent pool.  With ``rerun=True`` the
        cache is bypassed (results are still written back, superseding
        earlier lines).

        With :attr:`telemetry` attached, the run additionally records
        run/cache/dispatch spans and absorbs the workers' span blobs —
        without changing any result: every point takes the same
        ``decode → run_point → to_dict`` round-trip with telemetry on
        or off.
        """
        telemetry = self.telemetry
        points = list(points)
        keys = [p.key() for p in points]
        if telemetry is not None:
            telemetry.begin_run(keys)
            cache_t0 = telemetry.clock()
        outcomes: List[Optional[SweepOutcome]] = [None] * len(points)
        #: key -> input indices still needing a simulation
        pending: Dict[str, List[int]] = {}
        for i, (point, key) in enumerate(zip(points, keys)):
            cached = None
            if self.store is not None and not rerun:
                cached = self.store.get(key)
            if cached is not None:
                outcomes[i] = SweepOutcome(
                    point=point, key=key,
                    result=ExplorationResult.from_dict(cached),
                    cached=True,
                )
                continue
            if self.store is not None and not rerun:
                # a previously quarantined point: skip it
                # deterministically instead of re-running the failure
                failure = self.store.get_failure(key)
                if failure is not None:
                    outcomes[i] = SweepOutcome(
                        point=point, key=key, result=None,
                        cached=True, failure=failure,
                    )
                    continue
            pending.setdefault(key, []).append(i)

        pending_keys = list(pending)
        payloads = [points[pending[k][0]].to_payload()
                    for k in pending_keys]
        if self.warm_start and payloads:
            self._annotate_warm_starts(points, pending, pending_keys,
                                       payloads)
        if telemetry is not None:
            telemetry.cache_resolved(
                cached=sum(1 for o in outcomes if o is not None),
                pending=len(pending_keys), t0=cache_t0)
        result_dicts = self._simulate(payloads, pending_keys, telemetry)

        for key, result_dict in zip(pending_keys, result_dicts):
            failure = result_dict.get("__sweep_error__")
            if failure is not None:
                record = quarantine_record(failure)
                if self.store is not None:
                    self.store.put_failure(key, record)
                for i in pending[key]:
                    outcomes[i] = SweepOutcome(
                        point=points[i], key=key, result=None,
                        cached=False, failure=record,
                    )
                continue
            if self.store is not None:
                self.store.put(key, result_dict)
            for i in pending[key]:
                outcomes[i] = SweepOutcome(
                    point=points[i], key=key,
                    result=ExplorationResult.from_dict(result_dict),
                    cached=False,
                )

        # last_computed counts simulations actually executed, so
        # duplicate input points sharing one key cost (and count) one.
        self.last_computed = len(pending_keys)
        self.last_cached = sum(1 for o in outcomes if o.cached)
        self.last_quarantined = sum(1 for o in outcomes if o.failed)
        for outcome in outcomes:
            if outcome.failed:
                self.session_failures[outcome.key] = outcome
            else:
                self.session_failures.pop(outcome.key, None)
        recovery_summary = self.last_recovery
        if recovery_summary is not None:
            for name, count in recovery_summary.items():
                self.session_recovery[name] = (
                    self.session_recovery.get(name, 0) + count)
        if telemetry is not None:
            telemetry.end_run()
        return outcomes

    def _annotate_warm_starts(self, points, pending, pending_keys,
                              payloads) -> None:
        """Materialize boot checkpoints and tag pending payloads.

        One checkpoint per *checkpoint family*
        (:meth:`~repro.sweep.points.SweepPoint.family_key`), simulated
        inline in the engine process and content-addressed into
        :attr:`checkpoint_dir` (a file already on disk is reused as-is).
        Every pending payload of the family is then annotated with the
        warm-start transport key — *after* content keys were computed,
        so warm and cold runs share keys, caches and reports.  A family
        whose checkpoint cannot be materialized (boot does not finish,
        directory unwritable, ...) falls back to cold simulation for
        all its points rather than failing the sweep.
        """
        from repro.explore.runner import (
            WARM_START_KEY,
            materialize_boot_checkpoint,
        )

        self.last_warm_points = 0
        self.last_checkpoints_saved = 0
        families: Dict[str, Optional[dict]] = {}
        for key, payload in zip(pending_keys, payloads):
            family = points[pending[key][0]].family_key()
            if family is None:
                continue
            if family not in families:
                try:
                    digest = materialize_boot_checkpoint(
                        payload, self.checkpoint_dir, family)
                except Exception:
                    families[family] = None
                    continue
                families[family] = {"dir": self.checkpoint_dir,
                                    "digest": digest}
                self.last_checkpoints_saved += 1
            warm = families[family]
            if warm is not None:
                payload[WARM_START_KEY] = dict(warm)
                self.last_warm_points += 1
        self.session_warm_points += self.last_warm_points
        self.session_checkpoints += self.last_checkpoints_saved

    def _simulate(self, payloads, keys, telemetry) -> List[dict]:
        """Simulate pending payloads; one result dict or final failure
        marker each, in order.

        The sweep's one dispatch loop.  Each round shards the points
        still to run and hands the shards to the warm pool or, in the
        zero-worker case (``workers == 1`` or a single pending point),
        runs them in-process through the batch runner the workers use,
        :func:`~repro.explore.runner.run_payload_batch`.  The pool
        absorbs process faults (crash, deadline, requeue, bisection,
        respawn) and finalizes the points lost to them.  A point that
        *raised* is decided here and only here: it runs again in the
        next round until ``recovery.point_attempts`` tries are spent,
        and then its last failure marker is final.

        Sets :attr:`last_batches` and :attr:`last_recovery` (the
        recovery counters of a pooled run, else None).
        """
        pool = None
        if len(payloads) > 1 and self.workers > 1:
            pool = self._ensure_pool()
        results: List[Optional[dict]] = [None] * len(payloads)
        attempts = [0] * len(payloads)
        summary = dict.fromkeys(RECOVERY_COUNTERS, 0)
        self.last_batches = 0
        if pool is not None and telemetry is not None:
            pool.on_event = telemetry.on_worker_event
        todo = list(range(len(payloads)))
        try:
            while todo:
                size = len(todo)
                if pool is not None:
                    size = max(1, math.ceil(
                        size / (self.workers * BATCHES_PER_WORKER)))
                shards = [todo[i:i + size]
                          for i in range(0, len(todo), size)]
                batches = [[payloads[i] for i in shard]
                           for shard in shards]
                key_batches = [[keys[i] for i in shard]
                               for shard in shards]
                if pool is None:
                    returned, blob = run_payload_batch(
                        batches[0], keys=key_batches[0],
                        worker_id="inline",
                        telemetry=telemetry is not None,
                    )
                    if telemetry is not None:
                        telemetry.absorb_batch(blob, generation=0)
                else:
                    returned = self._dispatch(pool, batches, key_batches,
                                              telemetry, summary)
                retry = []
                for index, result in zip(todo, returned):
                    results[index] = result
                    failure = result.get("__sweep_error__")
                    if failure is None or failure["kind"] in LOSS_KINDS:
                        continue
                    attempts[index] += 1
                    failure["attempts"] = attempts[index]
                    if attempts[index] < self.recovery.point_attempts:
                        summary["point_retries"] += 1
                        retry.append(index)
                todo = retry
        finally:
            if pool is not None and telemetry is not None:
                pool.on_event = None
        summary["quarantined"] = sum(
            1 for result in results if "__sweep_error__" in result)
        self.last_recovery = summary if pool is not None else None
        return results

    def _dispatch(self, pool, batches, key_batches, telemetry,
                  summary) -> List[dict]:
        """One round of batches on the pool; flat results in order.

        Adds the pool's process-fault counters to ``summary`` and feeds
        the workers' telemetry blobs to :attr:`telemetry`.
        """
        self.last_batches += len(batches)
        if telemetry is not None:
            telemetry.begin_dispatch(batches=len(batches))
        try:
            result_batches, blobs, faults = pool.run_batches(
                batches, key_batches, recovery=self.recovery,
                telemetry=telemetry is not None,
            )
        finally:
            if telemetry is not None:
                telemetry.end_dispatch()
        for name, count in faults.items():
            summary[name] += count
        if telemetry is not None:
            for blob in blobs:
                telemetry.absorb_batch(blob, generation=pool.generation)
        return [result for batch in result_batches for result in batch]

    def __repr__(self) -> str:
        pool = "cold" if self._pool is None else repr(self._pool)
        return (
            f"SweepEngine(workers={self.workers}, pool={pool}, "
            f"store={self.store!r}, telemetry="
            f"{'attached' if self.telemetry is not None else 'None'})"
        )
