"""Tests for the persistent warm-worker sweep runtime.

Pins the properties the perf work relies on: the pool spawns once and
is reused across ``SweepEngine.run()`` calls (zero new processes on a
warm second run), batched shards produce bit-identical results to the
in-process batch runner for every batch size,
``workers="auto"`` resolves to the CPU count, multi-stage strategies
share one pool, and pool lifecycle (close, respawn, metrics) behaves.
"""

import math
import os
from dataclasses import replace

import pytest

from repro.kernel import ns, us
from repro.explore import (
    DesignSpace,
    MasterTrafficSpec,
    run_payload_batch,
    run_point,
)
from repro.sweep import (
    BATCHES_PER_WORKER,
    SuccessiveHalving,
    SweepEngine,
    SweepStore,
    WorkerPool,
    points_for_space,
    resolve_workers,
)


def small_specs(transactions=8):
    """A tiny two-master workload that keeps each point fast."""
    return (
        MasterTrafficSpec("cpu", pattern="random", base=0x0,
                          size=1 << 12, burst_length=1, gap=ns(50),
                          transactions=transactions, priority=0),
        MasterTrafficSpec("dma", pattern="stream", base=0x1000,
                          size=1 << 12, burst_length=8, gap=ns(80),
                          transactions=transactions, priority=1),
    )


def small_points(transactions=8):
    space = DesignSpace(fabrics=("plb", "generic"),
                        arbiters=("static-priority", "round-robin"))
    return points_for_space(space, small_specs(transactions),
                            workload="w", max_sim_time=us(2_000))


def det_rows(outcomes):
    return [o.row() for o in outcomes]


class TestResolveWorkers:
    def test_none_means_serial(self):
        assert resolve_workers(None) == 1

    def test_auto_resolves_to_cpu_count(self):
        assert resolve_workers("auto") == max(1, os.cpu_count() or 1)
        assert resolve_workers(" AUTO ") == max(1, os.cpu_count() or 1)

    def test_numeric_strings_and_floors(self):
        assert resolve_workers("3") == 3
        assert resolve_workers(0) == 1
        assert resolve_workers(-2) == 1

    def test_engine_accepts_auto(self):
        engine = SweepEngine(workers="auto")
        assert engine.workers == max(1, os.cpu_count() or 1)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers("many")


class TestWarmPoolReuse:
    def test_second_run_spawns_zero_new_processes(self):
        points = small_points()
        with SweepEngine(workers=2) as engine:
            assert engine.pool_spawns == 0  # lazy: nothing spawned yet
            first = engine.run(points)
            assert engine.pool_spawns == 2
            pids = sorted(engine.pool_pids())
            assert len(pids) == 2
            second = engine.run(points)
            # the acceptance gate: a warm second run reuses the exact
            # same processes — zero new spawns, identical PIDs
            assert engine.pool_spawns == 2
            assert sorted(engine.pool_pids()) == pids
            assert engine.pool_reuses == 1
            assert det_rows(first) == det_rows(second)

    def test_close_then_run_spawns_a_fresh_generation(self):
        points = small_points()
        engine = SweepEngine(workers=2)
        baseline = det_rows(engine.run(points))
        engine.close()
        assert engine.pool_pids() == []
        again = engine.run(points)  # engine stays usable after close
        assert engine.pool_spawns == 2  # new pool counts its own spawns
        assert det_rows(again) == baseline
        engine.close()

    def test_close_is_idempotent(self):
        engine = SweepEngine(workers=2)
        engine.close()
        engine.close()

    def test_serial_engine_never_spawns(self):
        engine = SweepEngine(workers=1)
        engine.run(small_points())
        assert engine.pool_spawns == 0
        assert engine.pool is None
        assert engine.dispatch_overhead_s() == 0.0

    def test_single_pending_point_stays_inline(self):
        engine = SweepEngine(workers=4)
        engine.run(small_points()[:1])
        assert engine.pool_spawns == 0
        assert engine.last_batches == 0
        engine.close()


def scrub(result):
    """A result dict minus wall clock, the one field that legitimately
    differs between two runs of the same point."""
    return {k: v for k, v in result.items() if k != "wall_seconds"}


class TestBatching:
    def test_oversubscribe_controls_batch_count(self):
        """BATCHES_PER_WORKER, the pool's oversubscription factor, sets
        how many batches the pending points are cut into."""
        points = [replace(p, seed=seed) for seed in range(1, 6)
                  for p in small_points(transactions=2)]  # 20 points
        with SweepEngine(workers=2) as engine:
            engine.run(points)
        # batches of ceil(20 / (2 workers * BATCHES_PER_WORKER)) points
        size = math.ceil(len(points) / (2 * BATCHES_PER_WORKER))
        assert engine.last_batches == math.ceil(len(points) / size)

    def test_batch_size_never_changes_results(self):
        payloads = [p.to_payload() for p in small_points()]
        reference = [scrub(r) for r in run_payload_batch(payloads)[0]]
        with WorkerPool(workers=2) as pool:
            for size in (1, 2, len(payloads)):
                batches = [payloads[i:i + size]
                           for i in range(0, len(payloads), size)]
                result_batches, blobs, _ = pool.run_batches(batches)
                assert blobs == []  # telemetry off: no blobs
                assert ([scrub(r) for batch in result_batches
                         for r in batch] == reference), size

    def test_worker_batch_entry_point_matches_inline(self):
        # the batch runner must canonicalize exactly like a plain
        # run_point call
        points = small_points()[:2]
        results, blob = run_payload_batch([p.to_payload() for p in points])
        assert blob is None
        expected = [
            run_point(p.config, list(p.specs), workload_name=p.workload,
                      max_sim_time=p.max_sim_time, seed=p.seed).to_dict()
            for p in points
        ]
        assert [scrub(r) for r in results] == [scrub(e) for e in expected]


class TestPoolDirect:
    def test_run_batches_restores_order(self):
        payloads = [p.to_payload() for p in small_points()]
        with WorkerPool(workers=2) as pool:
            batches = [payloads[:1], payloads[1:3], payloads[3:]]
            results, _, _ = pool.run_batches(batches)
            assert [len(b) for b in results] == [1, 2, 1]
            flat = [r for batch in results for r in batch]
            # order-restored: config names line up with the inputs
            assert ([r["config"]["fabric"] for r in flat]
                    == [p["config"]["fabric"] for p in payloads])
            assert pool.batches_dispatched == 3
            assert pool.points_dispatched == 4

    def test_ping_measures_nonnegative_dispatch_latency(self):
        with WorkerPool(workers=2) as pool:
            overhead = pool.ping()
            assert 0.0 <= overhead < 5.0

    def test_ping_records_per_worker_latency_in_stats(self):
        with WorkerPool(workers=2) as pool:
            pool.ping()
            assert sorted(pool.ping_latencies) == [0, 1]
            assert all(0.0 <= v < 5.0
                       for v in pool.ping_latencies.values())
            stats = pool.stats()
            assert sorted(stats["ping_latency_s"]) == ["0", "1"]
            assert stats["workers"] == 2
            assert stats["generation"] == 1
            assert stats["spawned"] == 2

    def test_spawn_count_survives_close(self):
        pool = WorkerPool(workers=2)
        pool.ensure_started()
        assert pool.spawn_count == 2
        pool.close()
        assert not pool.started
        pool.ensure_started()
        assert pool.spawn_count == 4  # second generation counted
        pool.close()


class TestStrategiesShareThePool:
    def test_successive_halving_reuses_one_pool_across_stages(self):
        space = DesignSpace(
            fabrics=("plb", "opb", "generic", "crossbar"),
            arbiters=("static-priority",),
        )
        search = SuccessiveHalving(space, small_specs(transactions=8),
                                   workload="w",
                                   max_sim_time=us(5_000), eta=2)
        with SweepEngine(workers=2) as engine:
            search.run(engine)
            # screen stage spawned the pool; the finals stage (and any
            # later run) reused it instead of respawning
            assert engine.pool_spawns == 2
            assert engine.pool_reuses == 1

    def test_grid_then_grid_on_one_engine_reuses(self, tmp_path):
        points = small_points()
        store = SweepStore(tmp_path / "cache")
        with SweepEngine(workers=2, store=store) as engine:
            engine.run(points)
            spawned = engine.pool_spawns
            engine.run(points, rerun=True)
            assert engine.pool_spawns == spawned
            assert engine.pool_reuses == 1


class TestPoolMetrics:
    def test_pool_reuse_and_batch_counters(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        points = small_points()
        with SweepEngine(workers=2, metrics=registry) as engine:
            engine.run(points)
            engine.run(points)
        snapshot = registry.snapshot()
        assert snapshot["sweep.pool_reuses"]["value"] == 1
        assert snapshot["sweep.batches"]["value"] == engine.last_batches * 2
        assert snapshot["sweep.points_computed"]["value"] == 2 * len(points)

    def test_inline_runs_do_not_count_reuses(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        points = small_points()
        engine = SweepEngine(workers=1, metrics=registry)
        engine.run(points)
        engine.run(points)
        snapshot = registry.snapshot()
        assert "sweep.pool_reuses" not in snapshot or (
            snapshot["sweep.pool_reuses"]["value"] == 0)


class TestCliWorkersAuto:
    def test_parser_accepts_auto_and_counts(self):
        from repro.sweep.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["--workers", "auto"]).workers == "auto"
        assert parser.parse_args(["--workers", "3"]).workers == 3

    def test_parser_rejects_garbage(self, capsys):
        from repro.sweep.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--workers", "lots"])
        with pytest.raises(SystemExit):
            parser.parse_args(["--workers", "0"])
        capsys.readouterr()
