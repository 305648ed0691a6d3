"""Tests for warm-started sweeps (boot checkpoints through the engine).

The tentpole gate: a sweep that resumes every point from a per-family
boot checkpoint must produce results **byte-identical** to the cold
sweep — across pool sizes, cache states, and fault injection.  Also
covers :class:`BootSpec` identity (bootless point keys stay stable,
boot participates in the content key), checkpoint family sharing,
restore-failure quarantine (``kind="restore"``), and the engine's cold
fallback when a boot workload cannot reach the checkpoint horizon.
"""

import json
import pathlib

import pytest

from repro.kernel import ms, ns, us
from repro.explore import (
    BootSpec,
    DesignSpace,
    FaultSpec,
    MasterTrafficSpec,
    decode_payload,
    materialize_boot_checkpoint,
    point_regions,
)
from repro.snapshot import Checkpoint
from repro.sweep import (
    SweepEngine,
    SweepPoint,
    SweepStore,
    points_for_space,
    quarantined,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def small_specs(transactions=12):
    """A tiny two-master workload that keeps each point fast."""
    return (
        MasterTrafficSpec("cpu", pattern="random", base=0x0,
                          size=1 << 12, burst_length=1, gap=ns(50),
                          transactions=transactions, priority=0),
        MasterTrafficSpec("dma", pattern="stream", base=0x1000,
                          size=1 << 12, burst_length=8, gap=ns(80),
                          transactions=transactions, priority=1),
    )


def small_boot(specs, transactions=4):
    """A boot phase mirroring *specs* with a short transaction count."""
    boot_specs = tuple(
        MasterTrafficSpec(f"boot_{s.name}", pattern=s.pattern,
                          base=s.base, size=s.size,
                          burst_length=s.burst_length, gap=s.gap,
                          transactions=transactions,
                          priority=s.priority)
        for s in specs
    )
    return BootSpec(specs=boot_specs, until=ms(1))


def small_space():
    """Two fabrics, one arbiter — four fast design points at most."""
    return DesignSpace(fabrics=("plb", "generic"),
                       arbiters=("static-priority",))


def warm_points(faults=None, transactions=12):
    """Boot-phased points over the small space (fresh objects per call)."""
    specs = small_specs(transactions)
    return points_for_space(
        small_space(), specs, workload="warmtest",
        max_sim_time=ms(5), seed=3, faults=faults,
        boot=small_boot(specs),
    )


def rows(outcomes):
    """Canonical result rows — the byte-comparison unit."""
    return [o.row() if not o.failed else o.quarantine_row()
            for o in outcomes]


class TestWarmEqualsCold:
    @pytest.mark.parametrize("faults", [
        None,
        FaultSpec(seed=9, bus_error_rate=0.01, mem_flip_period=us(200)),
    ], ids=["plain", "faults"])
    def test_warm_matches_cold_across_pool_sizes(self, tmp_path, faults):
        """Warm rows == cold rows for workers 1, 2 and 4."""
        with SweepEngine(workers=1) as engine:
            cold = rows(engine.run(warm_points(faults)))
        cold_json = json.dumps(cold, sort_keys=True)

        for workers in (1, 2, 4):
            with SweepEngine(workers=workers,
                             checkpoint_dir=str(tmp_path),
                             warm_start=True) as engine:
                warm = rows(engine.run(warm_points(faults)))
                assert engine.last_warm_points == len(warm)
            assert json.dumps(warm, sort_keys=True) == cold_json, \
                f"workers={workers} diverged from cold"

    def test_warm_matches_cold_through_store_cache(self, tmp_path):
        """A cold-cached store resumed warm returns the same rows."""
        store_dir = tmp_path / "store"
        ckpt_dir = tmp_path / "ckpt"
        with SweepEngine(workers=2,
                         store=SweepStore(str(store_dir))) as engine:
            cold = rows(engine.run(warm_points()))
        # Everything is cached: the warm engine must not recompute —
        # and what it serves from cache is byte-identical.
        with SweepEngine(workers=2, store=SweepStore(str(store_dir)),
                         checkpoint_dir=str(ckpt_dir),
                         warm_start=True) as engine:
            warm = rows(engine.run(warm_points()))
            assert engine.last_computed == 0
        assert json.dumps(warm, sort_keys=True) == \
            json.dumps(cold, sort_keys=True)

    def test_checkpoint_files_shared_across_family(self, tmp_path):
        """One checkpoint file per architecture family, reused by the
        second engine run instead of re-materialized."""
        with SweepEngine(workers=1, checkpoint_dir=str(tmp_path),
                         warm_start=True) as engine:
            engine.run(warm_points())
            first = engine.session_checkpoints
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == len(warm_points())  # one per config family
        mtimes = [f.stat().st_mtime_ns for f in files]

        with SweepEngine(workers=1, checkpoint_dir=str(tmp_path),
                         warm_start=True) as engine:
            engine.run(warm_points())
        assert first == len(files)
        assert [f.stat().st_mtime_ns
                for f in sorted(tmp_path.glob("*.json"))] == mtimes


class TestBootIdentity:
    def test_bootless_identity_unchanged(self):
        """Points without a boot phase keep their historical keys."""
        point = SweepPoint(config=next(iter(small_space())),
                           specs=small_specs(), workload="w",
                           max_sim_time=ms(5), seed=3)
        assert "boot=" not in point.identity()
        assert point.family_key() is None

    def test_boot_participates_in_identity(self):
        """Adding or changing the boot phase changes the point key."""
        specs = small_specs()
        config = next(iter(small_space()))
        bare = SweepPoint(config=config, specs=specs, workload="w",
                          max_sim_time=ms(5), seed=3)
        booted = SweepPoint(config=config, specs=specs, workload="w",
                            max_sim_time=ms(5), seed=3,
                            boot=small_boot(specs))
        longer = SweepPoint(config=config, specs=specs, workload="w",
                            max_sim_time=ms(5), seed=3,
                            boot=small_boot(specs, transactions=8))
        keys = {bare.key(), booted.key(), longer.key()}
        assert len(keys) == 3
        assert booted.family_key() != longer.family_key()

    def test_family_shared_across_measured_workloads(self):
        """Points differing only in measured traffic share a family —
        that is what makes one boot checkpoint serve many points."""
        config = next(iter(small_space()))
        boot = small_boot(small_specs())
        a = SweepPoint(config=config, specs=small_specs(12),
                       workload="a", max_sim_time=ms(5), seed=3,
                       boot=boot)
        b = SweepPoint(config=config, specs=small_specs(24),
                       workload="b", max_sim_time=ms(5), seed=3,
                       boot=boot)
        assert a.key() != b.key()
        assert a.family_key() == b.family_key()

    def test_regions_are_boot_first_and_distinct(self):
        """point_regions puts boot regions first and deduplicates."""
        specs = small_specs()
        boot = small_boot(specs)
        regions = point_regions(specs, boot)
        assert regions == [(0x0, 1 << 12), (0x1000, 1 << 12)]
        assert point_regions(specs) == regions

    def test_payload_roundtrip_preserves_boot(self):
        """The worker's payload decoder carries the boot phase losslessly."""
        point = warm_points()[0]
        assert point.boot is not None
        assert decode_payload(point.to_payload()) == {
            "config": point.config,
            "specs": list(point.specs),
            "workload_name": point.workload,
            "max_sim_time": point.max_sim_time,
            "seed": point.seed,
            "faults": point.faults,
            "memory_read_wait": point.memory_read_wait,
            "memory_write_wait": point.memory_write_wait,
            "rng_streams": point.rng_streams,
            "record_series": point.record_series,
            "boot": point.boot,
        }


class TestRestoreFailures:
    def test_corrupt_checkpoint_quarantines_as_restore(self, tmp_path):
        """A corrupted checkpoint file quarantines the point with
        ``kind="restore"`` — infrastructure fault, not a model bug."""
        points = warm_points()
        family = points[0].family_key()
        digest = materialize_boot_checkpoint(
            points[0].to_payload(), str(tmp_path), family)
        path = Checkpoint.path_for(str(tmp_path), digest)
        assert pathlib.Path(path).exists()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"schema": "bogus"}')
        # Drop the in-process checkpoint cache so forked workers see
        # the on-disk corruption, as a fresh engine process would.
        from repro.explore.runner import _checkpoint_cache
        _checkpoint_cache.clear()

        with SweepEngine(workers=1, checkpoint_dir=str(tmp_path),
                         warm_start=True) as engine:
            outcomes = engine.run([points[0]])
        bad = quarantined(outcomes)
        assert len(bad) == 1
        assert bad[0].failure["kind"] == "restore"

    def test_unfinished_boot_falls_back_cold(self, tmp_path):
        """A boot that cannot finish by the horizon is not checkpointed;
        the engine falls back to cold runs and results still match."""
        specs = small_specs()
        # Far too much boot traffic for the 1 ms horizon.
        bad_boot = BootSpec(specs=tuple(
            MasterTrafficSpec(f"boot_{s.name}", pattern=s.pattern,
                              base=s.base, size=s.size,
                              burst_length=s.burst_length, gap=s.gap,
                              transactions=200000, priority=s.priority)
            for s in specs
        ), until=ms(1))
        points = points_for_space(small_space(), specs, workload="w",
                                  max_sim_time=ms(5), seed=3,
                                  boot=bad_boot)
        with SweepEngine(workers=1) as engine:
            cold = rows(engine.run(
                points_for_space(small_space(), specs, workload="w",
                                 max_sim_time=ms(5), seed=3,
                                 boot=bad_boot)))
        with SweepEngine(workers=1, checkpoint_dir=str(tmp_path),
                         warm_start=True) as engine:
            warm = rows(engine.run(points))
            assert engine.last_warm_points == 0  # nothing annotated
        assert json.dumps(warm, sort_keys=True) == \
            json.dumps(cold, sort_keys=True)
        assert list(tmp_path.glob("*.json")) == []


class TestWarmTelemetry:
    def test_run_record_counts_restores(self, tmp_path):
        """Every point is resumed from a saved checkpoint, and the
        workers trace one ``restore`` span per point."""
        from repro.obs.telemetry import SweepTelemetry

        telemetry = SweepTelemetry()
        points = warm_points()
        with SweepEngine(workers=2,
                         checkpoint_dir=str(tmp_path / "ckpt"),
                         warm_start=True,
                         telemetry=telemetry) as engine:
            engine.run(points)
        assert engine.last_warm_points == len(points)
        assert engine.last_checkpoints_saved == len(points)
        restores = [span["args"]["key"]
                    for blob in telemetry.worker_blobs
                    for span in blob["spans"] if span["name"] == "restore"]
        assert sorted(restores) == sorted(p.key() for p in points)
