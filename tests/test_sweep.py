"""Tests for the parallel design-space sweep engine (``repro.sweep``).

Covers the serialization satellites on the explore types, canonical
point keying, the JSONL result store, engine determinism across pool
sizes and cache states, grid search, the CLI, the kernel's
per-process isolation guard, and byte-parity of the ported fault-rate
sweep with its golden file.
"""

import json
import pathlib

import pytest

from repro.kernel import SimContext, SimulationError, active_context, ns, us
from repro.explore import (
    ArchitectureConfig,
    DesignSpace,
    ExplorationResult,
    FaultSpec,
    FaultSummary,
    MasterMetrics,
    MasterTrafficSpec,
    decode_payload,
    explore,
    run_point,
)
from repro.sweep import (
    CODE_VERSION,
    GridSearch,
    SweepEngine,
    SweepPoint,
    SweepStore,
    points_for_space,
    ranked,
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


def small_space():
    """Two fabrics, one arbiter — four fast design points at most."""
    return DesignSpace(fabrics=("plb", "generic"),
                       arbiters=("static-priority",))


class TestCacheKey:
    def test_exact_format_pinned(self):
        config = ArchitectureConfig(
            fabric="plb", arbiter="static-priority",
            clock_period=ns(10), max_burst=16, tdma_slot_cycles=8,
        )
        assert config.cache_key() == (
            "fabric=plb;arbiter=static-priority;clock_fs=10000000;"
            "max_burst=16;tdma_slot_cycles=8"
        )

    def test_label_is_cosmetic(self):
        plain = ArchitectureConfig(fabric="ahb")
        labelled = ArchitectureConfig(fabric="ahb", label="candidate-a")
        assert plain.cache_key() == labelled.cache_key()
        assert plain.name != labelled.name

    def test_every_simulated_field_matters(self):
        base = ArchitectureConfig()
        variants = [
            ArchitectureConfig(fabric="opb"),
            ArchitectureConfig(arbiter="round-robin"),
            ArchitectureConfig(clock_period=ns(5)),
            ArchitectureConfig(max_burst=8),
            ArchitectureConfig(tdma_slot_cycles=4),
        ]
        keys = {c.cache_key() for c in [base] + variants}
        assert len(keys) == len(variants) + 1


class TestSerialization:
    def test_config_round_trip(self):
        config = ArchitectureConfig(fabric="ahb", arbiter="tdma",
                                    clock_period=ns(5), max_burst=8,
                                    tdma_slot_cycles=4, label="x")
        clone = ArchitectureConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.to_dict()["clock_period_fs"] == 5_000_000

    def test_spec_round_trip(self):
        spec = MasterTrafficSpec("m", pattern="pingpong", base=0x100,
                                 size=1 << 12, burst_length=1,
                                 gap=ns(75), read_fraction=0.3,
                                 transactions=None, priority=2,
                                 word_bytes=8)
        clone = MasterTrafficSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.gap.femtoseconds == spec.gap.femtoseconds

    def test_spec_scaled(self):
        spec = MasterTrafficSpec("m", transactions=100)
        assert spec.scaled(0.25).transactions == 25
        assert spec.scaled(0.0001).transactions == 1
        assert spec.scaled(1.0) is spec
        unbounded = MasterTrafficSpec("m", transactions=None)
        assert unbounded.scaled(0.25) is unbounded

    def test_fault_spec_round_trip(self):
        spec = FaultSpec(seed=7, bus_error_rate=0.1,
                         decode_miss_rate=0.05, mem_flip_period=us(20))
        clone = FaultSpec.from_dict(spec.to_dict())
        assert clone == spec
        bare = FaultSpec.from_dict(FaultSpec().to_dict())
        assert bare.mem_flip_period is None

    def test_master_metrics_round_trip(self):
        metrics = MasterMetrics(name="m", completed=10, errors=1,
                                bytes_done=640, mean_latency_ns=101.5,
                                max_latency_ns=400.0)
        assert MasterMetrics.from_dict(metrics.to_dict()) == metrics

    def test_result_round_trip_without_faults(self):
        result = run_point(ArchitectureConfig(fabric="plb"),
                           list(small_specs()), workload_name="t")
        clone = ExplorationResult.from_dict(result.to_dict())
        assert clone.config == result.config
        assert clone.masters == result.masters
        assert clone.mean_latency_ns == result.mean_latency_ns
        assert clone.throughput_mbps == result.throughput_mbps
        assert clone.fault_plan is None
        # the serialized form is genuinely JSON-able
        json.dumps(result.to_dict())

    def test_result_stored_without_targets_loads(self):
        """A row cached before masters recorded their transaction
        count loads with no target, so it counts as finished."""
        data = run_point(ArchitectureConfig(fabric="plb"),
                         list(small_specs()), workload_name="t").to_dict()
        assert [m.pop("target") for m in data["masters"]] == [12, 12]
        clone = ExplorationResult.from_dict(data)
        assert [m.target for m in clone.masters] == [None, None]
        assert clone.all_done and not clone.truncated

    def test_result_round_trip_preserves_fault_summary(self):
        result = run_point(
            ArchitectureConfig(fabric="plb"), list(small_specs()),
            workload_name="t", max_sim_time=us(500),
            faults=FaultSpec(seed=1, bus_error_rate=0.2,
                             mem_flip_period=us(20)),
        )
        clone = ExplorationResult.from_dict(result.to_dict())
        assert isinstance(clone.fault_plan, FaultSummary)
        assert (clone.fault_plan.counts_by_kind()
                == result.fault_plan.counts_by_kind())
        assert clone.fault_plan.digest() == result.fault_plan.digest()
        # a second round trip is a fixed point
        again = ExplorationResult.from_dict(clone.to_dict())
        assert again.to_dict() == clone.to_dict()


class TestSweepPoint:
    def _point(self, **overrides):
        kwargs = dict(config=ArchitectureConfig(fabric="plb"),
                      specs=small_specs(), workload="w",
                      max_sim_time=us(500), seed=1)
        kwargs.update(overrides)
        return SweepPoint(**kwargs)

    def test_key_is_stable_hex(self):
        point = self._point()
        key = point.key()
        assert len(key) == 64
        assert key == self._point().key()

    def test_key_ignores_label(self):
        labelled = self._point(
            config=ArchitectureConfig(fabric="plb", label="x"))
        assert labelled.key() == self._point().key()

    def test_key_covers_every_axis(self):
        base = self._point()
        variants = [
            self._point(config=ArchitectureConfig(fabric="generic")),
            self._point(workload="other"),
            self._point(seed=2),
            self._point(max_sim_time=us(501)),
            self._point(specs=small_specs(transactions=13)),
            self._point(faults=FaultSpec(seed=1, bus_error_rate=0.1)),
            self._point(memory_read_wait=2),
        ]
        keys = {p.key() for p in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_key_folds_code_version(self):
        assert CODE_VERSION in json.dumps(self._point().identity())

    def test_payload_round_trip(self):
        point = self._point(faults=FaultSpec(seed=3, bus_error_rate=0.1))
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


class TestSweepStore:
    def test_put_get_and_reload(self, tmp_path):
        store = SweepStore(tmp_path / "cache")
        assert store.get("k") is None
        store.put("k", {"value": 1})
        assert store.get("k") == {"value": 1}
        fresh = SweepStore(tmp_path / "cache")
        assert fresh.get("k") == {"value": 1}
        assert len(fresh) == 1
        assert "k" in fresh

    def test_last_line_wins(self, tmp_path):
        store = SweepStore(tmp_path / "cache")
        store.put("k", {"value": 1})
        store.put("k", {"value": 2})
        assert SweepStore(tmp_path / "cache").get("k") == {"value": 2}

    def test_torn_and_foreign_lines_skipped(self, tmp_path):
        store = SweepStore(tmp_path / "cache")
        store.put("k", {"value": 1})
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": 999, "key": "x", "result": {}}\n')
            fh.write('{"torn...\n')
        fresh = SweepStore(tmp_path / "cache")
        assert fresh.get("k") == {"value": 1}
        assert fresh.skipped_lines == 2

    def test_explicit_jsonl_path(self, tmp_path):
        store = SweepStore(tmp_path / "mine.jsonl")
        assert store.path == tmp_path / "mine.jsonl"


def det_rows(outcomes, objective="mean_latency_ns"):
    """Deterministic report rows for outcome comparison."""
    return [o.row(objective) for o in outcomes]


class TestSweepEngine:
    def test_pool_size_does_not_change_ranked_results(self):
        points = points_for_space(small_space(), small_specs(),
                                  workload="w", max_sim_time=us(2_000))
        serial = ranked(SweepEngine(workers=1).run(points))
        with SweepEngine(workers=4) as engine:
            pooled = engine.run(points)
        assert det_rows(serial) == det_rows(ranked(pooled))
        # pooled results also equal the plain explore() loop's, field
        # for field except the wall clock
        loop = explore(small_space(), small_specs(), workload_name="w",
                       max_sim_time=us(2_000))

        def scrub(result):
            data = result.to_dict()
            data.pop("wall_seconds")
            return data

        assert [scrub(o.result) for o in pooled] == [scrub(r) for r in loop]

    def test_warm_cache_performs_zero_run_point_calls(
            self, tmp_path, monkeypatch):
        points = points_for_space(small_space(), small_specs(),
                                  workload="w", max_sim_time=us(2_000))
        store = SweepStore(tmp_path / "cache")
        engine = SweepEngine(workers=1, store=store)
        cold = engine.run(points)
        assert engine.last_computed == len(points)
        assert engine.last_cached == 0

        def bomb(*args, **kwargs):
            raise AssertionError("run_point called on a warm cache")

        import repro.explore.runner as runner_module
        monkeypatch.setattr(runner_module, "run_point", bomb)
        warm = engine.run(points)
        assert engine.last_computed == 0
        assert engine.last_cached == len(points)
        assert all(o.cached for o in warm)
        # bit-identical ranked output, wall clock included: the cache
        # returns the stored result, not a re-simulation
        assert ([o.result.to_dict() for o in ranked(warm)]
                == [o.result.to_dict() for o in ranked(cold)])

    def test_rerun_bypasses_cache_reads(self, tmp_path):
        points = points_for_space(small_space(), small_specs(),
                                  workload="w", max_sim_time=us(2_000))
        store = SweepStore(tmp_path / "cache")
        engine = SweepEngine(workers=1, store=store)
        engine.run(points)
        again = engine.run(points, rerun=True)
        assert engine.last_computed == len(points)
        assert not any(o.cached for o in again)

    def test_duplicate_points_cost_one_simulation(self):
        point = points_for_space(small_space(), small_specs(),
                                 workload="w",
                                 max_sim_time=us(2_000))[0]
        engine = SweepEngine(workers=1)
        outcomes = engine.run([point, point])
        assert engine.last_computed == 1
        assert (outcomes[0].result.to_dict()
                == outcomes[1].result.to_dict())

class TestStrategies:
    def test_grid_ranks_best_first(self):
        search = GridSearch(small_space(), small_specs(),
                            workload="w", max_sim_time=us(2_000))
        outcomes = search.run(SweepEngine(workers=1))
        values = [o.result.mean_latency_ns for o in outcomes]
        assert values == sorted(values)
        assert len(outcomes) == len(small_space())

    def test_grid_throughput_objective_ranks_descending(self):
        search = GridSearch(small_space(), small_specs(),
                            workload="w", max_sim_time=us(2_000))
        outcomes = search.run(SweepEngine(workers=1),
                              objective="throughput_mbps")
        values = [o.result.throughput_mbps for o in outcomes]
        assert values == sorted(values, reverse=True)


class TestCli:
    ARGS = [
        "--workload", "mixed", "--fabrics", "plb,generic",
        "--arbiters", "static-priority", "--transactions", "10",
        "--workers", "1",
    ]

    def test_cold_then_warm_cache(self, tmp_path, capsys):
        from repro.sweep.cli import main

        cache = str(tmp_path / "cache")
        report = tmp_path / "report.json"
        assert main(self.ARGS + ["--cache", cache,
                                 "--json", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["points"] == 2
        assert data["computed"] == 2
        assert data["ranked"][0]["rank"] == 1
        # identical invocation resumes entirely from cache
        assert main(self.ARGS + ["--cache", cache,
                                 "--require-cached"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("extra", [[], ["--max-replicates", "2"]],
                             ids=["plain", "replicated"])
    def test_rerun_recomputes_every_point(self, extra, tmp_path, capsys):
        from repro.sweep.cli import main

        args = self.ARGS + extra + ["--cache", str(tmp_path / "cache")]
        report = tmp_path / "rerun.json"
        assert main(args) == 0
        assert main(args + ["--rerun", "--json", str(report)]) == 0
        data = json.loads(report.read_text())
        # every point (with --max-replicates 2, both replicates) re-ran
        assert (data["cached"], data["computed"]) == (
            0, data["points"] * (2 if extra else 1))
        capsys.readouterr()

    def test_truncated_points_listed_apart_from_ranking(self, tmp_path,
                                                        capsys):
        """A point the run bound cut short is not ranked; the report
        lists it with each master's completed and target counts."""
        from repro.sweep.cli import main

        report = tmp_path / "report.json"
        assert main(self.ARGS + ["--max-sim-time-us", "1",
                                 "--json", str(report)]) == 0
        data = json.loads(report.read_text())
        assert (data["points"], data["ranked"]) == (0, [])
        assert [row["config"] for row in data["truncated"]] == [
            "plb/static-priority@100MHz/b16",
            "generic/static-priority@100MHz/b16"]
        for row in data["truncated"]:
            assert [m["name"] for m in row["masters"]] == [
                "cpu", "dma", "sync"]
            assert all(m["completed"] < m["target"] == 10
                       for m in row["masters"])
        out = capsys.readouterr().out
        assert "truncated (excluded from ranking" in out

    def test_require_cached_fails_cold(self, tmp_path, capsys):
        from repro.sweep.cli import main

        rc = main(self.ARGS + ["--cache", str(tmp_path / "cold"),
                               "--require-cached"])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag,value", [
        ("--clock-ns", "10.5"), ("--clock-ns", "0"), ("--clock-ns", "-10"),
        ("--bursts", "x"), ("--bursts", "2.5"), ("--bursts", "0"),
        ("--top", "0"), ("--top", "-1"),
        ("--max-sim-time-us", "0"), ("--max-sim-time-us", "-5"),
        ("--transactions", "0"), ("--transactions", "-3"),
        ("--fabrics", "bogus"), ("--arbiters", "tdma,bogus"),
        ("--fabrics", ","), ("--arbiters", ","), ("--clock-ns", ","),
        ("--bursts", ","),
    ])
    def test_malformed_values_rejected(self, flag, value, capsys):
        """Exit 2 with a usage error naming the flag and the value —
        no traceback, and no report over a cut or empty ranking or an
        empty sweep axis."""
        from repro.sweep.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + [flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        assert repr(value) in err


def _noop():
    """One-tick thread body for kernel guard tests."""
    yield ns(1)


class TestKernelIsolationGuard:
    def test_one_running_context_per_process(self):
        outer = SimContext(name="outer")
        seen = []

        def body():
            inner = SimContext(name="inner")
            inner.register_thread(_noop, "noop")
            with pytest.raises(SimulationError, match="already running"):
                inner.run(ns(10))
            seen.append("guarded")
            yield ns(1)

        outer.register_thread(body, "body")
        outer.run(ns(10))
        assert seen == ["guarded"]

    def test_guard_clears_after_run(self):
        assert active_context() is None
        ctx = SimContext()
        ctx.register_thread(_noop, "noop")
        ctx.run(ns(2))
        assert active_context() is None
        # a different context may run afterwards
        ctx2 = SimContext()
        ctx2.register_thread(_noop, "noop")
        ctx2.run(ns(2))


class TestGoldenSweepParity:
    GOLDEN = REPO_ROOT / "benchmarks" / "golden_fault_sweep.txt"

    def test_engine_sweep_matches_golden_file(self):
        from repro.faults.campaign import run_sweep

        text = "\n".join(run_sweep(seed=1)) + "\n"
        assert text == self.GOLDEN.read_text()

    def test_workers_and_cache_do_not_change_golden_lines(self, tmp_path):
        from repro.faults.campaign import run_sweep

        engine = SweepEngine(workers=2,
                             store=SweepStore(tmp_path / "cache"))
        assert ("\n".join(run_sweep(seed=1, engine=engine)) + "\n"
                == self.GOLDEN.read_text())
        # and once more, now entirely from cache
        assert ("\n".join(run_sweep(seed=1, engine=engine)) + "\n"
                == self.GOLDEN.read_text())
        assert engine.last_computed == 0