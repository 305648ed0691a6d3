"""Unit tests for the exploration engine."""

import pytest

from repro.kernel import Module, ns, us
from repro.explore import (
    ArchitectureConfig,
    DesignSpace,
    MasterTrafficSpec,
    TrafficMaster,
    explore,
    format_table,
    pareto_front,
    run_point,
    standard_workloads,
)


class TestTrafficSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="pattern"):
            MasterTrafficSpec("m", pattern="bursty")
        with pytest.raises(ValueError, match="read_fraction"):
            MasterTrafficSpec("m", read_fraction=1.5)
        with pytest.raises(ValueError, match="burst_length"):
            MasterTrafficSpec("m", burst_length=0)
        with pytest.raises(ValueError, match="fit"):
            MasterTrafficSpec("m", burst_length=16, size=32)

    def test_standard_workloads_well_formed(self):
        workloads = standard_workloads()
        assert set(workloads) == {
            "dma_stream", "cpu_random", "mixed", "contended",
        }
        for specs in workloads.values():
            names = [s.name for s in specs]
            assert len(names) == len(set(names))

    def test_contended_workload_converges_fabrics(self):
        """All masters on one region: the crossbar's parallelism cannot
        help, so it performs like the plain shared bus."""
        specs = standard_workloads()["contended"]
        shared = run_point(ArchitectureConfig(fabric="generic"), specs)
        xbar = run_point(ArchitectureConfig(fabric="crossbar"), specs)
        assert shared.all_done and xbar.all_done
        assert xbar.mean_latency_ns == pytest.approx(
            shared.mean_latency_ns, rel=0.05
        )


class TestTrafficMaster:
    def _run(self, ctx, top, spec, seed=1):
        from repro.cam import GenericBus, MemorySlave

        bus = GenericBus("bus", top, clock_period=ns(10))
        mem = MemorySlave("mem", top, size=spec.size, read_wait=0,
                          write_wait=0)
        bus.attach_slave(mem, spec.base, spec.size)
        socket = bus.master_socket(spec.name)
        tm = TrafficMaster("tm", top, socket=socket, spec=spec,
                           seed=seed)
        ctx.run(us(100_000))
        return tm

    def test_completes_requested_transactions(self, ctx, top):
        spec = MasterTrafficSpec("m", pattern="stream", transactions=25,
                                 gap=ns(20))
        tm = self._run(ctx, top, spec)
        assert tm.completed == 25
        assert tm.errors == 0
        assert tm.done
        assert tm.latency.count == 25
        assert tm.bytes_done == 25 * spec.burst_length * 4

    def test_deterministic_for_same_seed(self):
        from repro.kernel import SimContext

        def run(seed):
            ctx = SimContext()
            top = Module("top", ctx=ctx)
            spec = MasterTrafficSpec("m", pattern="random",
                                     transactions=30, gap=ns(50))
            tm = self._run_with(ctx, top, spec, seed)
            return (tm.bytes_done, tm.latency.total_ns,
                    str(tm.last_done))

        assert run(7) == run(7)
        assert run(7) != run(8)

    def _run_with(self, ctx, top, spec, seed):
        from repro.cam import GenericBus, MemorySlave

        bus = GenericBus("bus", top, clock_period=ns(10))
        mem = MemorySlave("mem", top, size=spec.size, read_wait=0,
                          write_wait=0)
        bus.attach_slave(mem, spec.base, spec.size)
        tm = TrafficMaster("tm", top,
                           socket=bus.master_socket(spec.name),
                           spec=spec, seed=seed)
        ctx.run(us(100_000))
        return tm

    def test_stream_wraps_to_region_start(self, ctx, top):
        """Past the region's end a stream restarts at its base, so every
        burst stays aligned and inside the region, pass after pass."""
        from repro.cam import GenericBus, MemorySlave

        spec = MasterTrafficSpec("m", pattern="stream", base=0x1000,
                                 size=256, burst_length=8,
                                 transactions=16, gap=ns(10))
        bus = GenericBus("bus", top, clock_period=ns(10))
        mem = MemorySlave("mem", top, size=0x2000)
        bus.attach_slave(mem, 0, 0x2000)
        seen = []

        class Spy:
            def transport(self, request):
                seen.append(request.addr)
                return (yield from bus.master_socket("m").transport(
                    request))

        TrafficMaster("tm", top, socket=Spy(), spec=spec)
        ctx.run(us(100_000))
        one_pass = [0x1000 + 32 * i for i in range(8)]
        assert seen == one_pass + one_pass

    def test_pingpong_alternates_write_read(self, ctx, top):
        spec = MasterTrafficSpec("m", pattern="pingpong",
                                 transactions=10, gap=ns(10),
                                 burst_length=1)
        tm = self._run(ctx, top, spec)
        assert tm.completed == 10
        assert tm.errors == 0


class TestDesignSpace:
    def test_cartesian_product(self):
        space = DesignSpace(
            fabrics=("plb", "generic"),
            arbiters=("static-priority",),
            clock_periods=(ns(10), ns(5)),
            max_bursts=(8, 16),
        )
        configs = list(space)
        assert len(configs) == len(space) == 8
        names = {c.name for c in configs}
        assert len(names) == 8

    def test_config_validation(self):
        with pytest.raises(ValueError, match="fabric"):
            ArchitectureConfig(fabric="token-ring")
        with pytest.raises(ValueError, match="arbiter"):
            ArchitectureConfig(arbiter="roulette")
        with pytest.raises(ValueError):
            ArchitectureConfig(max_burst=0)
        with pytest.raises(ValueError, match="clock_period"):
            ArchitectureConfig(clock_period=ns(0))

    def test_label_override(self):
        cfg = ArchitectureConfig(label="baseline")
        assert cfg.name == "baseline"


class TestRunner:
    def _small_specs(self, n=20):
        return [
            MasterTrafficSpec("cpu", pattern="random", base=0x0,
                              size=1 << 12, burst_length=1, gap=ns(50),
                              transactions=n, priority=0),
            MasterTrafficSpec("dma", pattern="stream", base=0x1000,
                              size=1 << 12, burst_length=8, gap=ns(80),
                              transactions=n, priority=1),
        ]

    def test_run_point_produces_metrics(self):
        result = run_point(ArchitectureConfig(fabric="plb"),
                           self._small_specs(), workload_name="t")
        assert result.all_done
        assert result.mean_latency_ns > 0
        assert result.throughput_mbps > 0
        assert 0.0 <= result.utilization <= 1.0
        assert {m.name for m in result.masters} == {"cpu", "dma"}
        row = result.as_row()
        assert row["workload"] == "t"

    def test_point_cut_short_by_the_run_bound_is_not_done(self):
        """``all_done`` needs every master's transaction count, not just
        error-free responses: a bound inside the workload truncates."""
        result = run_point(ArchitectureConfig(fabric="plb"),
                           standard_workloads()["mixed"],
                           workload_name="mixed", max_sim_time=us(2))
        assert [m.target for m in result.masters] == [300, 150, 200]
        assert [m.completed for m in result.masters] == [14, 4, 11]
        assert all(m.errors == 0 for m in result.masters)
        assert result.truncated
        assert not result.all_done
        unbounded = run_point(
            ArchitectureConfig(fabric="plb"),
            [MasterTrafficSpec("bg", transactions=None)],
            max_sim_time=us(2))
        assert unbounded.masters[0].target is None
        assert unbounded.all_done and not unbounded.truncated

    def test_burst_clamped_to_config_max(self):
        result = run_point(
            ArchitectureConfig(fabric="generic", max_burst=4),
            self._small_specs(),
        )
        dma = next(m for m in result.masters if m.name == "dma")
        assert dma.errors == 0
        # 20 bursts of 4 words = 320 bytes
        assert dma.bytes_done == 20 * 4 * 4

    def test_tdma_config_runs(self):
        result = run_point(
            ArchitectureConfig(fabric="generic", arbiter="tdma"),
            self._small_specs(10),
        )
        assert result.all_done

    def test_explore_sweeps_space(self):
        space = DesignSpace(fabrics=("generic", "crossbar"),
                            arbiters=("round-robin",))
        results = explore(space, self._small_specs(10))
        assert len(results) == 2
        assert {r.config.fabric for r in results} == {
            "generic", "crossbar"
        }

    def test_crossbar_beats_shared_bus_on_disjoint_traffic(self):
        specs = self._small_specs(40)
        shared = run_point(ArchitectureConfig(fabric="generic"), specs)
        xbar = run_point(ArchitectureConfig(fabric="crossbar"), specs)
        assert xbar.mean_latency_ns <= shared.mean_latency_ns

    def test_format_table_and_pareto(self):
        space = DesignSpace(fabrics=("generic", "crossbar"),
                            arbiters=("round-robin",))
        results = explore(space, self._small_specs(10))
        table = format_table(results)
        assert "mean_latency_ns" in table
        assert len(table.splitlines()) == 2 + len(results)
        front = pareto_front(results)
        assert front
        assert all(r in results for r in front)

    def test_pareto_dominance(self):
        space = DesignSpace(
            fabrics=("plb", "opb"), arbiters=("static-priority",)
        )
        results = explore(space, self._small_specs(15))
        front = pareto_front(results)
        # at minimum the best-latency point is on the front
        best = min(results, key=lambda r: r.mean_latency_ns)
        assert best in front

    def test_empty_table(self):
        assert format_table([]) == "(no results)"


class TestUnboundedTraffic:
    def test_unlimited_spec_stops_at_run_bound(self):
        """transactions=None streams until the simulation bound."""
        from repro.explore import ArchitectureConfig, run_point

        spec = MasterTrafficSpec("m", pattern="stream",
                                 transactions=None, gap=ns(100))
        result = run_point(ArchitectureConfig(fabric="generic"),
                           [spec], max_sim_time=us(50))
        master = result.masters[0]
        assert master.completed > 10
        assert not result.masters[0].errors
