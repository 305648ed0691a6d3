"""Estimator self-tests for the statistical evaluation engine.

Validates ``repro.stats`` against ground truth that needs no numpy or
scipy: published Student-t table values, closed-form seeded streams
(Normal, Exponential, AR(1)) whose true means are known, golden-pinned
seed derivations, and real simulations replicated across worker-pool
sizes and cache states.  Every stochastic check runs on a fixed seed,
so the suite is fully deterministic.
"""

import math
import random

import pytest

from repro.kernel import ns
from repro.explore import (
    ArchitectureConfig,
    MasterTrafficSpec,
    SUBSTREAMS,
    run_point,
)
from repro.stats import (
    MetricEstimate,
    PairedComparison,
    ReplicatedRunner,
    ReplicationPolicy,
    batch_means,
    crn_pair_base,
    estimate_from_samples,
    estimate_from_stats,
    incomplete_beta,
    lag1_autocorrelation,
    master_latency_estimate,
    mser_truncation,
    paired_compare,
    ranked_replicated,
    replicate_seed,
    steady_state_estimate,
    substream_seed,
    t_cdf,
    t_quantile,
)
from repro.sweep import SweepEngine, SweepPoint, SweepStore
from repro.trace import OnlineStats


def small_specs(transactions=8):
    """A tiny two-master workload that keeps each replicate fast."""
    return (
        MasterTrafficSpec("cpu", pattern="random", base=0x0,
                          size=1 << 12, burst_length=1, gap=ns(50),
                          transactions=transactions, priority=0),
        MasterTrafficSpec("dma", pattern="stream", base=0x1000,
                          size=1 << 12, burst_length=8, gap=ns(80),
                          transactions=transactions, priority=1),
    )


def small_point(fabric="plb", clock_ns=10, transactions=8):
    """One fast design point on the tiny workload."""
    return SweepPoint(
        config=ArchitectureConfig(fabric=fabric,
                                  arbiter="static-priority",
                                  clock_period=ns(clock_ns)),
        specs=small_specs(transactions),
    )


class TestStudentT:
    @pytest.mark.parametrize("p,df,expected", [
        (0.975, 1, 12.706),
        (0.975, 4, 2.776),
        (0.975, 9, 2.262),
        (0.95, 9, 1.833),
        (0.995, 9, 3.250),
        (0.975, 29, 2.045),
        (0.975, 120, 1.980),
    ])
    def test_published_table_values(self, p, df, expected):
        assert t_quantile(p, df) == pytest.approx(expected, abs=1e-3)

    def test_large_df_approaches_normal(self):
        assert t_quantile(0.975, 100_000) == pytest.approx(1.960,
                                                           abs=2e-3)

    def test_symmetry(self):
        assert t_quantile(0.025, 9) == pytest.approx(
            -t_quantile(0.975, 9), abs=1e-9)
        assert t_quantile(0.5, 9) == 0.0

    @pytest.mark.parametrize("p", [0.6, 0.9, 0.975, 0.999])
    @pytest.mark.parametrize("df", [1, 5, 30])
    def test_cdf_quantile_roundtrip(self, p, df):
        assert t_cdf(t_quantile(p, df), df) == pytest.approx(p,
                                                             abs=1e-8)

    def test_cdf_basics(self):
        assert t_cdf(0.0, 5) == 0.5
        assert t_cdf(-2.0, 5) == pytest.approx(1.0 - t_cdf(2.0, 5))
        assert t_cdf(1.0, 5) < t_cdf(2.0, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            t_quantile(0.0, 5)
        with pytest.raises(ValueError):
            t_quantile(1.0, 5)
        with pytest.raises(ValueError):
            t_quantile(0.9, 0)
        with pytest.raises(ValueError):
            t_cdf(1.0, 0)

    def test_incomplete_beta_identities(self):
        # I_x(1, 1) is the uniform CDF: x itself.
        for x in (0.1, 0.5, 0.9):
            assert incomplete_beta(1.0, 1.0, x) == pytest.approx(x)
        assert incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert incomplete_beta(2.0, 3.0, 1.0) == 1.0
        # The symmetry relation the t CDF relies on.
        assert incomplete_beta(2.5, 1.5, 0.3) == pytest.approx(
            1.0 - incomplete_beta(1.5, 2.5, 0.7), abs=1e-10)
        with pytest.raises(ValueError):
            incomplete_beta(1.0, 1.0, 1.5)


class TestMetricEstimate:
    def test_bounds_and_coverage(self):
        est = MetricEstimate(mean=10.0, half_width=2.0, n=5)
        assert est.lower == 8.0 and est.upper == 12.0
        assert est.covers(10.0) and est.covers(8.0) and est.covers(12.0)
        assert not est.covers(7.9)
        assert est.relative_half_width == pytest.approx(0.2)
        assert est.meets(0.2) and not est.meets(0.19)

    def test_zero_mean_relative_width(self):
        assert MetricEstimate(0.0, 1.0).relative_half_width == math.inf
        assert MetricEstimate(0.0, 0.0).relative_half_width == 0.0

    def test_single_sample_is_honest(self):
        est = estimate_from_samples([42.0])
        assert est.mean == 42.0
        assert est.half_width == math.inf
        assert not est.meets(0.5)

    def test_zero_samples_raise(self):
        with pytest.raises(ValueError):
            estimate_from_samples([])
        with pytest.raises(ValueError):
            estimate_from_stats(OnlineStats())

    def test_known_interval(self):
        # mean 2.5, sample sd ~1.29, t(0.975, 3) = 3.182.
        est = estimate_from_samples([1.0, 2.0, 3.0, 4.0])
        sem = est.stddev / 2.0
        assert est.half_width == pytest.approx(3.182 * sem, rel=1e-3)

class TestCoverage:
    """CI coverage against closed-form streams with known means.

    The trial counts and fixed seeds make every figure deterministic;
    the bounds allow the usual binomial wobble around the nominal 95%.
    """

    def test_normal_stream_near_nominal(self):
        rng = random.Random("stats-normal")
        hits = sum(
            estimate_from_samples(
                [rng.gauss(10.0, 2.0) for _ in range(20)]
            ).covers(10.0)
            for _ in range(200)
        )
        # Nominal is 190/200; exact t intervals on normal data.
        assert 183 <= hits <= 199

    def test_exponential_stream_slightly_under(self):
        rng = random.Random("stats-exponential")
        hits = sum(
            estimate_from_samples(
                [rng.expovariate(1.0 / 5.0) for _ in range(30)]
            ).covers(5.0)
            for _ in range(200)
        )
        # Skewed data undercovers a little at n=30 — but not wildly.
        assert 165 <= hits <= 197

    def test_ar1_naive_undercovers_batch_means_recovers(self):
        rng = random.Random("stats-ar1")
        naive_hits = batch_hits = 0
        for _ in range(100):
            x, series = 50.0, []
            for _ in range(400):
                x = 50.0 + 0.7 * (x - 50.0) + rng.gauss(0.0, 1.0)
                series.append(x)
            naive_hits += estimate_from_samples(series).covers(50.0)
            batch_hits += steady_state_estimate(
                series, truncate=False).covers(50.0)
        # Treating autocorrelated samples as independent is a disaster
        # (interval ~sqrt((1+phi)/(1-phi)) too narrow)...
        assert naive_hits <= 70
        # ...while 20 batch means of 20 samples nearly restore nominal.
        assert batch_hits >= 80
        assert batch_hits > naive_hits + 15


class TestSteadyState:
    def test_mser_finds_transient(self):
        rng = random.Random("stats-mser")
        series = [
            10.0 + 30.0 * (0.9 ** i) + rng.gauss(0.0, 1.0)
            for i in range(300)
        ]
        d = mser_truncation(series)
        assert 10 <= d <= 60
        truncated = steady_state_estimate(series)
        raw = steady_state_estimate(series, truncate=False)
        assert truncated.diagnostics["truncated"] == d
        assert abs(truncated.mean - 10.0) < abs(raw.mean - 10.0)

    def test_mser_stationary_keeps_everything(self):
        rng = random.Random("stats-mser-flat")
        flat = [5.0 + rng.gauss(0.0, 1.0) for _ in range(200)]
        assert mser_truncation(flat) == 0

    def test_mser_short_series_untouched(self):
        assert mser_truncation([1.0, 2.0, 3.0]) == 0
        with pytest.raises(ValueError):
            mser_truncation([1.0] * 20, spacing=0)

    def test_mser_never_drops_second_half(self):
        ramp = [float(i) for i in range(100)]  # all transient
        assert mser_truncation(ramp) <= 50

    def test_batch_means_exact(self):
        assert batch_means([float(i) for i in range(8)], batches=4) == [
            0.5, 2.5, 4.5, 6.5,
        ]
        # Leftovers fold into the last batch, nothing is discarded.
        means = batch_means([float(i) for i in range(10)], batches=4)
        assert means == [0.5, 2.5, 4.5, 7.5]

    def test_batch_means_validation(self):
        with pytest.raises(ValueError):
            batch_means([1.0] * 10, batches=1)
        with pytest.raises(ValueError):
            batch_means([1.0, 2.0, 3.0])

    def test_batch_count_shrinks_for_short_series(self):
        means = batch_means([float(i) for i in range(6)], batches=20)
        assert len(means) == 3  # n // 2, not the requested 20

    def test_lag1_autocorrelation(self):
        assert lag1_autocorrelation([2.0] * 10) == 0.0
        assert lag1_autocorrelation([1.0]) == 0.0
        alternating = [1.0, -1.0] * 20
        assert lag1_autocorrelation(alternating) < -0.8
        trending = [float(i) for i in range(40)]
        assert lag1_autocorrelation(trending) > 0.8

    def test_short_series_degrades_to_samples(self):
        est = steady_state_estimate([4.0, 5.0, 6.0])
        assert est.method == "t-samples"
        assert est.diagnostics["batches"] == 3
        with pytest.raises(ValueError):
            steady_state_estimate([])

    def test_diagnostics_schema(self):
        est = steady_state_estimate([float(i % 7) for i in range(100)])
        assert est.method == "batch-means"
        for key in ("truncated", "batches", "batch_size",
                    "lag1_autocorr"):
            assert key in est.diagnostics

    def test_master_latency_estimate_from_result(self):
        config = ArchitectureConfig(fabric="plb",
                                    arbiter="static-priority")
        with_series = run_point(config, list(small_specs(30)),
                                record_series=True)
        est = master_latency_estimate(with_series)
        assert est.n >= 2
        assert est.mean > 0.0
        cpu_only = master_latency_estimate(with_series, master="cpu")
        assert cpu_only.mean != est.mean
        with pytest.raises(ValueError):
            master_latency_estimate(with_series, master="nope")
        without = run_point(config, list(small_specs(10)))
        with pytest.raises(ValueError):
            master_latency_estimate(without)


class TestSeedDerivation:
    """The derivation formats are compatibility contracts — pin them."""

    def test_replicate_seed_golden_values(self):
        assert replicate_seed("abc", 0) == 3852423377991627257
        assert replicate_seed("abc", 1) == 3883302052626682911
        assert replicate_seed("crn[a|b]", 3) == 5473650299967797192

    def test_replicate_seed_distinct_and_validated(self):
        seeds = {replicate_seed("key", r) for r in range(50)}
        assert len(seeds) == 50
        assert replicate_seed("other", 0) != replicate_seed("key", 0)
        with pytest.raises(ValueError):
            replicate_seed("key", -1)

    def test_crn_pair_base_order_independent(self):
        assert crn_pair_base("zzz", "aaa") == "crn[aaa|zzz]"
        assert crn_pair_base("aaa", "zzz") == crn_pair_base("zzz", "aaa")

    def test_substream_seed_golden_format(self):
        assert SUBSTREAMS == ("addr", "rw", "gap", "data")
        assert substream_seed(7, "dma0", "gap") == "7:dma0:gap"
        with pytest.raises(ValueError):
            substream_seed(7, "dma0", "bogus")


class TestReplicationPolicy:
    def test_defaults_and_fixed(self):
        policy = ReplicationPolicy()
        assert policy.fixed
        assert policy.initial_replicates == policy.r_max
        sequential = ReplicationPolicy(ci_target=0.02)
        assert not sequential.fixed
        assert sequential.initial_replicates == sequential.r_min

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicationPolicy(r_min=0)
        with pytest.raises(ValueError):
            ReplicationPolicy(r_min=5, r_max=3)
        with pytest.raises(ValueError):
            ReplicationPolicy(ci_target=0.0)
        with pytest.raises(ValueError):
            ReplicationPolicy(confidence=1.0)


class TestReplicatedRunner:
    def test_fixed_replication(self):
        point = small_point()
        runner = ReplicatedRunner(SweepEngine(workers=1),
                                  ReplicationPolicy(r_min=3, r_max=3))
        (outcome,) = runner.run([point])
        assert outcome.replicates == 3
        assert outcome.estimate.n == 3
        assert outcome.estimate.method == "replicates"
        assert not outcome.met_target
        assert runner.last_replicates == 3

    def test_replicate_points_derive_from_content_key(self):
        point = small_point()
        runner = ReplicatedRunner(SweepEngine(workers=1),
                                  ReplicationPolicy(r_min=2, r_max=2))
        (outcome,) = runner.run([point])
        for r, rep in enumerate(outcome.outcomes):
            assert rep.point.seed == replicate_seed(point.key(), r)
            assert rep.point.rng_streams
        assert outcome.key == point.key()

    def test_sequential_stopping_stops_early(self):
        point = small_point()
        runner = ReplicatedRunner(
            SweepEngine(workers=1),
            ReplicationPolicy(r_min=2, r_max=8, ci_target=0.5),
        )
        (outcome,) = runner.run([point])
        assert outcome.met_target
        assert outcome.replicates < 8
        assert outcome.estimate.meets(0.5)

    def test_cap_reached_without_target(self):
        point = small_point()
        runner = ReplicatedRunner(
            SweepEngine(workers=1),
            ReplicationPolicy(r_min=2, r_max=3, ci_target=1e-9),
        )
        (outcome,) = runner.run([point])
        assert not outcome.met_target
        assert outcome.replicates == 3

    def test_validation(self):
        runner = ReplicatedRunner(SweepEngine(workers=1))
        with pytest.raises(ValueError):
            runner.run([small_point()], objective="bogus")
        with pytest.raises(ValueError):
            runner.run([small_point()], bases=["a", "b"])

    def test_ranked_replicated_orders_by_estimate(self):
        points = [small_point(fabric="plb"),
                  small_point(fabric="generic")]
        runner = ReplicatedRunner(SweepEngine(workers=1),
                                  ReplicationPolicy(r_min=2, r_max=2))
        outcomes = ranked_replicated(runner.run(points))
        means = [o.estimate.mean for o in outcomes]
        assert means == sorted(means)
        by_throughput = ranked_replicated(
            runner.run(points, objective="throughput_mbps"),
            "throughput_mbps",
        )
        tput = [o.estimate.mean for o in by_throughput]
        assert tput == sorted(tput, reverse=True)


class TestReplicatedDeterminism:
    """Bit-identical replicated estimates across pools and caches."""

    POLICY = ReplicationPolicy(r_min=2, r_max=4, ci_target=0.2)

    def _rows(self, engine):
        points = [small_point(fabric="plb"),
                  small_point(fabric="generic")]
        runner = ReplicatedRunner(engine, self.POLICY)
        outcomes = ranked_replicated(runner.run(points))
        return [o.row() for o in outcomes]

    def test_identical_across_worker_counts(self):
        baseline = self._rows(SweepEngine(workers=1))
        for workers in (2, 4):
            with SweepEngine(workers=workers) as engine:
                assert self._rows(engine) == baseline

    def test_identical_cold_and_warm_cache(self, tmp_path):
        store = SweepStore(tmp_path / "cache")
        cold_engine = SweepEngine(workers=1, store=store)
        cold = self._rows(cold_engine)
        warm_engine = SweepEngine(workers=1,
                                  store=SweepStore(tmp_path / "cache"))
        warm = self._rows(warm_engine)
        assert warm == cold
        # The warm pass simulated nothing: every replicate was a hit.
        assert warm_engine.last_computed == 0
        assert self._rows(SweepEngine(workers=1)) == cold


class TestPairedCompare:
    def test_crn_reduces_difference_variance(self):
        # A close pair (same fabric, 10 vs 12 ns clock): responses are
        # strongly positively correlated under common traffic, which
        # is exactly where CRN pays off.
        a = small_point(clock_ns=10, transactions=20)
        b = small_point(clock_ns=12, transactions=20)
        with SweepEngine(workers=1) as engine:
            crn = paired_compare(engine, a, b, replicates=6, crn=True)
            ind = paired_compare(engine, a, b, replicates=6, crn=False)
        assert crn.crn and not ind.crn
        assert crn.difference.method == "paired-crn"
        assert ind.difference.method == "paired-independent"
        # The headline claim: strictly smaller difference variance.
        assert crn.difference.stddev < ind.difference.stddev
        assert crn.difference.half_width < ind.difference.half_width

    def test_crn_sides_share_replicate_seeds(self):
        a = small_point(clock_ns=10)
        b = small_point(clock_ns=12)
        runner = ReplicatedRunner(SweepEngine(workers=1),
                                  ReplicationPolicy(r_min=2, r_max=2))
        shared = crn_pair_base(a.key(), b.key())
        rep_a = runner.replicate_point(a, 0, base=shared)
        rep_b = runner.replicate_point(b, 0, base=shared)
        assert rep_a.seed == rep_b.seed
        assert rep_a.key() != rep_b.key()  # different configs

    def test_significance_and_winner(self):
        a = small_point(clock_ns=10, transactions=20)
        b = small_point(clock_ns=12, transactions=20)
        with SweepEngine(workers=1) as engine:
            result = paired_compare(engine, a, b, replicates=6)
        # A 20% faster clock is unambiguously lower-latency.
        assert result.significant
        assert result.difference.mean < 0.0
        assert result.difference.n == 6

    def test_insignificant_comparison_has_no_winner(self):
        comparison = PairedComparison(
            point_a=small_point(), point_b=small_point(fabric="generic"),
            objective="mean_latency_ns",
            estimate_a=MetricEstimate(10.0, 1.0),
            estimate_b=MetricEstimate(10.5, 1.0),
            difference=MetricEstimate(-0.5, 2.0, n=4),
            crn=True,
        )
        assert not comparison.significant

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_compare(SweepEngine(workers=1), small_point(),
                           small_point(fabric="generic"), replicates=1)
