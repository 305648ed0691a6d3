"""Common-random-numbers paired comparison of two design points.

Ranking two configs by independently-seeded runs wastes most of the
replication budget on noise both configs share (the workload's random
addresses, gaps, and payloads).  Common random numbers removes that
shared noise: replicate ``r`` of config A and replicate ``r`` of
config B derive their seeds from the *same* base
(:func:`repro.stats.seeds.crn_pair_base`), so both simulate identical
traffic and the per-replicate differences ``A_r - B_r`` cancel the
workload variance.  The CI of the mean difference is then computed
from those paired differences — typically several times tighter than
the independent-seeds interval at the same replicate count, which is
exactly what the estimator self-tests and the benchmark's
``crn_variance_ratio`` record measure.

The substream discipline matters: replicate points run with
``rng_streams=True``, so a config that consumes fewer draws of one
kind (say, clamped bursts drawing fewer payload words) does not
desynchronize every later address and gap draw — without per-stream
RNGs, "common" random numbers silently stop being common.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stats.estimate import (
    DEFAULT_CONFIDENCE,
    MetricEstimate,
    estimate_from_samples,
)
from repro.stats.replicate import ReplicatedRunner, ReplicationPolicy
from repro.stats.seeds import crn_pair_base
from repro.sweep.engine import SweepEngine
from repro.sweep.points import SweepPoint


@dataclass
class PairedComparison:
    """The outcome of one A-vs-B comparison.

    ``difference`` is the t-based estimate of ``mean(A) - mean(B)``
    computed over the per-replicate differences; with ``crn=True``
    those replicates shared traffic, without it they were independent.
    """

    point_a: SweepPoint
    point_b: SweepPoint
    objective: str
    estimate_a: MetricEstimate
    estimate_b: MetricEstimate
    difference: MetricEstimate
    crn: bool

    @property
    def significant(self) -> bool:
        """True when the difference CI excludes zero."""
        return not self.difference.covers(0.0)


def paired_compare(
    engine: SweepEngine,
    point_a: SweepPoint,
    point_b: SweepPoint,
    objective: str = "mean_latency_ns",
    replicates: int = 8,
    confidence: float = DEFAULT_CONFIDENCE,
    crn: bool = True,
) -> PairedComparison:
    """Compare two design points replicate-by-replicate.

    Runs ``replicates`` replicates of each point through ``engine``
    (both points' replicates batch into the same pool dispatches) and
    reports the CI of the per-replicate difference.  ``crn=True``
    derives both sides' replicate seeds from the shared
    :func:`~repro.stats.seeds.crn_pair_base`, so replicate ``r`` of A
    and of B drive identical traffic; ``crn=False`` keeps the seeds
    independent — run both ways on the same pair to measure the
    variance reduction CRN buys.
    """
    if replicates < 2:
        raise ValueError(
            f"paired comparison needs >= 2 replicates, got {replicates}"
        )
    runner = ReplicatedRunner(
        engine,
        policy=ReplicationPolicy(r_min=replicates, r_max=replicates,
                                 confidence=confidence),
    )
    bases = None
    if crn:
        shared = crn_pair_base(point_a.key(), point_b.key())
        bases = [shared, shared]
    outcome_a, outcome_b = runner.run(
        [point_a, point_b], objective=objective, bases=bases,
    )
    values_a = outcome_a.values()
    values_b = outcome_b.values()
    differences = [a - b for a, b in zip(values_a, values_b)]
    method = "paired-crn" if crn else "paired-independent"
    difference = estimate_from_samples(
        differences, confidence=confidence, method=method,
        diagnostics={"replicates": len(differences)},
    )
    return PairedComparison(
        point_a=point_a, point_b=point_b, objective=objective,
        estimate_a=outcome_a.estimate, estimate_b=outcome_b.estimate,
        difference=difference, crn=crn,
    )
