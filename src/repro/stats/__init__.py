"""``repro.stats`` — statistically rigorous evaluation of sweep results.

The paper's methodology chooses architectures by comparing simulated
metrics; this package supplies the statistics that make such
comparisons defensible instead of anecdotal:

* :mod:`repro.stats.estimate` — :class:`MetricEstimate` (mean ± t-based
  confidence half-width) and the pure-python Student-t machinery behind
  it (regularized incomplete beta, ``t_cdf``, ``t_quantile``).
* :mod:`repro.stats.steady` — steady-state estimation over per-master
  latency series: MSER transient truncation (automated Welch
  procedure), batch means, lag-1 independence diagnostic.
* :mod:`repro.stats.seeds` — content-key-derived replicate seeds and
  the per-``(master, stream)`` substream discipline; the golden-pinned
  derivation contracts.
* :mod:`repro.stats.replicate` — :class:`ReplicatedRunner`: R
  independent replicates per design point through the warm
  :class:`~repro.sweep.SweepEngine` pool, pooled into CIs, with the
  sequential stopping rule "replicate until the CI half-width is
  within ``ci_target`` of the mean, capped at ``r_max``".
* :mod:`repro.stats.crn` — common-random-numbers paired comparison of
  two design points (:func:`paired_compare`), reporting the CI of the
  difference with measurable variance reduction over independent
  seeding.

See ``docs/evaluation.md`` for the methodology walkthrough and
``examples/rigorous_exploration.py`` for an end-to-end run.
"""

from repro.stats.crn import PairedComparison, paired_compare
from repro.stats.estimate import (
    DEFAULT_CONFIDENCE,
    MetricEstimate,
    estimate_from_samples,
    estimate_from_stats,
    incomplete_beta,
    t_cdf,
    t_quantile,
)
from repro.stats.replicate import (
    ReplicatedOutcome,
    ReplicatedRunner,
    ReplicationPolicy,
    ranked_replicated,
)
from repro.stats.seeds import (
    SUBSTREAMS,
    crn_pair_base,
    replicate_seed,
    substream_seed,
)
from repro.stats.steady import (
    batch_means,
    lag1_autocorrelation,
    master_latency_estimate,
    mser_truncation,
    steady_state_estimate,
)

__all__ = [
    "DEFAULT_CONFIDENCE",
    "MetricEstimate",
    "PairedComparison",
    "ReplicatedOutcome",
    "ReplicatedRunner",
    "ReplicationPolicy",
    "SUBSTREAMS",
    "batch_means",
    "crn_pair_base",
    "estimate_from_samples",
    "estimate_from_stats",
    "incomplete_beta",
    "lag1_autocorrelation",
    "master_latency_estimate",
    "mser_truncation",
    "paired_compare",
    "ranked_replicated",
    "replicate_seed",
    "steady_state_estimate",
    "substream_seed",
    "t_cdf",
    "t_quantile",
]
