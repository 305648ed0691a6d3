"""Steady-state estimation: transient removal and batch means.

A simulation that starts from an empty fabric spends its first
transactions in a warm-up transient (cold arbiters, empty queues); the
textbook treatment — Welch's graphical procedure made automatic — is to
truncate the initialization bias and then batch the remaining
autocorrelated series so the batch means are approximately independent
before forming a t interval.  This module implements exactly that
pipeline over the per-master latency series the exploration runner
exports with ``record_series=True``:

* :func:`mser_truncation` — the Marginal Standard Error Rule (MSER-k):
  pick the truncation point that minimizes the standard error of the
  remaining mean, the standard automated stand-in for eyeballing the
  Welch plot.
* :func:`batch_means` / :func:`lag1_autocorrelation` — fixed-count
  batching with the independence diagnostic that says whether the
  batches were long enough.
* :func:`steady_state_estimate` — the composition, returning a
  :class:`~repro.stats.estimate.MetricEstimate` whose diagnostics
  record what was dropped and how it was batched.

Everything is deterministic, allocation-light, pure python.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.stats.estimate import (
    DEFAULT_CONFIDENCE,
    MetricEstimate,
    estimate_from_samples,
)

#: Default batch count for batch-means estimation.  20-30 batches is
#: the classic guidance: enough t degrees of freedom, batches long
#: enough to damp autocorrelation.
DEFAULT_BATCHES = 20

#: MSER spacing: truncation candidates are multiples of this many
#: samples (MSER-5 in the literature).
MSER_SPACING = 5


def mser_truncation(series: Sequence[float],
                    spacing: int = MSER_SPACING) -> int:
    """Samples to drop from the front, by the MSER-k rule.

    Evaluates truncation points ``d = 0, spacing, 2*spacing, ...`` up
    to half the series and returns the ``d`` minimizing
    ``var(series[d:]) / (n - d)`` — the marginal standard error of the
    truncated mean.  A series too short to split (fewer than
    ``2 * spacing`` samples) is returned untruncated.  Never drops the
    second half: a minimum at the far end signals the run is all
    transient, and keeping data beats keeping nothing.
    """
    if spacing < 1:
        raise ValueError("spacing must be >= 1")
    n = len(series)
    if n < 2 * spacing:
        return 0
    best_d, best_score = 0, math.inf
    for d in range(0, n // 2 + 1, spacing):
        tail = series[d:]
        m = len(tail)
        if m < 2:
            break
        mean = sum(tail) / m
        var = sum((x - mean) ** 2 for x in tail) / m
        score = var / m
        if score < best_score:
            best_score, best_d = score, d
    return best_d


def batch_means(series: Sequence[float],
                batches: int = DEFAULT_BATCHES) -> List[float]:
    """Split ``series`` into ``batches`` contiguous batches of means.

    The batch count is reduced (never below 2) when the series is too
    short for the requested count at two samples per batch; leftover
    samples that do not fill a whole batch are folded into the last
    one, so no observation is silently discarded.
    """
    if batches < 2:
        raise ValueError("batch means needs at least 2 batches")
    n = len(series)
    if n < 4:
        raise ValueError(
            f"series of {n} samples is too short to batch")
    batches = min(batches, n // 2)
    size = n // batches
    means = []
    for b in range(batches):
        lo = b * size
        hi = n if b == batches - 1 else lo + size
        chunk = series[lo:hi]
        means.append(sum(chunk) / len(chunk))
    return means


def lag1_autocorrelation(values: Sequence[float]) -> float:
    """Lag-1 autocorrelation — the batch-independence diagnostic.

    Near zero means the batches are long enough that their means are
    effectively independent and the t interval is trustworthy; large
    positive values say the interval is optimistic and the batches (or
    the run) should grow.  Degenerate inputs (constant or too short)
    return 0.0.
    """
    n = len(values)
    if n < 2:
        return 0.0
    mean = sum(values) / n
    denom = sum((x - mean) ** 2 for x in values)
    if denom == 0.0:
        return 0.0
    num = sum(
        (values[i] - mean) * (values[i + 1] - mean)
        for i in range(n - 1)
    )
    return num / denom


def steady_state_estimate(
    series: Sequence[float],
    confidence: float = DEFAULT_CONFIDENCE,
    batches: int = DEFAULT_BATCHES,
    truncate: bool = True,
    spacing: int = MSER_SPACING,
) -> MetricEstimate:
    """Transient-removed, batch-means CI over one metric series.

    The pipeline: MSER truncation drops the initialization bias (skip
    with ``truncate=False``), :func:`batch_means` turns the remaining
    autocorrelated samples into approximately independent batch means,
    and a t interval over those means becomes the returned
    :class:`~repro.stats.estimate.MetricEstimate`.  Diagnostics carry
    ``truncated`` (samples dropped), ``batches``/``batch_size``, and
    ``lag1_autocorr`` of the batch means.

    Series too short to batch (under 4 retained samples) degrade to a
    plain per-sample t estimate flagged ``method="t-samples"`` rather
    than raising — screening sweeps with tiny workloads still get an
    honest (wide) interval.
    """
    if not series:
        raise ValueError("cannot estimate from an empty series")
    dropped = mser_truncation(series, spacing=spacing) if truncate else 0
    tail = list(series[dropped:])
    if len(tail) < 4:
        est = estimate_from_samples(tail, confidence=confidence,
                                    method="t-samples")
        est.diagnostics.update({"truncated": dropped,
                                "batches": len(tail),
                                "batch_size": 1,
                                "lag1_autocorr": 0.0})
        return est
    means = batch_means(tail, batches=batches)
    est = estimate_from_samples(means, confidence=confidence,
                                method="batch-means")
    est.diagnostics.update({
        "truncated": dropped,
        "batches": len(means),
        "batch_size": len(tail) // len(means),
        "lag1_autocorr": lag1_autocorrelation(means),
    })
    return est


def master_latency_estimate(
    result,
    master: Optional[str] = None,
    confidence: float = DEFAULT_CONFIDENCE,
    batches: int = DEFAULT_BATCHES,
) -> MetricEstimate:
    """Steady-state latency estimate from an exploration result.

    ``result`` is an :class:`~repro.explore.ExplorationResult` produced
    with ``record_series=True``; ``master`` selects one traffic master
    by name, while the default pools every master's series (in master
    order) into one estimate of the fabric-wide latency.  Raises when
    the result carries no series.
    """
    masters = (result.masters if master is None
               else [m for m in result.masters if m.name == master])
    if not masters:
        raise ValueError(f"no master named {master!r} in result")
    series: List[float] = []
    for m in masters:
        if m.latency_series is None:
            raise ValueError(
                f"master {m.name!r} has no latency series; run the "
                f"point with record_series=True"
            )
        series.extend(m.latency_series)
    return steady_state_estimate(series, confidence=confidence,
                                 batches=batches)
