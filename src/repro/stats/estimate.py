"""Confidence-interval estimates without numpy/scipy.

The evaluation engine's currency is the :class:`MetricEstimate`: a mean
plus a two-sided t-based confidence half-width and the diagnostics that
say how the interval was formed (sample count, batching, transient
truncation).  Everything here is pure standard-library python — the
Student-t quantile is computed from the regularized incomplete beta
function (continued fraction, Numerical-Recipes style) inverted by
bisection, and the estimator self-tests validate it against published
table values and seeded closed-form streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.trace.stats import OnlineStats

#: Default two-sided confidence level used across the package.
DEFAULT_CONFIDENCE = 0.95

#: Continued-fraction iteration cap for the incomplete beta function.
_BETACF_MAX_ITER = 200
#: Convergence tolerance of the continued fraction.
_BETACF_EPS = 3.0e-12


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function.

    The classic Lentz evaluation (Numerical Recipes ``betacf``),
    convergent for ``x < (a + 1) / (a + b + 2)`` — the caller applies
    the symmetry transform for the other half of the domain.
    """
    tiny = 1.0e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    return h


def incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, df: int) -> float:
    """Student-t cumulative distribution function with ``df`` degrees."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * incomplete_beta(df / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


def t_quantile(p: float, df: int) -> float:
    """Inverse Student-t CDF (one-sided quantile) by bisection.

    ``t_quantile(0.975, 9)`` is the familiar 2.262 multiplier of a
    95% two-sided CI over 10 samples.  Bisection over the monotone CDF
    trades a few dozen cheap evaluations for guaranteed convergence —
    no series expansion edge cases to defend.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {p}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if p == 0.5:
        return 0.0
    # Symmetric distribution: solve in the upper half and mirror.
    if p < 0.5:
        return -t_quantile(1.0 - p, df)
    lo, hi = 0.0, 2.0
    while t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - p astronomically close to 1
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


@dataclass
class MetricEstimate:
    """A mean with a two-sided confidence interval and its provenance.

    ``n`` counts the observations the interval is computed over —
    replicates for a replicated-run estimate, batches for a
    batch-means estimate.  ``diagnostics`` carries method-specific
    extras (transient samples truncated, batch size, lag-1
    autocorrelation of the batch means) without widening the core
    schema.
    """

    mean: float
    half_width: float
    confidence: float = DEFAULT_CONFIDENCE
    n: int = 0
    stddev: float = 0.0
    method: str = "t"
    diagnostics: Dict[str, object] = field(default_factory=dict)

    @property
    def lower(self) -> float:
        """Lower confidence bound."""
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        """Upper confidence bound."""
        return self.mean + self.half_width

    @property
    def relative_half_width(self) -> float:
        """Half-width as a fraction of |mean| (inf for a zero mean)."""
        if self.mean == 0.0:
            return math.inf if self.half_width > 0.0 else 0.0
        return self.half_width / abs(self.mean)

    def covers(self, value: float) -> bool:
        """True when ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper

    def meets(self, ci_target: float) -> bool:
        """True when the relative half-width is within ``ci_target``."""
        return self.relative_half_width <= ci_target

    def __repr__(self) -> str:
        return (
            f"MetricEstimate({self.mean:.4g} ± {self.half_width:.4g} "
            f"@ {self.confidence:.0%}, n={self.n}, {self.method})"
        )


def estimate_from_samples(
    samples: Sequence[float],
    confidence: float = DEFAULT_CONFIDENCE,
    method: str = "t",
    diagnostics: Optional[dict] = None,
) -> MetricEstimate:
    """t-based :class:`MetricEstimate` over independent observations.

    One sample yields a degenerate estimate with an infinite
    half-width — honest "no interval yet", which sequential stopping
    rules treat as "keep replicating".
    """
    if not samples:
        raise ValueError("cannot estimate from zero samples")
    stats = OnlineStats()
    for value in samples:
        stats.add(value)
    return estimate_from_stats(stats, confidence=confidence,
                               method=method, diagnostics=diagnostics)


def estimate_from_stats(
    stats: OnlineStats,
    confidence: float = DEFAULT_CONFIDENCE,
    method: str = "t",
    diagnostics: Optional[dict] = None,
) -> MetricEstimate:
    """t-based :class:`MetricEstimate` from accumulated moments.

    Works on any :class:`~repro.trace.stats.OnlineStats` — including
    one produced by :meth:`~repro.trace.stats.OnlineStats.merge`, whose
    moments are exact, so per-worker partial statistics pool into the
    same interval a single accumulator would have produced.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(
            f"confidence must be in (0, 1), got {confidence}")
    if stats.count == 0:
        raise ValueError("cannot estimate from zero samples")
    if stats.count < 2:
        half = math.inf
    else:
        half = t_quantile(0.5 + confidence / 2.0,
                          stats.count - 1) * stats.sem
    return MetricEstimate(
        mean=stats.mean,
        half_width=half,
        confidence=confidence,
        n=stats.count,
        stddev=stats.sample_stddev,
        method=method,
        diagnostics=dict(diagnostics or {}),
    )
