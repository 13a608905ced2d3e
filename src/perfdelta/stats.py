"""Series summaries and change decisions between two measured versions.

All operations are pure functions over per-VM means: the VM start is the
sampling unit, since iterations inside one VM are autocorrelated.  Three
tests are offered: Welch's t-test, Mann-Whitney U (exact by enumeration for
small tie-free samples, tie-corrected normal approximation with continuity
correction otherwise) and confidence-interval overlap with Student-t
intervals.  Student-t tails are regularized incomplete beta functions by
Lentz's continued fraction, and t quantiles are Newton steps on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb, fsum, lgamma
from statistics import NormalDist

import numpy as np

from .model import DecisionConfig, MeasurementSeries, SeriesSummary, StatTest

#: Exact Mann-Whitney enumeration is used up to this combined sample size
#: (worst case C(14,7) = 3,432 labelings).
EXACT_MANN_WHITNEY_LIMIT = 14


class StatsError(ValueError):
    """Raised on degenerate inputs (e.g. fewer than 2 VMs)."""


@dataclass(frozen=True)
class TestOutcome:
    """Result of one two-sample change decision."""

    changed: bool
    test: StatTest
    statistic: float
    p_value: float | None
    effect_size: float
    n_old: int
    n_new: int


# --- distribution helpers --------------------------------------------------


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise StatsError(f"normal_quantile requires p in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


def _log_beta(a: float, b: float) -> float:
    """log B(a, b), by Stirling's series once an argument reaches 100, where
    lgamma(large + small) - lgamma(large) starts to lose digits."""
    small, large = min(a, b), max(a, b)
    if large < 100.0:
        return lgamma(a) + lgamma(b) - lgamma(a + b)
    tails = [(1 / 12 - (1 / 360 - 1 / (1260 * z * z)) / (z * z)) / z for z in (large, a + b)]
    return (lgamma(small) + small - (large - 0.5) * math.log1p(small / large)
            - small * math.log(large + small) + tails[0] - tails[1])


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), with ``y`` = 1 - x passed apart:
    Lentz's continued fraction below x = (a+1)/(a+b+2), where it converges
    fast, and the symmetry I_x(a, b) = 1 - I_y(b, a) above it."""
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, y, x)
    if x == 0.0:
        return 0.0
    front = math.exp(a * math.log(x) + b * math.log(y) - _log_beta(a, b)) / a
    # d and c are the ratios of successive convergents; 1e-300 stands in for 0.
    c, d = 1.0, 1.0 / ((1.0 - (a + b) * x / (a + 1.0)) or 1e-300)
    fraction, a2m = d, a
    for m in range(1, 100_000):  # about sqrt(a) steps are needed
        a2m += 2.0
        coefficient = m * (b - m) * x / ((a2m - 1.0) * a2m)
        d = 1.0 / ((1.0 + coefficient * d) or 1e-300)
        c = (1.0 + coefficient / c) or 1e-300
        fraction *= d * c
        coefficient = -(a + m) * (a + b + m) * x / (a2m * (a2m + 1.0))
        d = 1.0 / ((1.0 + coefficient * d) or 1e-300)
        c = (1.0 + coefficient / c) or 1e-300
        delta = d * c
        fraction *= delta
        if -1e-15 < delta - 1.0 < 1e-15:
            break
    return front * fraction


def _t_sf(x: float, df: float) -> float:
    """P(T > x) for x >= 0 and Student's t with ``df`` degrees of freedom."""
    x2 = x * x
    # 1 - df/(df + x²) is passed as x²/(df + x²), so tiny tails stay exact.
    return 0.5 * _betainc(0.5 * df, 0.5, df / (df + x2), x2 / (df + x2))


@lru_cache(maxsize=1024)
def t_quantile(p: float, df: float) -> float:
    """The t with P(T <= t) = p, by Newton steps on log P(T > |t|) in log t,
    where the far tail is nearly straight.  They start from the normal
    quantile, which is never further out, and bisect once past the root."""
    if not (0.0 < p < 1.0 and df >= 1):
        raise StatsError(f"t_quantile requires p in (0, 1) and df >= 1, got {p}, {df}")
    tail = min(p, 1.0 - p)  # 1 - p is exact when it is the smaller one
    if tail == 0.5:
        return 0.0
    log_density0 = -0.5 * math.log(df) - _log_beta(0.5 * df, 0.5)
    t, lo, hi = -normal_quantile(tail), 0.0, math.inf
    for _ in range(60):  # rounding keeps steps from shrinking only near p = 0.5
        sf = _t_sf(t, df)
        h = math.log(sf / tail)
        lo, hi = (t, hi) if h > 0.0 else (lo, t)
        step = h * sf / (t * math.exp(log_density0 - 0.5 * (df + 1.0) * math.log1p(t * t / df)))
        t_next = t * math.exp(step)
        t = t_next if lo <= t_next <= hi else 0.5 * (lo + hi)
        if abs(step) < 1e-10:
            break
    return t if p > 0.5 else -t


# --- summaries -------------------------------------------------------------


def _mean(values) -> float:
    return fsum(values) / len(values)


def _sample_variance(values, mean: float | None = None) -> float:
    if mean is None:
        mean = _mean(values)
    return fsum((v - mean) ** 2 for v in values) / (len(values) - 1)


def summarize(series: MeasurementSeries) -> SeriesSummary:
    """Per-VM mean per-repetition durations plus their mean and sample stddev.

    Warmup iterations are excluded; the division by ``repetitions`` happens
    last, on the iteration mean.
    """
    if series.config.vms < 2:
        raise StatsError("summaries need at least 2 VMs for a defined stddev")
    repetitions = series.config.repetitions
    per_vm = [fsum(run.measurement_ns) / len(run.measurement_ns) / repetitions
              for run in series.vm_runs]
    mean = _mean(per_vm)
    stddev = math.sqrt(_sample_variance(per_vm, mean))
    relative = stddev / mean if mean != 0 else 0.0
    return SeriesSummary(
        per_vm_means_ns=tuple(per_vm),
        mean_ns=mean,
        stddev_ns=stddev,
        relative_stddev=relative,
    )


def remove_outliers(values, threshold: float) -> list[float]:
    """Drop values whose Z-score against the input's own mean/stddev exceeds
    ``threshold``.  Single pass: no re-iteration after removal.
    """
    values = list(values)
    if len(values) < 2:
        raise StatsError("outlier removal needs at least 2 values")
    if threshold <= 0:
        raise StatsError("outlier threshold must be > 0")
    mean = _mean(values)
    stddev = math.sqrt(_sample_variance(values, mean))
    if stddev == 0:
        return values
    return [v for v in values if abs(v - mean) / stddev <= threshold]


def _pooled_effect(old, new) -> float:
    n1, n2 = len(old), len(new)
    m1, m2 = _mean(old), _mean(new)
    v1 = _sample_variance(old, m1)
    v2 = _sample_variance(new, m2)
    pooled = math.sqrt(((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2))
    if pooled == 0:
        if m1 == m2:
            return 0.0
        return math.copysign(math.inf, m1 - m2)
    return (m1 - m2) / pooled


def effect_size(summary_old: SeriesSummary, summary_new: SeriesSummary) -> float:
    """Signed standardized mean difference over per-VM means.

    Positive means the new version is faster (smaller durations); the
    denominator is the pooled sample standard deviation.
    """
    for summary in (summary_old, summary_new):
        if len(summary.per_vm_means_ns) < 2:
            raise StatsError("effect size needs at least 2 VMs per summary")
    return _pooled_effect(summary_old.per_vm_means_ns, summary_new.per_vm_means_ns)


# --- Mann-Whitney ----------------------------------------------------------


@lru_cache(maxsize=None)
def _rank_sum_counts(n1: int, n2: int) -> tuple[int, ...]:
    """counts[s] = number of size-n1 subsets of ranks {1..n1+n2} with rank sum s."""
    total = n1 + n2
    max_sum = sum(range(total - n1 + 1, total + 1))
    counts = [[0] * (max_sum + 1) for _ in range(n1 + 1)]
    counts[0][0] = 1
    for rank in range(1, total + 1):
        for m in range(min(rank, n1), 0, -1):
            row, prev = counts[m], counts[m - 1]
            for s in range(max_sum, rank - 1, -1):
                if prev[s - rank]:
                    row[s] += prev[s - rank]
    return tuple(counts[n1])


def mann_whitney_exact_p(u_max: float, n1: int, n2: int) -> float:
    """Two-sided exact p-value: min(1, 2 * P(U >= u_max)) under the null.

    ``u_max`` must be the larger of the two U statistics of a tie-free pair.
    """
    counts = _rank_sum_counts(n1, n2)
    offset = n1 * (n1 + 1) // 2
    count_ge = sum(
        c for s, c in enumerate(counts) if s - offset >= u_max
    )
    return min(1.0, 2.0 * count_ge / comb(n1 + n2, n1))


def mann_whitney_approx_p(u_max: float, n1: int, n2: int, tie_sizes) -> float:
    """Normal approximation with tie-corrected variance and continuity correction."""
    n = n1 + n2
    mu = n1 * n2 / 2.0
    tie_term = fsum(t**3 - t for t in tie_sizes)
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0:
        return 1.0
    z = (u_max - mu - 0.5) / math.sqrt(variance)
    return min(1.0, max(0.0, 2.0 * (1.0 - normal_cdf(z))))


def midranks(values) -> tuple[np.ndarray, list[int]]:
    """1-based ranks of ``values``, tied values sharing the mean of their
    ranks, and the sizes of the tie groups with more than one member."""
    x = np.asarray(values, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    sizes = np.diff(np.append(starts, len(x)))
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(starts + (sizes + 1) / 2.0, sizes)
    return ranks, sizes[sizes > 1].tolist()


def _mann_whitney(old, new, alpha: float) -> tuple[bool, float, float]:
    n1, n2 = len(old), len(new)
    ranks, ties = midranks(list(old) + list(new))
    r1 = float(ranks[:n1].sum())
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1
    u_min, u_max = min(u1, u2), max(u1, u2)
    if n1 + n2 <= EXACT_MANN_WHITNEY_LIMIT and not ties:
        p = mann_whitney_exact_p(u_max, n1, n2)
    else:
        p = mann_whitney_approx_p(u_max, n1, n2, ties)
    return p < alpha, u_min, p


# --- Welch -----------------------------------------------------------------


def _welch(old, new, alpha: float) -> tuple[bool, float, float]:
    n1, n2 = len(old), len(new)
    m1, m2 = _mean(old), _mean(new)
    if m1 == m2:
        return False, 0.0, 1.0
    v1 = _sample_variance(old, m1)
    v2 = _sample_variance(new, m2)
    se_sq = v1 / n1 + v2 / n2
    if se_sq == 0:
        return True, math.copysign(math.inf, m1 - m2), 0.0
    t = (m1 - m2) / math.sqrt(se_sq)
    df = se_sq**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    p = 2.0 * _t_sf(abs(t), df)
    return p < alpha, t, p


# --- confidence-interval overlap -------------------------------------------


def _confidence_interval(sample, alpha: float) -> tuple[float, float]:
    n = len(sample)
    mean = _mean(sample)
    half = t_quantile(1.0 - alpha / 2.0, n - 1) * math.sqrt(_sample_variance(sample, mean) / n)
    return mean - half, mean + half


def _ci_overlap(old, new, alpha: float) -> tuple[bool, float]:
    lo1, hi1 = _confidence_interval(old, alpha)
    lo2, hi2 = _confidence_interval(new, alpha)
    gap = max(lo1 - hi2, lo2 - hi1)
    return gap > 0, gap


# --- decision entry point ---------------------------------------------------


def decide(old, new, decision: DecisionConfig) -> TestOutcome:
    """Decide "performance change / no change" between two per-VM mean samples."""
    old = [float(v) for v in old]
    new = [float(v) for v in new]
    if len(old) < 2 or len(new) < 2:
        raise StatsError("decide needs at least 2 values per sample")
    if decision.outlier_z is not None:
        old = remove_outliers(old, decision.outlier_z)
        new = remove_outliers(new, decision.outlier_z)
        if len(old) < 2 or len(new) < 2:
            raise StatsError("outlier removal left fewer than 2 values in a sample")

    gamma = _pooled_effect(old, new)

    if decision.test is StatTest.WELCH_T:
        changed, statistic, p = _welch(old, new, decision.alpha)
    elif decision.test is StatTest.MANN_WHITNEY:
        changed, statistic, p = _mann_whitney(old, new, decision.alpha)
    elif decision.test is StatTest.CI_OVERLAP:
        changed, statistic = _ci_overlap(old, new, decision.alpha)
        p = None
    else:
        raise StatsError(f"unknown test: {decision.test}")

    return TestOutcome(
        changed=changed,
        test=decision.test,
        statistic=statistic,
        p_value=p,
        effect_size=gamma,
        n_old=len(old),
        n_new=len(new),
    )
