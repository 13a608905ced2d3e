"""Series summaries and change decisions between two measured versions.

All operations are pure functions over per-VM means: the VM start is the
sampling unit, since iterations inside one VM are autocorrelated.  One rule
makes a VM's value, for ``compare`` and the tuner alike: :func:`per_vm_means`
over a range of a :func:`window_matrix` row.  Three
tests are offered: Welch's t-test, Mann-Whitney U (exact by enumeration for
small tie-free samples, tie-corrected normal approximation with continuity
correction otherwise) and confidence-interval overlap with Student-t
intervals.  Student-t tails are regularized incomplete beta functions by
Lentz's continued fraction, and t quantiles are Newton steps on them.

``decide`` has one kernel for every shape: samples run along the last axis,
so a batch of R sample pairs, such as the tuner's resampling rounds of one
grid cell, is decided in one call.
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
    """Result of a two-sample change decision: Python scalars for one pair of
    samples, length-R arrays (one entry per row) for a batch of R pairs.

    ``effect_size`` is the mean difference old - new over the pooled sample
    standard deviation, so positive means the new version is faster.
    """

    changed: bool | np.ndarray
    test: StatTest
    statistic: float | np.ndarray
    p_value: float | np.ndarray | None
    effect_size: float | np.ndarray
    n_old: int | np.ndarray
    n_new: int | np.ndarray


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


def _mean_and_variance(values: list[float]) -> tuple[float, float]:
    """Mean and sample variance, each an exactly rounded sum (fsum) over two
    passes, so a sample's moments do not depend on the order or the batch it
    came in."""
    mean = fsum(values) / len(values)
    return mean, fsum([(v - mean) ** 2 for v in values]) / (len(values) - 1)


def window_matrix(series: MeasurementSeries) -> np.ndarray:
    """A series' windows in ns, float64 of shape (vms, warmup + measurement), warmup first."""
    return np.array([run.warmup_ns + run.measurement_ns for run in series.vm_runs], dtype=float)


def per_vm_means(windows: np.ndarray, start: int, stop: int, repetitions: int) -> np.ndarray:
    """Each VM's mean per-repetition duration: per row, the exactly rounded sum
    (fsum) of windows start..stop-1, divided by their count, then by
    ``repetitions``.  A range that is empty or runs past the matrix raises
    ValueError, where a slice would silently cut it short."""
    if not 0 <= start < stop <= windows.shape[1]:
        raise ValueError(f"window range {start}..{stop - 1} is empty or outside "
                         f"the {windows.shape[1]} recorded windows")
    count = stop - start
    return np.array([fsum(row) / count / repetitions for row in windows[:, start:stop].tolist()])


def summarize(series: MeasurementSeries) -> SeriesSummary:
    """Per-VM means of the measurement windows (:func:`per_vm_means`) plus
    their mean and sample stddev."""
    config = series.config
    if config.vms < 2:
        raise StatsError("summaries need at least 2 VMs for a defined stddev")
    per_vm = per_vm_means(window_matrix(series), config.warmup_iterations,
                          config.warmup_iterations + config.measurement_iterations,
                          config.repetitions).tolist()
    mean, variance = _mean_and_variance(per_vm)
    stddev = math.sqrt(variance)
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
    mean, variance = _mean_and_variance(values)
    stddev = math.sqrt(variance)
    if stddev == 0:
        return values
    return [v for v in values if abs(v - mean) / stddev <= threshold]


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


@lru_cache(maxsize=None)
def _tie_free_p(n1: int, n2: int) -> np.ndarray:
    """p-values of tie-free pairs by u_max, from (n1 * n2 + 1) // 2 up to
    n1 * n2: exact up to EXACT_MANN_WHITNEY_LIMIT, approximated above it."""
    exact = n1 + n2 <= EXACT_MANN_WHITNEY_LIMIT
    table = np.array([mann_whitney_exact_p(u, n1, n2) if exact
                      else mann_whitney_approx_p(u, n1, n2, ())
                      for u in range((n1 * n2 + 1) // 2, n1 * n2 + 1)])
    table.flags.writeable = False
    return table


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


def _mann_whitney(old: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: U1, from the old sample's ranks, and the p-value.  A tie-free
    row ranks by position, so U1 counts the (old, new) pairs with old > new,
    and looks its p-value up by u_max; a row with a tie takes its midranks and
    the tie-corrected approximation."""
    n1, n2 = old.shape[1], new.shape[1]
    pooled = np.concatenate((old, new), axis=1)
    ordered = np.sort(pooled, axis=1, kind="stable")
    tied = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    u1 = np.add.reduce(old[:, :, None] > new[:, None, :], axis=(1, 2), dtype=np.float64)
    tie_sizes = {}
    for i in np.flatnonzero(tied):
        ranks, tie_sizes[i] = midranks(pooled[i])
        u1[i] = ranks[:n1].sum() - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1
    u_max = np.maximum(u1, u2)
    p = _tie_free_p(n1, n2)[np.where(tied, n1 * n2, u_max).astype(np.intp) - (n1 * n2 + 1) // 2]
    for i, ties in tie_sizes.items():
        p[i] = mann_whitney_approx_p(float(u_max[i]), n1, n2, ties)
    return np.minimum(u1, u2), p


# --- Welch -----------------------------------------------------------------


def _welch(diff, v1, n1, v2, n2) -> tuple[np.ndarray, np.ndarray]:
    """Per row: t (0 for equal means, ±inf for two constant samples) and p."""
    a, b = v1 / n1, v2 / n2
    se_sq = a + b
    t = np.where(diff == 0, 0.0, diff / np.sqrt(se_sq))
    p = np.where(diff == 0, 1.0, 0.0)
    for i in np.flatnonzero((diff != 0) & (se_sq != 0)):
        # Python floats, so ** is libm's pow, as in _mean_and_variance; numpy
        # squares round differently in the last bit.
        a_i, b_i = float(a[i]), float(b[i])
        df = (a_i + b_i) ** 2 / (a_i**2 / (n1 - 1) + b_i**2 / (n2 - 1))
        p[i] = 2.0 * _t_sf(abs(float(t[i])), df)
    return t, p


# --- confidence-interval overlap -------------------------------------------


def _ci_gap(m1, v1, n1, m2, v2, n2, alpha: float) -> np.ndarray:
    """Gap between the two Student-t intervals; positive when they are disjoint."""
    half1 = t_quantile(1.0 - alpha / 2.0, n1 - 1) * np.sqrt(v1 / n1)
    half2 = t_quantile(1.0 - alpha / 2.0, n2 - 1) * np.sqrt(v2 / n2)
    below, above = (m1 - half1) - (m2 + half2), (m2 - half2) - (m1 + half1)
    return np.where(above > below, above, below)


# --- decision kernel --------------------------------------------------------


def _kernel(old: np.ndarray, new: np.ndarray, decision: DecisionConfig) -> tuple:
    """changed, statistic, p-value (None for ci) and effect size, each a
    length-R array, for every row of two (R, n1) and (R, n2) arrays."""
    n1, n2 = old.shape[1], new.shape[1]
    # Row by row, so that only one row is held as Python floats at a time.
    (m1, v1), (m2, v2) = (
        np.array([_mean_and_variance(row.tolist()) for row in x]).reshape(len(x), 2).T
        for x in (old, new))
    diff = m1 - m2
    with np.errstate(divide="ignore", invalid="ignore"):
        # Standardized mean difference over the pooled sd: ±inf for two
        # constant samples, 0 for two equal constant ones.
        pooled = np.sqrt(((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2))
        effect = np.where((diff == 0) & (pooled == 0), 0.0, diff / pooled)
        if decision.test is StatTest.WELCH_T:
            statistic, p = _welch(diff, v1, n1, v2, n2)
        elif decision.test is StatTest.MANN_WHITNEY:
            statistic, p = _mann_whitney(old, new)
        elif decision.test is StatTest.CI_OVERLAP:
            statistic, p = _ci_gap(m1, v1, n1, m2, v2, n2, decision.alpha), None
        else:
            raise StatsError(f"unknown test: {decision.test}")
    changed = statistic > 0 if p is None else p < decision.alpha
    return changed, statistic, p, effect


def decide(old, new, decision: DecisionConfig) -> TestOutcome:
    """Decide "performance change / no change" between per-VM mean samples.

    Samples run along the last axis.  Two 1-D samples give one decision in
    Python scalars; two (R, n) batches give R decisions, one a row, with each
    per-row field a length-R array.  Every shape runs the same kernel, so a
    batched row decides exactly as its own 1-D call would.  Outlier removal
    makes rows ragged, so it runs the kernel one row at a time.
    """
    old = np.asarray(old, dtype=np.float64)
    new = np.asarray(new, dtype=np.float64)
    single = old.ndim == 1 and new.ndim == 1
    if single:
        old, new = old[None], new[None]
    if old.ndim != 2 or new.ndim != 2 or len(old) != len(new):
        raise StatsError("decide takes two 1-D samples or two batches of R rows")
    if old.shape[1] < 2 or new.shape[1] < 2:
        raise StatsError("decide needs at least 2 values per sample")
    if decision.outlier_z is None:
        changed, statistic, p, effect = _kernel(old, new, decision)
        n_old, n_new = np.full(len(old), old.shape[1]), np.full(len(new), new.shape[1])
    else:
        rows = []
        for row_old, row_new in zip(old.tolist(), new.tolist()):
            kept_old = remove_outliers(row_old, decision.outlier_z)
            kept_new = remove_outliers(row_new, decision.outlier_z)
            if len(kept_old) < 2 or len(kept_new) < 2:
                raise StatsError("outlier removal left fewer than 2 values in a sample")
            outcome = _kernel(np.array([kept_old]), np.array([kept_new]), decision)
            rows.append((*outcome, [len(kept_old)], [len(kept_new)]))
        changed, statistic, p, effect, n_old, n_new = (
            None if column[0] is None else np.concatenate(column) for column in zip(*rows))
    if single:
        return TestOutcome(
            changed=bool(changed[0]), test=decision.test, statistic=float(statistic[0]),
            p_value=None if p is None else float(p[0]), effect_size=float(effect[0]),
            n_old=int(n_old[0]), n_new=int(n_new[0]))
    return TestOutcome(changed=changed, test=decision.test, statistic=statistic, p_value=p,
                       effect_size=effect, n_old=n_old, n_new=n_new)
