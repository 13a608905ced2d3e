"""Series summaries and change decisions between two measured versions.

All operations are pure functions over per-VM means: the VM start is the
sampling unit, since iterations inside one VM are autocorrelated.  One rule
makes a VM's value, for ``compare`` and the tuner alike: :func:`per_vm_means`
over a range of a :func:`window_matrix` row.  Three
tests are offered: Welch's t-test, Mann-Whitney U and confidence-interval
overlap with Student-t intervals.  Mann-Whitney counts a tie as half a pair:
U is a rank sum, with ranks from one argsort and one sort of each pooled row.
A tie-free row's ranks are its sorted positions, and only rows with ties pay
for midranks and the tie correction.  Its p-values are exact for small
tie-free samples, from a numpy table of rank-sum counts filled rank by rank,
and otherwise a tie-corrected normal approximation with continuity
correction, whose tail is taken by erfc so that small p-values keep their
digits.  Student-t tails are regularized incomplete beta functions by Lentz's
continued fraction, and t quantiles are Newton steps on them.

``decide`` has one kernel for every shape: samples run along the last axis,
so a batch of R sample pairs, such as the resampling trials of one tuner grid
cell, is decided in one call.  Each test is one array expression over the
rows: means and variances are two-pass numpy reductions, each row summed on
its own.  p is a 1-D quantity: a batch returns none, and Welch decides its
rows by one list of critical values c(1)..c(n1 + n2), cached per alpha and
n1 + n2 and indexed by ⌊df⌋.  The Student-t tail is a scalar function, taken
only by a 1-D call, by :func:`t_quantile` and by the few rows that the
critical values cannot place, so a batched row decides exactly as its own
1-D call would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from statistics import NormalDist

import numpy as np

from .model import DecisionConfig, MeasurementSeries, SeriesSummary, StatTest

#: Exact Mann-Whitney p-values, from counts of rank sums, are used up to this
#: combined sample size; the normal approximation above it.
EXACT_MANN_WHITNEY_LIMIT = 14


@dataclass(frozen=True)
class TestOutcome:
    """Result of a two-sample change decision: Python scalars for one pair of
    samples, length-R arrays (one entry per row) for a batch of R pairs,
    whose ``p_value`` is None: p is a 1-D quantity, and a Welch batch is
    decided by critical values.  ``n_old`` and ``n_new`` are ints for both
    shapes: every row of a batch has the same two sample sizes.

    ``effect_size`` is the mean difference old - new over the pooled sample
    standard deviation, so positive means the new version is faster.
    """

    changed: bool | np.ndarray
    test: StatTest
    statistic: float | np.ndarray
    p_value: float | None
    effect_size: float | np.ndarray
    n_old: int
    n_new: int


# --- distribution helpers --------------------------------------------------


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires p in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


def _erfc(z) -> np.ndarray:
    """erfc elementwise: numpy has none, so math's is mapped over the values
    as Python floats."""
    return np.fromiter(map(math.erfc, np.ravel(z).tolist()), np.float64,
                       np.size(z)).reshape(np.shape(z))


def _log_beta(a: float, b: float) -> float:
    """log B(a, b), by Stirling's series once an argument reaches 100, where
    lgamma(large + small) - lgamma(large) starts to lose digits.  Symmetric
    in a and b, bit for bit."""
    small, large = sorted((a, b))
    if not large >= 100.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    tails = [(1 / 12 - (1 / 360 - 1 / (1260 * z * z)) / (z * z)) / z
             for z in (large, large + small)]
    return (math.lgamma(small) + small - (large - 0.5) * float(np.log1p(small / large))
            - small * float(np.log(large + small)) + tails[0] - tails[1])


@np.errstate(divide="ignore")  # a zero x or y takes log(0) = -inf
def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), with ``y`` = 1 - x passed
    apart: Lentz's continued fraction below x = (a+1)/(a+b+2), where it
    converges fast, and the symmetry I_x(a, b) = 1 - I_y(b, a) above it.
    exp and the logs are numpy's, as in the array reference kernel: math's
    differ from them in the last bits on some inputs."""
    log_beta = _log_beta(a, b)  # symmetric, so taken once, before the swap
    swap = x > (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x, y = b, a, y, x
    front = float(np.exp(a * float(np.log(x)) + b * float(np.log(y)) - log_beta)) / a
    # d and c are the ratios of successive convergents; 1e-300 stands in for
    # a zero one in Lentz's method.
    c, d = 1.0, 1.0 / ((1.0 - (a + b) * x / (a + 1.0)) or 1e-300)
    fraction, a2m = d, a
    for m in range(1, 100_000):  # about sqrt(a) steps are needed
        a2m += 2.0
        for coefficient in (m * (b - m) * x / ((a2m - 1.0) * a2m),
                            -(a + m) * (a + b + m) * x / (a2m * (a2m + 1.0))):
            d = 1.0 / ((1.0 + coefficient * d) or 1e-300)
            c = (1.0 + coefficient / c) or 1e-300
            delta = d * c
            fraction *= delta
        if not abs(delta - 1.0) >= 1e-15:  # a NaN stops too
            break
    value = 0.0 if x == 0.0 else front * fraction
    return 1.0 - value if swap else value


def _t_sf(x: float, df: float) -> float:
    """P(T > x), for x >= 0 and Student's t with ``df`` degrees of freedom.
    Tested against mpmath to 1e-10 relative for df from 1 to 13,000; above
    df of about 1e9 it loses digits."""
    x2 = x * x
    # 1 - df/(df + x²) is passed as x²/(df + x²), so tiny tails stay exact.
    return 0.5 * _betainc(0.5 * df, 0.5, df / (df + x2), x2 / (df + x2))


@lru_cache(maxsize=1024)
def t_quantile(p: float, df: float) -> float:
    """The t with P(T <= t) = p, by Newton steps on log P(T > |t|) in log t,
    where the far tail is nearly straight.  They start from the normal
    quantile, which is never further out, and bisect once past the root.
    Tested against mpmath to 1e-10 relative for df from 1 to 13,000; above
    df of about 1e9 it loses digits with :func:`_t_sf`."""
    if not (0.0 < p < 1.0 and df >= 1):
        raise ValueError(f"t_quantile requires p in (0, 1) and df >= 1, got {p}, {df}")
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


def _mean_and_variance(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sample variance along the last axis, in two passes.  Each row
    is reduced on its own, so a row's moments do not depend on the batch it
    came in."""
    n = x.shape[-1]
    mean = x.sum(axis=-1) / n
    d = x - mean[..., None]
    return mean, (d * d).sum(axis=-1) / (n - 1)


def window_matrix(series: MeasurementSeries) -> np.ndarray:
    """A series' windows in ns, float64 of shape (vms, warmup + measurement), warmup first."""
    return np.array([run.warmup_ns + run.measurement_ns for run in series.vm_runs], dtype=float)


def per_vm_means(windows: np.ndarray, start: int, stop: int, repetitions: int) -> np.ndarray:
    """Each VM's mean per-repetition duration: per row, the sum of windows
    start..stop-1, divided by their count, then by ``repetitions``.  Recorded
    windows are non-negative integer nanoseconds, so a row summing below
    2**53 is summed exactly whatever the order; a row summing to 2**53 or
    more, where float64 would round, raises ValueError, as does a range that
    is empty or runs past the matrix, where a slice would silently cut it
    short."""
    if not 0 <= start < stop <= windows.shape[1]:
        raise ValueError(f"window range {start}..{stop - 1} is empty or outside "
                         f"the {windows.shape[1]} recorded windows")
    # For non-negative integers a float sum reaches 2**53 only if the exact one does.
    totals = windows[:, start:stop].sum(axis=1)
    if (totals >= 2.0**53).any():
        raise ValueError(f"windows {start}..{stop - 1} of a VM total 2**53 ns or more, "
                         "past what a float64 sum keeps exact")
    return totals / (stop - start) / repetitions


def summarize(series: MeasurementSeries) -> SeriesSummary:
    """Per-VM means of the measurement windows (:func:`per_vm_means`) plus
    their mean and sample stddev."""
    config = series.config
    if config.vms < 2:
        raise ValueError("summaries need at least 2 VMs for a defined stddev")
    per_vm = per_vm_means(window_matrix(series), config.warmup_iterations,
                          config.warmup_iterations + config.measurement_iterations,
                          config.repetitions)
    mean, variance = (float(m) for m in _mean_and_variance(per_vm))
    stddev = math.sqrt(variance)
    relative = stddev / mean if mean != 0 else 0.0
    return SeriesSummary(
        per_vm_means_ns=tuple(per_vm.tolist()),
        mean_ns=mean,
        stddev_ns=stddev,
        relative_stddev=relative,
    )


# --- Mann-Whitney ----------------------------------------------------------


def _u_counts(n1: int, n2: int) -> np.ndarray:
    """counts[u] = number of tie-free rankings with U = u, for u in 0..n1 * n2:
    the size-n1 subsets of ranks 1..n1+n2 whose rank sum is u + n1(n1+1)/2.
    Row m of the table counts the size-m subsets of the ranks added so far, by
    sum; each rank adds row m - 1, shifted by the rank, into row m."""
    if n1 + n2 > 66:  # C(66, 33) < 2**63, so int64 counts cannot wrap up to here
        raise ValueError(f"exact Mann-Whitney counts need n1 + n2 <= 66, got {n1 + n2}")
    counts = np.zeros((n1 + 1, n1 * n2 + n1 * (n1 + 1) // 2 + 1), dtype=np.int64)
    counts[0, 0] = 1
    for rank in range(1, n1 + n2 + 1):
        counts[1:, rank:] += counts[:-1, :-rank]  # numpy reads the right side whole first
    return counts[n1, n1 * (n1 + 1) // 2:]


@lru_cache(maxsize=None)
def _tie_free_p(n1: int, n2: int) -> np.ndarray:
    """Exact two-sided p-values of tie-free pairs, indexed by u_max in
    0..n1 * n2: min(1, 2 * P(U >= u_max)) under the null."""
    count_ge = np.cumsum(_u_counts(n1, n2)[::-1])[::-1]
    table = np.minimum(1.0, 2.0 * count_ge / float(comb(n1 + n2, n1)))
    table.flags.writeable = False
    return table


def mann_whitney_approx_p(u_max, n1: int, n2: int, tie_term=0.0) -> np.ndarray:
    """Normal approximation with continuity correction, elementwise; the
    variance is corrected by ``tie_term``, the sum of t³ - t over the sizes t
    of the tie groups.  2 * P(Z > z) is taken as erfc(z / √2), which keeps
    the digits of a far tail that 1 - P(Z <= z) would cancel."""
    n = n1 + n2
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    z = (u_max - n1 * n2 / 2.0 - 0.5) / np.sqrt(variance)
    return np.where(variance > 0, np.minimum(_erfc(z / math.sqrt(2.0)), 1.0), 1.0)


def _mann_whitney(old: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: U, the smaller of U1 and n1 * n2 - U1, and the p-value.  U1
    is the old sample's rank sum less n1(n1 + 1)/2, with tied values at
    their midrank, which counts each (old, new) pair with old > new as one
    and each tied pair as a half.  A tie-free row up to
    EXACT_MANN_WHITNEY_LIMIT looks its exact p-value up by u_max; every other
    row takes the tie-corrected approximation."""
    n1, n2 = old.shape[1], new.shape[1]
    ordered = np.concatenate((old, new), axis=1)
    is_old = ordered.argsort(axis=1) < n1  # which sorted positions hold old values
    ordered.sort(axis=1)
    # Twice the old sample's 0-based ranks: its sorted positions, in a
    # tie-free row.  All sums here are of small integers, exact in float64.
    position = np.arange(n1 + n2, dtype=np.float64)
    twice = 2.0 * (is_old @ position)
    differs = ordered[:, 1:] != ordered[:, :-1]
    # The tied rows; one reduction over the whole batch when it has none.
    rows = np.empty(0, np.intp) if differs.all() else np.flatnonzero(~differs.all(axis=1))
    tie_term = np.zeros(len(ordered))
    if len(rows):
        n, ones = n1 + n2, np.ones((len(rows), 1), dtype=bool)
        starts, ends = np.hstack((ones, differs[rows])), np.hstack((differs[rows], ones))
        # The first and last positions of each position's run of equal values.
        first = np.maximum.accumulate(np.where(starts, position, 0.0), axis=1)
        last = np.minimum.accumulate(np.where(ends, position, n)[:, ::-1], axis=1)[:, ::-1]
        midrank_shift = np.where(is_old[rows], first + last - 2.0 * position, 0.0)
        twice[rows] += midrank_shift.sum(axis=1)
        # c, the count of equal values before a position, runs 0..t-1 along
        # a run of t equal values, and 3 * sum c(c + 1) over it is t³ - t.
        c = position - first
        tie_term[rows] = 3.0 * (c * (c + 1.0)).sum(axis=1)
    u1 = (twice - n1 * (n1 - 1)) / 2.0
    u_max, u_min = np.maximum(u1, n1 * n2 - u1), np.minimum(u1, n1 * n2 - u1)
    if n1 + n2 > EXACT_MANN_WHITNEY_LIMIT:
        return u_min, mann_whitney_approx_p(u_max, n1, n2, tie_term)
    p = _tie_free_p(n1, n2)[u_max.astype(np.intp)]  # a copy, by integer indexing
    if len(rows):
        p[rows] = mann_whitney_approx_p(u_max[rows], n1, n2, tie_term[rows])
    return u_min, p


# --- Welch -----------------------------------------------------------------


@lru_cache(maxsize=64)
def _critical_values(alpha: float, n: int) -> np.ndarray:
    """c(1)..c(n), c(k) = t_quantile(1 - alpha/2, k), read-only: one list per
    (alpha, n1 + n2), so that a batch past t_quantile's cache does not
    compute its list anew on every call."""
    c = np.array([t_quantile(1.0 - alpha / 2.0, k) for k in range(1, n + 1)])
    c.flags.writeable = False
    return c


def _welch(diff, v1, n1, v2, n2, alpha=None) -> tuple[np.ndarray, np.ndarray]:
    """Per row: t (0 for equal means, ±inf for two constant samples) and p.
    Given ``alpha``, a row clear of the critical values at k = ⌊df⌋ and k + 1
    (c falls as df grows), read from one list c(1)..c(n1 + n2), takes p = 0
    or 1; the rest, and any df outside [1, n1 + n2), take the tail.

    Satterthwaite's df lies in Welch's bounds [min(n1, n2) - 1, n1 + n2 - 2].
    Where a² or b² underflow, it rounds outside them or to 0/0; only those
    rows take it again as 1 / (r²/(n1 - 1) + (1 - r)²/(n2 - 1)), r = a / (a + b)."""
    a, b = v1 / n1, v2 / n2
    se_sq = a + b
    t = np.where(diff == 0, 0.0, diff / np.sqrt(se_sq))
    df = se_sq * se_sq / (a * a / (n1 - 1) + b * b / (n2 - 1))
    outside = ~((df >= min(n1, n2) - 1) & (df <= n1 + n2 - 2))  # NaN included
    if outside.any():
        r = a[outside] / se_sq[outside]
        df[outside] = 1.0 / (r * r / (n1 - 1) + (1.0 - r) * (1.0 - r) / (n2 - 1))
    p = np.where(diff == 0, 1.0, 0.0)
    live = (diff != 0) & (se_sq != 0)
    if alpha is not None:
        c = _critical_values(alpha, n1 + n2)
        rows = np.flatnonzero(live & (df >= 1) & (df < n1 + n2))
        k, size = df[rows].astype(np.intp), np.abs(t[rows])  # k = ⌊df⌋, as df >= 1
        below = size < c[k] * (1 - 1e-9)  # ten times t_quantile's tested error
        p[rows[below]] = 1.0
        live[rows[below | (size > c[k - 1] * (1 + 1e-9))]] = False
    p[live] = [2.0 * _t_sf(x, k) for x, k in zip(np.abs(t[live]).tolist(),
                                                df[live].tolist())]
    return t, p


# --- confidence-interval overlap -------------------------------------------


def _ci_gap(m1, v1, n1, m2, v2, n2, alpha: float) -> np.ndarray:
    """Gap between the two Student-t intervals; positive when they are disjoint."""
    half1 = t_quantile(1.0 - alpha / 2.0, n1 - 1) * np.sqrt(v1 / n1)
    half2 = t_quantile(1.0 - alpha / 2.0, n2 - 1) * np.sqrt(v2 / n2)
    below, above = (m1 - half1) - (m2 + half2), (m2 - half2) - (m1 + half1)
    return np.where(above > below, above, below)


# --- decision kernel --------------------------------------------------------


def decide(old, new, decision: DecisionConfig) -> TestOutcome:
    """Decide "performance change / no change" between per-VM mean samples.

    Samples run along the last axis.  Two 1-D samples give one decision in
    Python scalars; two (R, n) batches give R decisions, one a row, with each
    per-row field a length-R array and no p-values; ``n_old`` and ``n_new``
    are ints for both.  A batched row decides exactly as its own 1-D call
    would: Welch screens a batch by critical values, and every other step is
    the same code for every shape.  A NaN value raises ValueError.
    """
    # C order: numpy sums a contiguous row pairwise, as it does a 1-D sample.
    old = np.ascontiguousarray(old, dtype=np.float64)
    new = np.ascontiguousarray(new, dtype=np.float64)
    single = old.ndim == 1 and new.ndim == 1
    if single:
        old, new = old[None], new[None]
    if old.ndim != 2 or new.ndim != 2 or len(old) != len(new):
        raise ValueError("decide takes two 1-D samples or two batches of R rows")
    n1, n2 = old.shape[1], new.shape[1]
    if n1 < 2 or n2 < 2:
        raise ValueError("decide needs at least 2 values per sample")
    if np.isnan(old).any() or np.isnan(new).any():
        raise ValueError("decide takes no NaN values: a NaN has no order and no mean")
    (m1, v1), (m2, v2) = _mean_and_variance(old), _mean_and_variance(new)
    diff = m1 - m2
    with np.errstate(divide="ignore", invalid="ignore"):
        # Standardized mean difference over the pooled sd: ±inf for two
        # constant samples, 0 for two equal constant ones.
        pooled = np.sqrt(((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2))
        effect = np.where((diff == 0) & (pooled == 0), 0.0, diff / pooled)
        if decision.test is StatTest.WELCH_T:
            statistic, p = _welch(diff, v1, n1, v2, n2, None if single else decision.alpha)
        elif decision.test is StatTest.MANN_WHITNEY:
            statistic, p = _mann_whitney(old, new)
        else:
            statistic, p = _ci_gap(m1, v1, n1, m2, v2, n2, decision.alpha), None
    changed = statistic > 0 if p is None else p < decision.alpha
    if single:
        changed, statistic, effect = bool(changed[0]), float(statistic[0]), float(effect[0])
    return TestOutcome(changed=changed, test=decision.test, statistic=statistic,
                       p_value=float(p[0]) if single and p is not None else None,
                       effect_size=effect, n_old=n1, n_new=n2)
