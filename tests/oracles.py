"""Independent oracles the product code must agree with.

Each oracle takes a deliberately different computational route than the
implementation it checks: brute-force enumeration instead of counting
recurrences, arbitrary-precision arithmetic instead of floats,
incomplete-beta tail probabilities instead of library survival functions, and
one 1-D decision per resampling trial instead of one batch per grid cell.
The whole-batch Student-t tail kernel that the compacting one replaced is
kept verbatim, as the bit-for-bit reference for it, and so are the pure-Python
rank-sum recurrence that the numpy count table replaced and the scalar
SplitMix64 recurrence that the vectorized ``SplitMix64.next_block`` computes.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np

mpmath.mp.dps = 50


def mann_whitney_exact_bruteforce(x, y) -> float:
    """Two-sided exact Mann-Whitney p by enumerating all C(n+m, n) labelings.

    Convention: p = min(1, 2 * P(U >= u_max)) with u_max the larger of the
    observed U statistics.  Tie-free samples only.
    """
    n1, n2 = len(x), len(y)
    combined = sorted(list(x) + list(y))
    assert len(set(combined)) == len(combined), "oracle requires tie-free samples"
    rank_of = {v: i + 1 for i, v in enumerate(combined)}
    r1 = sum(rank_of[v] for v in x)
    u1 = r1 - n1 * (n1 + 1) / 2
    u_max = max(u1, n1 * n2 - u1)

    total = n1 + n2
    count_ge = 0
    offset = n1 * (n1 + 1) / 2
    for subset in combinations(range(1, total + 1), n1):
        u = sum(subset) - offset
        if u >= u_max:
            count_ge += 1
    return min(1.0, 2.0 * count_ge / comb(total, n1))


# --- reference SplitMix64 stream ---------------------------------------------
# ``workloads.SplitMix64``'s scalar method as it was before every caller drew
# blocks: one output per call, all arithmetic mod 2**64.

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class ScalarSplitMix64:
    """SplitMix64 by its documented recurrence, one Python int at a time."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)


# --- reference exact Mann-Whitney table ---------------------------------------
# ``stats`` as it was before its exact table became one numpy count table:
# rank-sum counts by a pure-Python recurrence, summed again on every call.


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


def mann_whitney_exact_p_by_rank_sums(u_max: float, n1: int, n2: int) -> float:
    """Two-sided exact p-value: min(1, 2 * P(U >= u_max)) under the null.

    ``u_max`` must be the larger of the two U statistics of a tie-free pair.
    """
    counts = _rank_sum_counts(n1, n2)
    offset = n1 * (n1 + 1) // 2
    count_ge = sum(c for s, c in enumerate(counts) if s - offset >= u_max)
    return min(1.0, 2.0 * count_ge / comb(n1 + n2, n1))


def midranks_by_counting(values):
    """Average 1-based ranks and tie-group sizes by counting, in O(n^2).

    A value's midrank is the number of smaller values plus the mean of the
    positions its equal values occupy.  Tie sizes (groups larger than one)
    are listed in ascending order of the tied value.
    """
    ranks = []
    for v in values:
        below = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        ranks.append(Fraction(2 * below + equal + 1, 2))
    ties = [count for _, count in sorted(Counter(values).items()) if count > 1]
    return ranks, ties


def mann_whitney_approx_p_highprecision(x, y) -> float:
    """Two-sided Mann-Whitney p by the normal approximation with
    tie-corrected variance and continuity correction, at 50 decimal digits.

    U and the tie sizes come from :func:`midranks_by_counting`; the p-value
    is min(1, 2 * (1 - Phi(z))), and 1 when every value is tied.
    """
    n1, n2 = len(x), len(y)
    ranks, ties = midranks_by_counting(list(x) + list(y))
    u1 = sum(ranks[:n1]) - Fraction(n1 * (n1 + 1), 2)
    u_max = max(u1, n1 * n2 - u1)
    n = n1 + n2
    variance = Fraction(n1 * n2, 12) * ((n + 1) - Fraction(sum(t**3 - t for t in ties), n * (n - 1)))
    if variance == 0:
        return 1.0
    shift = u_max - Fraction(n1 * n2 + 1, 2)
    z = (mpmath.mpf(shift.numerator) / shift.denominator
         / mpmath.sqrt(mpmath.mpf(variance.numerator) / variance.denominator))
    return float(min(1, 2 * (1 - mpmath.ncdf(z))))


def welch_p_highprecision(x, y) -> float:
    """Two-sided Welch p-value via the regularized incomplete beta function."""
    n1, n2 = len(x), len(y)
    xs = [mpmath.mpf(v) for v in x]
    ys = [mpmath.mpf(v) for v in y]
    m1 = sum(xs) / n1
    m2 = sum(ys) / n2
    v1 = sum((v - m1) ** 2 for v in xs) / (n1 - 1)
    v2 = sum((v - m2) ** 2 for v in ys) / (n2 - 1)
    if m1 == m2:
        return 1.0
    se_sq = v1 / n1 + v2 / n2
    if se_sq == 0:
        return 0.0
    t = (m1 - m2) / mpmath.sqrt(se_sq)
    df = se_sq**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    x_val = df / (df + t**2)
    p = mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, x_val, regularized=True)
    return float(p)


def _t_tail(x, df):
    """P(T > x) for x >= 0 and Student's t, as half a regularized incomplete beta."""
    return mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, df / (df + x * x), regularized=True) / 2


# --- reference Student-t tail kernel -----------------------------------------
# The array kernel that the scalar ``stats._log_beta``, ``stats._betainc``
# and ``stats._t_sf`` replaced: every element runs until the slowest one
# stops, and log B takes four lgamma passes.  The scalar kernel does each
# element's arithmetic as this one does, so it matches it bit for bit.


def _mapped(function):
    ufunc = np.frompyfunc(function, 1, 1)
    return lambda z: np.asarray(ufunc(z), dtype=np.float64)


_lgamma = _mapped(math.lgamma)


def _log_beta_whole_batch(a, b) -> np.ndarray:
    small, large = np.minimum(a, b), np.maximum(a, b)
    tails = [(1 / 12 - (1 / 360 - 1 / (1260 * z * z)) / (z * z)) / z for z in (large, a + b)]
    stirling = (_lgamma(small) + small - (large - 0.5) * np.log1p(small / large)
                - small * np.log(large + small) + tails[0] - tails[1])
    return np.where(large < 100.0, _lgamma(a) + _lgamma(b) - _lgamma(a + b), stirling)


def _nonzero(v: np.ndarray) -> np.ndarray:
    return np.where(v == 0.0, 1e-300, v)  # 1e-300 stands in for 0 in Lentz's method


@np.errstate(divide="ignore")  # a zero x or y takes log(0) = -inf
def _betainc_whole_batch(a, b, x, y) -> np.ndarray:
    swap = x > (a + 1.0) / (a + b + 2.0)
    a, b, x, y = (np.where(swap, u, v) for u, v in ((b, a), (a, b), (y, x), (x, y)))
    front = np.exp(a * np.log(x) + b * np.log(y) - _log_beta_whole_batch(a, b)) / a
    # d and c are the ratios of successive convergents.
    c, d = np.ones_like(x), 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
    fraction, a2m, active = d, a, np.ones_like(x, dtype=bool)
    for m in range(1, 100_000):  # about sqrt(a) steps are needed
        a2m, grown = a2m + 2.0, fraction
        for coefficient in (m * (b - m) * x / ((a2m - 1.0) * a2m),
                            -(a + m) * (a + b + m) * x / (a2m * (a2m + 1.0))):
            d = 1.0 / _nonzero(1.0 + coefficient * d)
            c = _nonzero(1.0 + coefficient / c)
            delta = d * c
            grown = grown * delta
        fraction = np.where(active, grown, fraction)
        active = active & (np.abs(delta - 1.0) >= 1e-15)  # a NaN element stops too
        if not active.any():
            break
    value = np.where(x == 0.0, 0.0, front * fraction)
    return np.where(swap, 1.0 - value, value)


def t_sf_whole_batch(x, df) -> np.ndarray:
    """P(T > x) elementwise by the reference kernel, as ``stats._t_sf`` calls it."""
    x2 = x * x
    return 0.5 * _betainc_whole_batch(0.5 * df, 0.5, df / (df + x2), x2 / (df + x2))


def t_sf_highprecision(x: float, df: float) -> float:
    return float(_t_tail(mpmath.mpf(x), mpmath.mpf(df)))


def t_quantile_highprecision(p: float, df: float) -> float:
    """The t with P(T <= t) = p, by bracketed root finding in log t.

    For df >= 1 the quantile of the upper tail q lies between the normal
    quantile and the Cauchy one, cot(pi q).
    """
    p, df = mpmath.mpf(p), mpmath.mpf(df)
    q = min(p, 1 - p)
    if q == mpmath.mpf(1) / 2:
        return 0.0

    def excess(log_t):
        return mpmath.log(_t_tail(mpmath.exp(log_t), df)) - mpmath.log(q)

    lo = mpmath.log(mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * q))
    hi = mpmath.log(mpmath.cot(mpmath.pi * q))
    if excess(hi) >= 0:  # the Cauchy quantile itself, at df = 1
        log_t = hi
    else:
        log_t = mpmath.findroot(excess, (lo, hi), solver="anderson")
    t = float(mpmath.exp(log_t))
    return t if p > mpmath.mpf(1) / 2 else -t


def normal_quantile_highprecision(p: float) -> float:
    return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))


def normal_cdf_highprecision(x: float) -> float:
    return float(mpmath.ncdf(x))


def summary_exact(measurement_ns_per_vm, repetitions: int):
    """(per_vm_means, mean, stddev, relative_stddev) in exact arithmetic.

    Per-VM means and the aggregate mean stay rational; the square root is
    taken at 50 decimal digits.
    """
    per_vm = [
        Fraction(sum(row), len(row) * repetitions) for row in measurement_ns_per_vm
    ]
    n = len(per_vm)
    mean = sum(per_vm, Fraction(0)) / n
    variance = sum((v - mean) ** 2 for v in per_vm) / (n - 1)
    stddev = mpmath.sqrt(mpmath.mpf(variance.numerator) / variance.denominator)
    relative = stddev / (mpmath.mpf(mean.numerator) / mean.denominator) if mean else 0
    return (
        [float(v) for v in per_vm],
        float(mpmath.mpf(mean.numerator) / mean.denominator),
        float(stddev),
        float(relative),
    )


def pooled_effect_exact(x, y) -> float:
    """Standardized mean difference recomputed at 50 decimal digits."""
    xm = [mpmath.mpf(v) for v in x]
    ym = [mpmath.mpf(v) for v in y]
    n1, n2 = len(xm), len(ym)
    m1 = sum(xm) / n1
    m2 = sum(ym) / n2
    v1 = sum((v - m1) ** 2 for v in xm) / (n1 - 1)
    v2 = sum((v - m2) ** 2 for v in ym) / (n2 - 1)
    pooled = mpmath.sqrt(((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2))
    if pooled == 0:
        return 0.0 if m1 == m2 else float("inf")
    return float((m1 - m2) / pooled)


def record_trials(pool, vms, iterations, decision, resamples, seed):
    """The (old, new) sample matrices ``estimate_f1`` hands ``tuner.decide``
    for one grid cell, recorded in place of deciding them."""
    from perfdelta import tuner

    batches = []

    def record(old, new, decision):
        batches.append((old, new))
        return SimpleNamespace(changed=np.zeros(len(old), dtype=bool))

    with mock.patch.object(tuner, "decide", record):
        tuner.estimate_f1(pool, vms, iterations, decision, resamples, seed)
    [(old, new)] = batches
    return old, new


def estimate_f1_counts_per_round(pool, vms, iterations, decision, resamples, seed):
    """(tp, fp, fn, tn) of a grid cell, deciding each of its own trials by a
    1-D ``decide`` call.

    The trials are the ones ``estimate_f1`` draws (:func:`record_trials`):
    rows 0..resamples-1 are its changed-pair trials and the rest its
    same-version trials.  Deciding them one row at a time, a batched cell
    must count the same.
    """
    from perfdelta.stats import decide

    old, new = record_trials(pool, vms, iterations, decision, resamples, seed)
    flags = [decide(o, n, decision).changed for o, n in zip(old, new, strict=True)]
    tp, fp = sum(flags[:resamples]), sum(flags[resamples:])
    return tp, fp, resamples - tp, resamples - fp
