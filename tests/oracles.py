"""Independent oracles the product code must agree with.

Each oracle takes a deliberately different computational route than the
implementation it checks: brute-force enumeration instead of counting
recurrences, arbitrary-precision arithmetic instead of floats, and
incomplete-beta tail probabilities instead of library survival functions.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

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


def estimate_f1_counts_per_round(pool, vms, iterations, decision, resamples, seed):
    """(tp, fp, fn, tn) of a grid cell, deciding each resampling trial by its
    own 1-D ``decide`` call.

    This is the tuner's per-round loop as it was before its trials were
    batched: the same generator per round and the same draws (``choice``,
    ``choice``, ``permutation``), so a batched cell must count the same.
    """
    from perfdelta.stats import decide, per_vm_means

    base_values, changed_values = (
        per_vm_means(m, iterations, 2 * iterations, pool.repetitions)
        for m in (pool.base, pool.changed))
    n_base, n_changed = len(base_values), len(changed_values)
    tp = fp = fn = tn = 0
    for round_idx in range(resamples):
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, vms, iterations, pool.repetitions, round_idx])
        )
        idx_old = rng.choice(n_base, size=vms, replace=False)
        idx_new = rng.choice(n_changed, size=vms, replace=False)
        if decide(base_values[idx_old], changed_values[idx_new], decision).changed:
            tp += 1
        else:
            fn += 1
        perm = rng.permutation(n_base)
        if decide(base_values[perm[:vms]], base_values[perm[vms : 2 * vms]], decision).changed:
            fp += 1
        else:
            tn += 1
    return tp, fp, fn, tn
