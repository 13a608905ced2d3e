"""Statistics recomputed apart from perfdelta, to check its outputs.

Every routine takes a different route than the program: rational arithmetic
for means and variances, pairwise counting for the Mann-Whitney U,
enumeration for its exact p-value, and mpmath's incomplete beta function for
Student-t tails and quantiles (the program uses scipy).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import mpmath

DIGITS = 40


class CheckFailed(AssertionError):
    """An output of the program disagrees with what it must be."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(actual, expected, what: str, rel: float = 1e-9, abs_tol: float = 0.0) -> None:
    if expected is None or actual is None:
        require(actual is None and expected is None, f"{what}: {actual!r} != {expected!r}")
        return
    a, e = float(actual), float(expected)
    if math.isinf(e) or math.isinf(a):
        require(a == e, f"{what}: {a!r} != {e!r}")
        return
    require(math.isclose(a, e, rel_tol=rel, abs_tol=abs_tol),
            f"{what}: program gave {a!r}, independent value {e!r}")


def per_vm_means(series) -> list[Fraction]:
    """Exact mean per-repetition duration of each VM's measurement iterations."""
    reps = series.config.repetitions
    return [Fraction(sum(r.measurement_ns), len(r.measurement_ns) * reps)
            for r in series.vm_runs]


def _moments(values):
    n = len(values)
    mean = sum(values, Fraction(0)) / n
    var = sum(((v - mean) ** 2 for v in values), Fraction(0)) / (n - 1)
    return n, mean, var


def _mpf(value: Fraction):
    return mpmath.mpf(value.numerator) / value.denominator


def summary(values: list[Fraction]) -> dict:
    _, mean, var = _moments(values)
    with mpmath.workdps(DIGITS):
        sd = mpmath.sqrt(_mpf(var))
        rel = sd / _mpf(mean) if mean else mpmath.mpf(0)
        return {"per_vm": [float(v) for v in values], "mean": float(mean),
                "stddev": float(sd), "relative_stddev": float(rel)}


def effect_size(old, new) -> float:
    n1, m1, v1 = _moments(old)
    n2, m2, v2 = _moments(new)
    pooled_var = ((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2)
    if pooled_var == 0:
        return 0.0 if m1 == m2 else math.copysign(math.inf, m1 - m2)
    with mpmath.workdps(DIGITS):
        return float(_mpf(m1 - m2) / mpmath.sqrt(_mpf(pooled_var)))


def _t_two_sided_p(t, df):
    """P(|T| >= |t|) for Student t with ``df`` degrees of freedom."""
    return mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, df / (df + t * t), regularized=True)


def t_quantile(p: float, df) -> mpmath.mpf:
    """Upper quantile of Student t: the q with P(T <= q) = p, for p > 1/2."""
    tail = 2 * (1 - mpmath.mpf(p))
    df = mpmath.mpf(df)
    # I_x(df/2, 1/2) rises with x = df / (df + q^2); bisect it onto the tail.
    lo, hi = mpmath.mpf(0), mpmath.mpf(1)
    for _ in range(4 * DIGITS):
        mid = (lo + hi) / 2
        if mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, mid, regularized=True) < tail:
            lo = mid
        else:
            hi = mid
    x = (lo + hi) / 2
    return mpmath.sqrt(df * (1 - x) / x)


def welch(old, new) -> tuple[float, float]:
    n1, m1, v1 = _moments(old)
    n2, m2, v2 = _moments(new)
    if m1 == m2:
        return 0.0, 1.0
    se_sq = v1 / n1 + v2 / n2
    if se_sq == 0:
        return math.copysign(math.inf, m1 - m2), 0.0
    with mpmath.workdps(DIGITS):
        t = _mpf(m1 - m2) / mpmath.sqrt(_mpf(se_sq))
        df = _mpf(se_sq ** 2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1)))
        return float(t), float(_t_two_sided_p(t, df))


def mann_whitney(old, new, exact_limit: int = 14) -> tuple[float, float]:
    """(min U, two-sided p): exact by enumeration for small tie-free samples,
    otherwise the tie-corrected normal approximation with continuity correction."""
    n1, n2 = len(old), len(new)
    u1 = sum(Fraction(1) if a > b else Fraction(1, 2) if a == b else Fraction(0)
             for a in old for b in new)
    u_max = max(u1, n1 * n2 - u1)
    combined = sorted(list(old) + list(new))
    ties = [combined.count(v) for v in set(combined)]
    ties = [t for t in ties if t > 1]
    n = n1 + n2
    if n <= exact_limit and not ties:
        offset = n1 * (n1 + 1) // 2
        count = sum(1 for ranks in combinations(range(1, n + 1), n1)
                    if sum(ranks) - offset >= u_max)
        p = min(Fraction(1), Fraction(2 * count, math.comb(n, n1)))
        return float(n1 * n2 - u_max), float(p)
    var = Fraction(n1 * n2, 12) * ((n + 1) - Fraction(sum(t ** 3 - t for t in ties), n * (n - 1)))
    if var <= 0:
        return float(n1 * n2 - u_max), 1.0
    with mpmath.workdps(DIGITS):
        z = _mpf(u_max - Fraction(n1 * n2, 2) - Fraction(1, 2)) / mpmath.sqrt(_mpf(var))
        p = min(mpmath.mpf(1), 2 * mpmath.ncdf(-z))
        return float(n1 * n2 - u_max), float(max(p, 0))


def ci_gap(old, new, alpha: float) -> float:
    """Gap between the two Student-t confidence intervals (> 0 means disjoint)."""
    with mpmath.workdps(DIGITS):
        bounds = []
        for sample in (old, new):
            n, mean, var = _moments(sample)
            half = t_quantile(1 - alpha / 2, n - 1) * mpmath.sqrt(_mpf(var) / n)
            bounds.append((_mpf(mean) - half, _mpf(mean) + half))
        (lo1, hi1), (lo2, hi2) = bounds
        return float(max(lo1 - hi2, lo2 - hi1))


def expected_outcome(old, new, test: str, alpha: float) -> dict:
    """What ``perfdelta.stats.decide`` must return for these per-VM means."""
    if test == "t":
        statistic, p = welch(old, new)
        changed = p < alpha
    elif test == "mann-whitney":
        statistic, p = mann_whitney(old, new)
        changed = p < alpha
    else:
        statistic, p = ci_gap(old, new, alpha), None
        changed = statistic > 0
    return {"changed": changed, "statistic": statistic, "p_value": p,
            "effect_size": effect_size(old, new)}


def check_outcome(actual: dict, expected: dict, scale: float, what: str) -> None:
    """Compare a decision (as ``compare`` prints it) with the independent one.

    ``scale`` is the magnitude of the per-VM means; the CI gap is a difference
    of such values, so its tolerance is relative to it.
    """
    require(actual["changed"] == expected["changed"],
            f"{what}: changed={actual['changed']}, independent decision {expected['changed']}")
    gap = expected["p_value"] is None
    close(actual["statistic"], expected["statistic"], f"{what} statistic",
          abs_tol=1e-9 * scale if gap else 1e-12)
    close(actual["p_value"], expected["p_value"], f"{what} p-value", rel=1e-7, abs_tol=1e-12)
    close(actual["effect_size"], expected["effect_size"], f"{what} effect size", abs_tol=1e-9)


def normal_sf(x) -> float:
    """P(Z > x) for a standard normal Z."""
    with mpmath.workdps(DIGITS):
        return float(mpmath.ncdf(-x))


def normal_upper_quantile(q: float) -> float:
    """z with P(Z > z) = q."""
    with mpmath.workdps(DIGITS):
        return float(mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(q)))
