"""Analytic boundary model for change detectability.

For a two-sided test at significance ``alpha`` with ``vms`` samples per
version and population effect size ``gamma``, the Type II error is

    beta = 1 - Phi(gamma * sqrt(vms / 2) - z_{1 - alpha/2})

This module evaluates that model and inverts it to required VM counts.
Empirical power estimation lives in the tuner; everything here is
closed-form.  The model's domain is gamma finite and >= 0, alpha and beta in
(0, 1), and VM counts in [2, 2^53): above 2^53, ``vms / 2.0`` no longer
tells consecutive counts apart.
"""

from __future__ import annotations

import math

from .stats import normal_cdf, normal_quantile

#: VM counts lie below this bound, where floats still hold every integer.
VMS_LIMIT = 2**53


def _check_domain(gamma: float, alpha: float, beta: float = 0.5, vms: int = 2) -> None:
    """Raise ``ValueError`` outside the model's domain; the defaults lie inside it."""
    if not 0.0 <= gamma < math.inf:  # NaN fails too
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    for name, p in (("alpha", alpha), ("beta", beta)):
        if not 0.0 < p < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {p}")
    if not 2 <= vms < VMS_LIMIT:
        raise ValueError(f"vms must lie in [2, 2^53), got {vms}")


def type_ii_error(gamma: float, vms: int, alpha: float) -> float:
    """Probability of missing a true change of effect size ``gamma``."""
    _check_domain(gamma, alpha, vms=vms)
    # 1 - Phi(x) is taken as Phi(-x), which keeps the digits of a far tail.
    return normal_cdf(-normal_quantile(alpha / 2.0) - gamma * math.sqrt(vms / 2.0))


def required_vms(gamma: float, alpha: float, beta: float) -> int:
    """Smallest VM count whose Type II error does not exceed ``beta``.

    The ceiling of the closed form 2((z_{1-alpha/2} + z_{1-beta}) / gamma)^2,
    adjusted by direct evaluation so the result is the exact argmin.  A
    closed form that is not finite or not below 2^53 is refused.
    """
    _check_domain(gamma, alpha, beta)
    # When z_{1-alpha/2} + z_{1-beta} <= 0, every VM count reaches beta.
    z = max(0.0, -normal_quantile(beta) - normal_quantile(alpha / 2.0))
    root = z / gamma if gamma else math.inf if z else 0.0
    count = 2.0 * root * root
    if not count < VMS_LIMIT:
        raise ValueError(f"gamma={gamma} needs about {count:.3g} VMs per version at "
                         f"alpha={alpha}, beta={beta}; VM counts must lie below 2^53")
    vms = max(2, math.ceil(count))
    while type_ii_error(gamma, vms, alpha) > beta:
        vms += 1
    while vms > 2 and type_ii_error(gamma, vms - 1, alpha) <= beta:
        vms -= 1
    return vms


def power_curve(gammas, vms_range, alpha: float) -> list[tuple[float, int, float, float]]:
    """Tabulate the Type II error over a (gamma, vms) grid.

    Returns ``(gamma, vms, alpha, beta)`` rows, suitable for CSV emission.
    """
    return [
        (gamma, vms, alpha, type_ii_error(gamma, vms, alpha))
        for gamma in gammas
        for vms in vms_range
    ]
