"""Analytic boundary model for change detectability.

For a two-sided test at significance ``alpha`` with ``vms`` samples per
version and population effect size ``gamma``, the Type II error is

    beta = 1 - Phi(gamma * sqrt(vms / 2) - z_{1 - alpha/2})

This module evaluates that model, inverts it to required VM counts and
checks measurement-budget feasibility.  Empirical power estimation lives in
the tuner; everything here is closed-form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .stats import normal_cdf, normal_quantile


@dataclass(frozen=True)
class FeasibilityReport:
    required_vms: int
    seconds_per_vm: float
    total_seconds: float
    budget_seconds: float
    feasible: bool


def type_ii_error(gamma: float, vms: int, alpha: float) -> float:
    """Probability of missing a true change of effect size ``gamma``."""
    if not 0.0 <= gamma < math.inf:  # NaN fails too
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    if vms < 2:
        raise ValueError(f"vms must be >= 2, got {vms}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    # 1 - Phi(x) is taken as Phi(-x), which keeps the digits of a far tail.
    return normal_cdf(-normal_quantile(alpha / 2.0) - gamma * math.sqrt(vms / 2.0))


def required_vms(gamma: float, alpha: float, beta: float) -> int:
    """Smallest VM count whose Type II error does not exceed ``beta``.

    Closed-form inversion, then adjusted by direct evaluation so the result
    is the exact argmin.
    """
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    if gamma == 0:
        raise ValueError("a zero effect size is unreachable with any finite VM count")
    if not 0.0 < alpha < 1.0 or not 0.0 < beta < 1.0:
        raise ValueError("alpha and beta must be in (0, 1)")
    z = (-normal_quantile(beta) - normal_quantile(alpha / 2.0)) / gamma
    candidate = max(2, math.ceil(2.0 * z * z) - 2)
    vms = candidate
    while type_ii_error(gamma, vms, alpha) > beta:
        vms += 1
    while vms > 2 and type_ii_error(gamma, vms - 1, alpha) <= beta:
        vms -= 1
    return vms


def feasibility(
    gamma: float,
    alpha: float,
    beta: float,
    seconds_per_vm: float,
    budget_seconds: float,
) -> FeasibilityReport:
    """Whether the VMs required for (gamma, alpha, beta) fit the time budget.

    ``seconds_per_vm`` is the wall time of one VM index of a paired
    campaign, its old and its new start together, so the total is
    ``required_vms * seconds_per_vm``.  The budget boundary is inclusive.
    """
    if seconds_per_vm <= 0 or budget_seconds <= 0:
        raise ValueError("durations must be positive")
    vms = required_vms(gamma, alpha, beta)
    total = vms * seconds_per_vm
    return FeasibilityReport(
        required_vms=vms,
        seconds_per_vm=seconds_per_vm,
        total_seconds=total,
        budget_seconds=budget_seconds,
        feasible=total <= budget_seconds,
    )


def power_curve(gammas, vms_range, alpha: float) -> list[tuple[float, int, float, float]]:
    """Tabulate the Type II error over a (gamma, vms) grid.

    Returns ``(gamma, vms, alpha, beta)`` rows, suitable for CSV emission.
    """
    return [
        (gamma, vms, alpha, type_ii_error(gamma, vms, alpha))
        for gamma in gammas
        for vms in vms_range
    ]
