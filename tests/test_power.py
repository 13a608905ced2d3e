import math
import random

import pytest

import oracles
from perfdelta.model import to_csv
from perfdelta.power import (
    VMS_LIMIT,
    power_curve,
    required_vms,
    type_ii_error,
)
from perfdelta.stats import normal_quantile


def test_forward_anchors():
    assert type_ii_error(1.0, 30, 0.01) == pytest.approx(0.0973, abs=0.0005)
    assert type_ii_error(1.0, 50, 0.01) == pytest.approx(0.0076, abs=0.0005)
    assert type_ii_error(0.2, 50, 0.01) == pytest.approx(0.942, abs=0.001)


def test_zero_effect_reduces_to_half_alpha_complement():
    for alpha in (0.01, 0.05, 0.2):
        for vms in (2, 30, 500):
            assert type_ii_error(0.0, vms, alpha) == pytest.approx(
                1 - alpha / 2, abs=1e-12
            )


def test_domain_violations():
    with pytest.raises(ValueError):
        type_ii_error(-0.1, 30, 0.01)
    with pytest.raises(ValueError):
        type_ii_error(1.0, 1, 0.01)
    with pytest.raises(ValueError):
        type_ii_error(1.0, 30, 1.0)
    with pytest.raises(ValueError):
        required_vms(0.0, 0.01, 0.01)
    with pytest.raises(ValueError):
        type_ii_error(1.0, VMS_LIMIT, 0.01)
    with pytest.raises(ValueError):
        type_ii_error(1.0, 10**400, 0.01)
    with pytest.raises(ValueError):
        required_vms(1.0, 0.01, 1.0)


@pytest.mark.parametrize("gamma", [1e-12, 1e-160, 5e-8])
def test_required_vms_refuses_counts_floats_cannot_tell_apart(gamma):
    """A closed form at or above 2^53 is refused with its approximate count."""
    with pytest.raises(ValueError, match=r"needs about \S+ VMs per version"):
        required_vms(gamma, 0.01, 0.1)
    assert required_vms(6e-8, 0.01, 0.1) < VMS_LIMIT


def test_any_count_reaches_a_beta_above_the_zero_effect_error():
    """At alpha 0.5 the Type II error never exceeds 0.75, so beta 0.9 needs
    the fewest VMs however small gamma is."""
    for gamma in (0.0, 1e-9, 1.0):
        assert required_vms(gamma, 0.5, 0.9) == 2


def test_inversion_anchors():
    assert abs(required_vms(0.1, 0.01, 0.01) - 4807) <= 2
    assert required_vms(0.5, 0.01, 0.01) == 193
    assert required_vms(1.0, 0.01, 0.01) == 49


def _is_argmin(v, gamma, alpha, beta):
    return type_ii_error(gamma, v, alpha) <= beta and (
        v == 2 or type_ii_error(gamma, v - 1, alpha) > beta)


def _closed_form_ceiling(gamma, alpha, beta):
    z = max(0.0, -normal_quantile(beta) - normal_quantile(alpha / 2.0))
    return max(2, math.ceil(2.0 * (z / gamma) ** 2))


def test_required_vms_is_exact_argmin():
    for gamma, alpha, beta in ((0.5, 0.01, 0.01), (1.0, 0.05, 0.1), (0.07, 0.01, 0.2)):
        assert _is_argmin(required_vms(gamma, alpha, beta), gamma, alpha, beta)
    # With beta the Type II error at k VMs, the closed form can round to
    # just above k (here 117.00000000000001), and only the downward step
    # brings its ceiling back to k.
    gamma, alpha = 1.350303027955802, 0.001
    beta = type_ii_error(gamma, 117, alpha)
    assert _closed_form_ceiling(gamma, alpha, beta) == 118
    assert required_vms(gamma, alpha, beta) == 117
    rng = random.Random(53)
    stepped_down = 0
    for _ in range(500):
        gamma, alpha = rng.uniform(0.1, 1.5), rng.choice((0.001, 0.01, 0.05))
        k = rng.randint(2, 300)
        beta = type_ii_error(gamma, k, alpha)
        if not 0.0 < beta < 1.0:
            continue
        v = required_vms(gamma, alpha, beta)
        assert v <= k and _is_argmin(v, gamma, alpha, beta), (gamma, alpha, k)
        stepped_down += _closed_form_ceiling(gamma, alpha, beta) > v
    assert stepped_down > 0


def test_inversion_agrees_with_direct_search():
    rng = random.Random(41)
    for _ in range(1000):
        gamma = rng.uniform(0.3, 3.0)
        alpha = rng.uniform(0.001, 0.2)
        beta = rng.uniform(0.001, 0.5)
        v = required_vms(gamma, alpha, beta)
        direct = 2
        while type_ii_error(gamma, direct, alpha) > beta:
            direct += 1
        assert v == direct, (gamma, alpha, beta)


def _bisected_vms(gamma, alpha, beta):
    """Smallest n in [2, 2^53) with a Type II error <= beta, by bisection on
    the error, which does not increase with n."""
    if type_ii_error(gamma, 2, alpha) <= beta:
        return 2
    low, high = 2, VMS_LIMIT - 1  # error(low) > beta >= error(high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if type_ii_error(gamma, mid, alpha) <= beta else (mid, high)
    return high


def test_required_vms_matches_bisection_oracle():
    rng = random.Random(53)
    checked = 0
    for _ in range(200):
        gamma = math.exp(rng.uniform(math.log(1e-7), math.log(3.0)))
        alpha = rng.uniform(0.001, 0.2)
        beta = rng.uniform(0.001, 0.5)
        z = (normal_quantile(1 - alpha / 2) + normal_quantile(1 - beta)) / gamma
        if 2 * z * z < 2**52:
            assert required_vms(gamma, alpha, beta) == _bisected_vms(gamma, alpha, beta), (
                gamma, alpha, beta)
            checked += 1
    assert checked > 150


def test_monotonicity():
    for vms in range(2, 200):
        assert type_ii_error(1.0, vms + 1, 0.01) < type_ii_error(1.0, vms, 0.01) or (
            type_ii_error(1.0, vms, 0.01) == 0.0
        )
    assert type_ii_error(2.0, 30, 0.01) < type_ii_error(1.0, 30, 0.01)
    assert type_ii_error(1.0, 30, 0.001) > type_ii_error(1.0, 30, 0.01)


def test_closed_form_matches_formula_directly():
    # Independent recomputation of the analytic expression.
    gamma, vms, alpha = 0.7, 40, 0.02
    z = normal_quantile(1 - alpha / 2)
    expected = 1 - 0.5 * math.erfc(-(gamma * math.sqrt(vms / 2) - z) / math.sqrt(2))
    assert type_ii_error(gamma, vms, alpha) == pytest.approx(expected, abs=1e-12)


def test_far_tail_keeps_its_digits():
    """beta down to 1e-63 agrees with mpmath, where 1 - Phi(x) would give 0.0."""
    for gamma in (1.0, 2.0, 5.0):
        for vms in (10, 30, 50):
            for alpha in (0.01, 0.05):
                z = oracles.normal_quantile_highprecision(1 - alpha / 2)
                x = z - gamma * math.sqrt(vms / 2)
                assert type_ii_error(gamma, vms, alpha) == pytest.approx(
                    oracles.normal_cdf_highprecision(x), rel=1e-12, abs=0)


def test_required_vms_reaches_a_tiny_beta():
    vms = required_vms(1.0, 0.01, 1e-20)
    assert type_ii_error(1.0, vms, 0.01) <= 1e-20 < type_ii_error(1.0, vms - 1, 0.01)


def test_power_curve_table():
    rows = power_curve([1.0, 0.5], range(2, 60), 0.01)
    by_gamma = {}
    for gamma, vms, alpha, beta in rows:
        assert alpha == 0.01
        by_gamma.setdefault(gamma, []).append((vms, beta))
    anchors = dict((vms, beta) for vms, beta in by_gamma[1.0])
    assert anchors[30] == pytest.approx(0.0973, abs=0.0005)
    assert anchors[50] == pytest.approx(0.0076, abs=0.0005)
    # non-increasing in vms, pointwise ordered in gamma
    for gamma, pairs in by_gamma.items():
        betas = [b for _, b in pairs]
        assert all(a >= b for a, b in zip(betas, betas[1:]))
    for (v1, b1), (v05, b05) in zip(by_gamma[1.0], by_gamma[0.5]):
        assert v1 == v05
        assert b1 <= b05


def test_power_curve_csv_shape():
    text = to_csv(("gamma", "vms", "alpha", "beta"), power_curve([1.0], range(2, 5), 0.01))
    lines = text.strip().splitlines()
    assert lines[0] == "gamma,vms,alpha,beta"
    assert len(lines) == 4
    gamma, vms, alpha, beta = lines[1].split(",")
    assert float(gamma) == 1.0
    assert int(vms) == 2
    assert float(beta) == type_ii_error(1.0, 2, 0.01)
