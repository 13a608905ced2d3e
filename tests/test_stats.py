import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_series
from perfdelta.model import DecisionConfig, StatTest, serialize_series
from perfdelta.stats import (
    EXACT_MANN_WHITNEY_LIMIT,
    _critical_values,
    _log_beta,
    _mann_whitney,
    _mean_and_variance,
    _t_sf,
    _tie_free_p,
    _u_counts,
    decide,
    mann_whitney_approx_p,
    normal_cdf,
    normal_quantile,
    per_vm_means,
    summarize,
    t_quantile,
)

MW = DecisionConfig(test=StatTest.MANN_WHITNEY, alpha=0.01)
WELCH = DecisionConfig(test=StatTest.WELCH_T, alpha=0.01)
CI = DecisionConfig(test=StatTest.CI_OVERLAP, alpha=0.01)


# --- summarize -------------------------------------------------------------


def test_summarize_arithmetic():
    series = make_series([[1000, 1000], [3000, 3000]], repetitions=10)
    summary = summarize(series)
    assert summary.per_vm_means_ns == (100.0, 300.0)
    assert summary.mean_ns == 200.0
    assert summary.stddev_ns == pytest.approx(math.sqrt(2) * 100, rel=1e-12)


def test_summarize_constant_series():
    series = make_series([[500, 500], [500, 500]], repetitions=5)
    summary = summarize(series)
    assert summary.mean_ns == 100.0
    assert summary.stddev_ns == 0.0
    assert summary.relative_stddev == 0.0


def test_summarize_excludes_warmup():
    series = make_series(
        [[100, 100], [300, 300]],
        warmup_ns_per_vm=[[10**9, 10**9], [10**9, 10**9]],
    )
    assert summarize(series).mean_ns == 200.0


def test_per_vm_means_rejects_ranges_a_slice_would_cut():
    windows = np.ones((2, 4))
    assert per_vm_means(windows, 1, 4, 2).tolist() == [0.5, 0.5]
    for start, stop in ((2, 2), (3, 2), (-1, 2), (2, 5)):
        with pytest.raises(ValueError, match="window range"):
            per_vm_means(windows, start, stop, 2)


def test_per_vm_means_refuses_totals_a_float64_sum_would_round():
    ok = np.array([[2.0**52, 2.0**52 - 1.0, 0.0]])
    assert per_vm_means(ok, 0, 3, 1).tolist() == [(2**53 - 1) / 3]
    for row in ([2.0**52, 2.0**52, 0.0], [2.0**53 + 2.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match=r"2\*\*53"):
            per_vm_means(np.array([row, [1.0, 1.0, 1.0]]), 0, 3, 1)
    # Only the summed range counts.
    assert per_vm_means(np.array([[2.0**53, 1.0, 2.0]]), 1, 3, 1).tolist() == [1.5]


def test_summarize_single_vm_rejected():
    with pytest.raises(ValueError, match="at least 2 VMs"):
        summarize(make_series([[1, 2, 3]]))


def test_summarize_matches_exact_oracle():
    rng = random.Random(7)
    for _ in range(50):
        vms = rng.randint(2, 8)
        iters = rng.randint(2, 10)
        repetitions = rng.randint(1, 10**6)
        data = [[rng.randrange(2**48) for _ in range(iters)] for _ in range(vms)]
        summary = summarize(make_series(data, repetitions=repetitions))
        per_vm, mean, stddev, relative = oracles.summary_exact(data, repetitions)
        assert summary.mean_ns == pytest.approx(mean, rel=1e-12)
        assert summary.stddev_ns == pytest.approx(stddev, rel=1e-12, abs=1e-12)
        assert summary.relative_stddev == pytest.approx(relative, rel=1e-12, abs=1e-12)
        for got, want in zip(summary.per_vm_means_ns, per_vm):
            assert got == pytest.approx(want, rel=1e-12)


# --- effect size -----------------------------------------------------------


def _effect(old, new):
    """decide's effect size between two summaries' per-VM means."""
    return decide(old.per_vm_means_ns, new.per_vm_means_ns, WELCH).effect_size


def test_effect_size_sign_and_scale():
    old = summarize(make_series([[int(v)] for v in (90, 100, 110)]))
    new = summarize(make_series([[int(v)] for v in (95, 105, 115)]))
    # means 100 vs 105, pooled sd 10
    assert _effect(old, new) == pytest.approx(-0.5)


def test_effect_size_identical_is_zero():
    s = summarize(make_series([[100], [200]]))
    assert _effect(s, s) == 0.0


def test_effect_size_zero_spread_unequal_means_is_infinite():
    old = summarize(make_series([[100], [100]]))
    new = summarize(make_series([[200], [200]]))
    assert _effect(old, new) == -math.inf
    assert _effect(new, old) == math.inf


def test_effect_size_matches_highprecision_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        old = rng.normal(100, 7, size=30)
        new = rng.normal(104, 5, size=30)
        got = _effect(
            summarize(make_series([[int(v * 1000)] for v in old], repetitions=1000)),
            summarize(make_series([[int(v * 1000)] for v in new], repetitions=1000)),
        )
        want = oracles.pooled_effect_exact(
            [int(v * 1000) / 1000 for v in old], [int(v * 1000) / 1000 for v in new]
        )
        assert got == pytest.approx(want, rel=1e-12)


# --- decide: examples ------------------------------------------------------


def test_mann_whitney_identical_samples():
    outcome = decide([1, 2, 3], [1, 2, 3], MW)
    assert not outcome.changed
    assert outcome.p_value == 1.0


def test_mann_whitney_exact_enumeration_example():
    outcome = decide([1, 2, 3], [10, 11, 12], MW)
    assert outcome.p_value == pytest.approx(0.1, abs=1e-15)
    assert not outcome.changed  # 0.1 is not < 0.01
    assert decide([1, 2, 3], [10, 11, 12],
                  DecisionConfig(test=StatTest.MANN_WHITNEY, alpha=0.2)).changed


def test_welch_equal_samples_p_is_exactly_one():
    outcome = decide([4.0, 5.0, 6.0], [4.0, 5.0, 6.0], WELCH)
    assert outcome.p_value == 1.0
    assert outcome.statistic == 0.0
    assert not outcome.changed


def test_clear_separation_detected_by_all_tests():
    rng = np.random.default_rng(5)
    old = rng.normal(100, 1, 30)
    new = rng.normal(110, 1, 30)
    for decision in (MW, WELCH, CI):
        assert decide(old, new, decision).changed


def test_degenerate_equal_constant_samples():
    for decision in (MW, WELCH, CI):
        outcome = decide([5.0, 5.0, 5.0], [5.0, 5.0, 5.0], decision)
        assert not outcome.changed
        if outcome.p_value is not None:
            assert outcome.p_value == 1.0


def test_too_small_samples_rejected():
    with pytest.raises(ValueError, match="at least 2 values per sample"):
        decide([1.0], [1.0, 2.0], MW)


# --- decide: properties ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(1, 1000), min_size=2, max_size=10),
    st.lists(st.floats(1, 1000), min_size=2, max_size=10),
)
def test_swap_symmetry(old, new):
    for decision in (MW, WELCH, CI):
        a = decide(old, new, decision)
        b = decide(new, old, decision)
        assert a.changed == b.changed
        if a.p_value is not None:
            assert a.p_value == pytest.approx(b.p_value, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(1, 1000), min_size=2, max_size=12, unique=True),
    st.lists(st.floats(1, 1000), min_size=2, max_size=12, unique=True),
    st.floats(0.001, 1000.0),
)
@example(old=[1.0, 2.0], new=[1000.0, 999.9999999999999], factor=524.7418356800315)
def test_mann_whitney_scale_invariance(old, new, factor):
    scaled_old, scaled_new = [v * factor for v in old], [v * factor for v in new]
    # Rounding can tie (or untie) scaled values, which changes the pooled
    # midranks and rightly moves the test between its exact and approximate
    # p-values; the property holds only where scaling keeps the midranks.
    assume(
        oracles.midranks_by_counting(old + new)
        == oracles.midranks_by_counting(scaled_old + scaled_new)
    )
    a = decide(old, new, MW)
    b = decide(scaled_old, scaled_new, MW)
    assert a.statistic == b.statistic
    assert a.p_value == pytest.approx(b.p_value, rel=1e-12)
    assert a.changed == b.changed


def test_exact_vs_approx_consistency_band():
    # Both sample sizes must be >= 5 for the normal approximation to sit
    # inside the 0.02 band; below that its worst-case error is larger.
    # The exact route always handles this size range in practice.
    rng = random.Random(17)
    worst = 0.0
    for _ in range(300):
        n1 = rng.randint(5, 9)
        n2 = rng.randint(5, min(9, 14 - n1))
        values = rng.sample(range(10_000), n1 + n2)
        old = [float(v) for v in values[:n1]]
        new = [float(v) for v in values[n1:]]
        u1 = _u1(old, new)
        u_max = max(u1, n1 * n2 - u1)
        exact = _tie_free_p(n1, n2)[int(u_max)]
        approx = mann_whitney_approx_p(u_max, n1, n2)
        worst = max(worst, abs(exact - approx))
    assert worst <= 0.02


def _u1(old, new):
    ranks = {v: i + 1 for i, v in enumerate(sorted(old + new))}
    return sum(ranks[v] for v in old) - len(old) * (len(old) + 1) / 2


def test_exact_matches_bruteforce_oracle():
    rng = random.Random(23)
    for _ in range(200):
        n1 = rng.randint(2, 8)
        n2 = rng.randint(2, min(8, 14 - n1))
        values = rng.sample(range(100_000), n1 + n2)
        old = [float(v) for v in values[:n1]]
        new = [float(v) for v in values[n1:]]
        got = decide(old, new, MW).p_value
        want = oracles.mann_whitney_exact_bruteforce(old, new)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n1, n2, oracle", [
    (7, 7, oracles.mann_whitney_exact_bruteforce),
    (9, 6, oracles.mann_whitney_approx_p_highprecision),
])
def test_mann_whitney_is_exact_up_to_its_limit_and_approximate_above(n1, n2, oracle):
    """Fully separated tie-free pairs on either side of the exact limit: at
    n1 + n2 = 14 the exact p is 5.8e-4 and the approximation 2.2e-3, at 15
    the exact p is 4.0e-4 and the approximation 1.8e-3, so alpha 0.001 tells
    the two routes apart in a batch row as well as in a 1-D call's p."""
    old, new = np.arange(n2, n1 + n2, dtype=float), np.arange(n2, dtype=float)
    decision = DecisionConfig(test=StatTest.MANN_WHITNEY, alpha=0.001)
    want = oracle(old.tolist(), new.tolist())
    assert decide(old, new, decision).p_value == pytest.approx(want, rel=1e-12)
    batched = decide(np.stack((old, old[::-1])), np.stack((new, new[::-1])), decision)
    assert batched.changed.tolist() == [want < 0.001] * 2


def test_tie_free_table_matches_the_rank_sum_recurrence_bit_for_bit():
    """The numpy count table holds the counts, and its p-values the very
    floats, of the pure-Python recurrence, for every n1, n2 <= 20.  The
    counts agree at 30 x 30 and at 33 x 33 too, the largest equal sizes
    whose counts int64 holds exactly."""
    for n1 in range(1, 21):
        for n2 in range(1, 21):
            offset = n1 * (n1 + 1) // 2
            assert _u_counts(n1, n2).tolist() == list(oracles._rank_sum_counts(n1, n2)[offset:])
            assert _tie_free_p(n1, n2).tolist() == [
                oracles.mann_whitney_exact_p_by_rank_sums(u, n1, n2) for u in range(n1 * n2 + 1)]
    for n in (30, 33):
        assert _u_counts(n, n).tolist() == list(oracles._rank_sum_counts(n, n)[n * (n + 1) // 2:])


def test_exact_p_looks_up_every_u_max_as_the_recurrence_did():
    """Every u_max in 0..n1 * n2 looks up the recurrence's p-value, one below
    the midpoint gives 1.0, and sizes whose counts int64 could wrap are
    refused."""
    for n1, n2 in ((1, 1), (2, 5), (4, 4), (6, 7), (3, 11), (7, 7)):
        table = _tie_free_p(n1, n2)
        assert len(table) == n1 * n2 + 1
        for u_max, got in enumerate(table.tolist()):
            assert got == oracles.mann_whitney_exact_p_by_rank_sums(u_max, n1, n2)
            if u_max < n1 * n2 / 2:
                assert got == 1.0
    with pytest.raises(ValueError, match="n1 \\+ n2 <= 66"):
        _tie_free_p(34, 33)  # int64 counts could wrap


def test_mann_whitney_far_tail_keeps_its_digits():
    """Fully separated pairs of n = 30..100 VMs a side, p from 3e-11 down to
    3e-34: 2 * (1 - Phi(z)) would cancel to 2.2e-16 at n = 45 and 46 and to
    0.0 from n = 47."""
    for n in range(30, 101):
        old = np.arange(n, dtype=float)
        new = old + 1000.0
        want = oracles.mann_whitney_approx_p_highprecision(old.tolist(), new.tolist())
        assert decide(old, new, MW).p_value == pytest.approx(want, rel=1e-12, abs=0)


def test_welch_matches_incomplete_beta_oracle():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n1 = int(rng.integers(2, 40))
        n2 = int(rng.integers(2, 40))
        old = list(rng.normal(100, rng.uniform(0.5, 20), n1))
        new = list(rng.normal(rng.uniform(95, 105), rng.uniform(0.5, 20), n2))
        got = decide(old, new, WELCH).p_value
        want = oracles.welch_p_highprecision(old, new)
        assert got == pytest.approx(want, abs=1e-9)


# --- decide: batches -------------------------------------------------------


def _sample(draw, kind: str, n: int, centre: int) -> list[float]:
    """One sample of a batch row, of a kind that exercises one kernel branch."""
    if kind == "spread":
        values = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n))
    elif kind == "ties":
        values = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    elif kind == "constant":
        values = [centre] * n
    else:  # offsets in +/- pairs, so the mean is exactly ``centre``
        offsets = draw(st.lists(st.integers(1, 500), min_size=n // 2, max_size=n // 2))
        values = [centre + o for o in offsets] + [centre - o for o in offsets] + [centre] * (n % 2)
    return [float(v) for v in values]


@st.composite
def decide_batches(draw):
    """Two (R, n1) and (R, n2) arrays whose rows mix tie-free, tied,
    zero-variance and equal-mean sample pairs."""
    n1, n2 = draw(st.integers(2, 16)), draw(st.integers(2, 16))
    old, new = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["spread", "ties", "constant", "equal-mean"]))
        centre = draw(st.integers(600, 900))
        old.append(_sample(draw, kind, n1, centre))
        new.append(_sample(draw, kind, n2, centre + draw(st.sampled_from([0, 0, 7]))))
    return np.array(old), np.array(new)


def _check_row_against_oracles(old, new, outcome, test, alpha):
    n1, n2 = len(old), len(new)
    if test is StatTest.WELCH_T:
        assert outcome.p_value == pytest.approx(oracles.welch_p_highprecision(old, new), abs=1e-9)
    elif test is StatTest.MANN_WHITNEY:
        ranks, ties = oracles.midranks_by_counting(old + new)
        u1 = sum(ranks[:n1]) - Fraction(n1 * (n1 + 1), 2)
        assert outcome.statistic == min(u1, n1 * n2 - u1)
        if not ties and n1 + n2 <= 14:
            assert outcome.p_value == pytest.approx(
                oracles.mann_whitney_exact_bruteforce(old, new), abs=1e-12)
        else:
            assert outcome.p_value == pytest.approx(
                oracles.mann_whitney_approx_p_highprecision(old, new), rel=1e-12)
    else:

        def interval(sample):
            n = len(sample)
            mean = sum(map(Fraction, sample)) / n
            variance = sum((Fraction(v) - mean) ** 2 for v in sample) / (n - 1)
            half = oracles.t_quantile_highprecision(1 - alpha / 2, n - 1) * math.sqrt(variance / n)
            return float(mean) - half, float(mean) + half

        (lo1, hi1), (lo2, hi2) = interval(old), interval(new)
        # Samples lie in [0, 10,000]: 1e-9 of that scale.
        assert outcome.statistic == pytest.approx(max(lo1 - hi2, lo2 - hi1), abs=1e-5)


@settings(max_examples=200, deadline=None)
@given(
    decide_batches(),
    st.sampled_from(list(StatTest)),
    st.sampled_from([0.01, 0.05, 0.2]),
)
def test_batched_rows_decide_as_their_one_dimensional_calls(batch, test, alpha):
    old, new = batch
    decision = DecisionConfig(test=test, alpha=alpha)
    batched = decide(old, new, decision)
    assert batched.p_value is None  # p is a 1-D quantity
    assert type(batched.n_old) is type(batched.n_new) is int  # one pair of sizes a batch
    for i, (row_old, row_new) in enumerate(zip(old.tolist(), new.tolist())):
        one = decide(row_old, row_new, decision)
        assert type(one.changed) is bool and type(one.statistic) is float
        assert batched.changed[i] == one.changed
        assert batched.statistic[i] == one.statistic
        assert batched.effect_size[i] == one.effect_size
        assert (batched.n_old, batched.n_new) == (one.n_old, one.n_new)
        _check_row_against_oracles(row_old, row_new, one, test, alpha)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1e4), st.floats(1.0, 1e5)), min_size=1, max_size=40))
def test_t_sf_over_an_array_equals_its_elementwise_calls(pairs):
    """The scalar tail that a batch's undecided Welch rows and a 1-D call
    both take is, element by element, the array reference kernel's tail."""
    x, df = np.array(pairs).T
    assert (np.array([_t_sf(a, b) for a, b in pairs]).tobytes()
            == oracles.t_sf_whole_batch(x, df).tobytes())


#: Few distinct values, so most draws are full of ties; signed zeros tie.
tie_heavy_samples = st.lists(
    st.one_of(
        st.sampled_from([-2.5, -0.0, 0.0, 1.0, 3.25, 1e9]),
        st.floats(min_value=-1e6, max_value=1e6),
    ),
    min_size=2,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_samples, tie_heavy_samples)
def test_mann_whitney_on_tie_heavy_samples_matches_oracles(old, new):
    _check_row_against_oracles(old, new, decide(old, new, MW), StatTest.MANN_WHITNEY, MW.alpha)


def test_mann_whitney_mixed_small_rows_decide_as_their_own_calls():
    """At n1 = n2 = 6 a batch mixes tie-free rows, whose p comes from the
    exact table, with tied rows, whose p is approximated: each row decides as
    its own 1-D call, and a tie-free row's 1-D p is the exact one."""
    assert 12 <= EXACT_MANN_WHITNEY_LIMIT
    rng = np.random.default_rng(6)
    old, new = rng.permutation(np.arange(48.0)).reshape(2, 4, 6)  # tie-free
    tied_old, tied_new = rng.integers(0, 5, size=(2, 4, 6)).astype(float)
    old, new = np.concatenate((old, tied_old)), np.concatenate((new, tied_new))
    old[1], new[1] = np.arange(6.0) + 6.0, np.arange(6.0)  # u_max = 36
    order = [0, 4, 1, 5, 2, 6, 3, 7]
    old, new = old[order], new[order]
    batched = decide(old, new, MW)
    tie_free = [len(set(o) | set(n)) == 12 for o, n in zip(old.tolist(), new.tolist())]
    assert tie_free == [True, False] * 4
    for i, (row_old, row_new) in enumerate(zip(old.tolist(), new.tolist())):
        one = decide(row_old, row_new, MW)
        assert batched.changed[i] == one.changed
        assert batched.statistic[i] == one.statistic
        if tie_free[i]:
            u_max = 36 - one.statistic
            assert one.p_value == _tie_free_p(6, 6)[int(u_max)]


#: Values the rank kernel must order as the pair count does: spread floats,
#: a few repeated values, signed zeros (which tie) and both infinities.
_ranked_values = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from([-math.inf, -2.5, -0.0, 0.0, 1.0, 3.25, math.inf]),
)


@st.composite
def mann_whitney_batches(draw):
    """Two (R, n1) and (R, n2) arrays, either tie-free (all values distinct;
    -0.0 and 0.0 count as one) or drawn from few values, so mostly tied."""
    rows, n1, n2 = draw(st.integers(1, 6)), draw(st.integers(2, 20)), draw(st.integers(2, 20))
    size = rows * (n1 + n2)
    if draw(st.booleans()):
        values = draw(st.lists(_ranked_values, min_size=size, max_size=size, unique=True))
    else:
        values = draw(st.lists(_ranked_values, min_size=size, max_size=size))
    pooled = np.array(values).reshape(rows, n1 + n2)
    return pooled[:, :n1], pooled[:, n1:]


def _assert_ranks_count_as_the_pairs(old, new):
    with np.errstate(divide="ignore", invalid="ignore"):  # as decide calls it
        got, want = _mann_whitney(old, new), oracles.mann_whitney_by_pairs(old, new)
    assert got[0].tobytes() == want[0].tobytes()  # U
    assert got[1].tobytes() == want[1].tobytes()  # p


@settings(max_examples=300, deadline=None)
@given(mann_whitney_batches())
def test_mann_whitney_rank_sums_equal_the_pair_count_bit_for_bit(batch):
    _assert_ranks_count_as_the_pairs(*batch)


@pytest.mark.parametrize("rows", [1, 9])
@pytest.mark.parametrize("n1, n2", [(2, 2), (3, 9), (6, 8), (7, 8), (9, 6), (2, 30), (30, 30),
                                    (17, 40)])
def test_mann_whitney_rank_sums_equal_the_pair_count_on_a_grid_of_shapes(rows, n1, n2):
    """Tie-free, fully tied and mixed batches, on both sides of the exact
    limit (n1 + n2 = 14 and 15)."""
    rng = np.random.default_rng([rows, n1, n2])
    spread = rng.normal(size=(rows, n1 + n2))
    tied = rng.integers(0, 4, size=(rows, n1 + n2)).astype(float)
    mixed = np.where(np.arange(rows)[:, None] % 2 == 0, spread, tied)
    for pooled in (spread, tied, mixed, np.zeros((rows, n1 + n2))):
        _assert_ranks_count_as_the_pairs(pooled[:, :n1], pooled[:, n1:])


@pytest.mark.parametrize("test", list(StatTest))
def test_decide_rejects_nan_values(test):
    """A NaN has no order and no mean, so no test can decide on it."""
    decision = DecisionConfig(test=test, alpha=0.01)
    with pytest.raises(ValueError, match="NaN"):
        decide([1.0, math.nan, 3.0], [1.0, 2.0], decision)
    old = np.arange(12.0).reshape(3, 4)
    new = old + 0.5
    new[2, 1] = math.nan
    with pytest.raises(ValueError, match="NaN"):
        decide(old, new, decision)


def test_welch_critical_values_past_t_quantiles_cache_are_computed_once():
    """At 520 VMs a side the list c(1)..c(1040) outgrows t_quantile's cache,
    so a second batch reads it from its own cache, read-only."""
    assert t_quantile.cache_info().maxsize < 1040
    old, new = np.random.default_rng(40).normal(size=(2, 3, 520))
    decision = DecisionConfig(test=StatTest.WELCH_T, alpha=0.0123)
    decide(old, new, decision)
    misses = t_quantile.cache_info().misses
    decide(old, new, decision)
    assert t_quantile.cache_info().misses == misses
    assert not _critical_values(0.0123, 1040).flags.writeable


def test_a_column_major_batch_decides_as_its_rows():
    """A transposed batch's rows are summed as 1-D samples are, pairwise,
    where numpy would otherwise add up each strided row in sequence."""
    old, new = (x.T for x in np.random.default_rng(5).normal(100.0, 1.0, size=(2, 16, 200)))
    batched = decide(old, new, WELCH)
    for i in range(len(old)):
        one = decide(old[i], new[i], WELCH)
        assert (batched.statistic[i], batched.effect_size[i]) == (one.statistic, one.effect_size)


def _welch_rows_at_the_margins(h: float, n2: int, alpha: float):
    """Welch rows of old [m - h, m + h] against n2 new values evenly spread
    around 0, with |t| at the critical values c(k) and c(k + 1), k = ⌊df⌋,
    at each times (1 ± 1e-9), and one ulp either side of all six.  h and the
    new values fix the standard error and df, so t moves with m alone; m
    steps an ulp at a time, and the whole row is rescaled, keeping df, until
    every wanted t is met.  Returns the old and new rows and their df."""
    first_df = None
    for scale in 1.0 + np.arange(64) / 64:
        new = (np.arange(n2) - (n2 - 1) / 2.0) * scale
        _, (v2,) = _mean_and_variance(new[None])
        hs = h * scale
        a, b = hs * hs, v2 / n2
        df = (a + b) * (a + b) / (a * a + b * b / (n2 - 1))
        first_df = df if first_df is None else first_df
        if df != first_df:
            continue
        k = math.floor(df)
        rows = []
        for c in (t_quantile(1.0 - alpha / 2.0, k), t_quantile(1.0 - alpha / 2.0, k + 1)):
            for target in (c * (1 + 1e-9), c, c * (1 - 1e-9)):
                centre = target * math.sqrt(a + b)
                m = centre + np.spacing(centre) * np.arange(-40, 41)
                old = np.stack((m - hs, m + hs), axis=1)
                t = decide(old, np.tile(new, (len(m), 1)), WELCH).statistic
                rows += [old[t == want][:1] for want in
                         (np.nextafter(target, 0.0), target, np.nextafter(target, np.inf))]
        if all(len(row) for row in rows):
            old = np.concatenate(rows)
            return old, np.tile(new, (len(old), 1)), float(df)
    raise AssertionError(f"no rows at the margins for h={h}, n2={n2}, alpha={alpha}")


SUBNORMAL_WELCH_ROWS = (
    np.array([[0.0, 1e-150], [0.0, 3.276263660093949e-81], [0.0, 1.9629214156836413e-81]]),
    np.array([[5.0, 5.0], [0.0, -2.4341457926331836e-81], [0.0, -3.244356736879057e-81]]),
)


@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05])
def test_welch_rows_whose_df_underflows_decide_as_mpmath_says(alpha):
    """Rows whose a² and b² underflow, so that Satterthwaite's df is NaN or
    above n1 + n2 - 2, take their p-value from a df in Welch's bounds: the
    first row, a plain change against a constant sample, is flagged."""
    decision = DecisionConfig(test=StatTest.WELCH_T, alpha=alpha)
    old, new = SUBNORMAL_WELCH_ROWS
    want = [oracles.welch_p_highprecision(o.tolist(), n.tolist()) for o, n in zip(old, new)]
    for o, n, p in zip(old, new, want):
        one = decide(o, n, decision)
        assert one.p_value == pytest.approx(p, rel=1e-12)
        assert one.changed == (p < alpha)
    assert decide(old, new, decision).changed.tolist() == [p < alpha for p in want] == [
        True, False, False]


@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05])
def test_batched_welch_rows_near_the_critical_values_decide_as_their_own_calls(alpha):
    """A batch decides a Welch row by the critical values c(k) and c(k + 1),
    k = ⌊df⌋, with a relative margin of 1e-9, and takes the exact tail only
    for rows between them: rows at each margin and one ulp either side, at
    integer df, at df rounded just below an integer and between integers,
    and the rows the kernel special-cases or cannot screen, decide as their
    own 1-D calls."""
    decision = DecisionConfig(test=StatTest.WELCH_T, alpha=alpha)
    groups, dfs = [], []
    # h = 0 is a constant two-VM old side: df = n2 - 1, which rounds just
    # below 7 at n2 = 8; h = 0.25 puts df between integers.
    for h, n2 in ((0.0, 2), (0.0, 3), (0.0, 5), (0.0, 8), (0.0, 17), (0.25, 2),
                  (0.25, 4), (0.25, 11), (0.25, 30)):
        old, new, df = _welch_rows_at_the_margins(h, n2, alpha)
        groups.append((old, new))
        dfs.append(df)
    assert dfs[:5] == [1.0, 2.0, 4.0, 7.0 - 2**-50, 16.0]
    assert all(df != math.floor(df) for df in dfs[5:])
    rng = np.random.default_rng(35)
    groups.append(tuple(rng.integers(0, 100, size=(2, 300, 5)).astype(float)))
    groups.append(tuple(rng.integers(0, 4, size=(2, 300, 5)).astype(float)))  # tied
    groups.append((np.array([[1.0, 2, 3, 4, 5], [4] * 5, [4] * 5]),  # equal means,
                   np.array([[3.0] * 5, [4] * 5, [6] * 5])))  # two constant samples
    # Variances near the subnormal range, where rounding breaks Welch's bound
    # df <= n1 + n2 - 2: Satterthwaite's df is NaN, 4.0 = n1 + n2, or 3.0 =
    # n1 + n2 - 1, and the kernel takes df again from a's share of a + b.
    old, new = SUBNORMAL_WELCH_ROWS
    a, b = (_mean_and_variance(x)[1] / 2 for x in (old, new))
    with np.errstate(invalid="ignore"):
        assert np.array_equal((a + b) * (a + b) / (a * a + b * b), [np.nan, 4.0, 3.0],
                              equal_nan=True)
    groups.append((old, new))
    for old, new in groups:
        batched = decide(old, new, decision)
        assert batched.changed.tolist() == [decide(o, n, decision).changed
                                            for o, n in zip(old, new)]
        assert batched.p_value is None


@pytest.mark.parametrize("n", [10, 30])
@pytest.mark.parametrize("test", list(StatTest))
def test_null_rate_stays_near_alpha(test, n):
    """Rows of two samples from one Gaussian are flagged at about alpha:
    within 4 binomial standard errors for t and mann-whitney, and at most
    alpha for ci, whose interval overlap is conservative."""
    rows, alpha = 4000, 0.01
    old, new = np.random.default_rng(n).normal(100.0, 1.0, size=(2, rows, n))
    share = decide(old, new, DecisionConfig(test=test, alpha=alpha)).changed.mean()
    if test is StatTest.CI_OVERLAP:
        assert share <= alpha
    else:
        assert abs(share - alpha) <= 4 * math.sqrt(alpha * (1 - alpha) / rows), share


def test_decide_takes_a_test_given_by_its_value():
    old, new = [1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 9.0]
    for test in StatTest:
        by_value = DecisionConfig(test=test.value, alpha=0.05)
        assert decide(old, new, by_value) == decide(old, new, DecisionConfig(test, 0.05))


def test_decide_rejects_mismatched_or_short_batches():
    with pytest.raises(ValueError, match="two batches of R rows"):
        decide(np.ones((3, 4)), np.ones((2, 4)), WELCH)
    with pytest.raises(ValueError, match="at least 2 values per sample"):
        decide(np.ones((3, 1)), np.ones((3, 4)), WELCH)


@pytest.mark.parametrize("module", ["perfdelta.executor", "perfdelta.cli"])
def test_import_does_not_load_scipy(module):
    code = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    loaded = json.loads(proc.stdout)
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    if module == "perfdelta.executor":
        # The VM child needs none of the analysis code.
        assert "perfdelta.stats" not in loaded
    else:
        # A ``compare`` process loads only what it runs: model and stats.
        assert [m for m in loaded if m.split(".")[0] == "click"] == []
        assert {m for m in loaded if m.startswith("perfdelta")} == {
            "perfdelta", "perfdelta.cli", "perfdelta.model", "perfdelta.stats"
        }


@pytest.mark.parametrize("test", ["t", "ci", "mann-whitney"])
def test_compare_runs_where_scipy_cannot_be_imported(tmp_path, test):
    paths = []
    for name, base in (("old", 1000), ("new", 1500)):
        path = tmp_path / f"{name}.json"
        path.write_bytes(serialize_series(make_series([[base + d] for d in (0, 7, -5, 3, -2)])))
        paths.append(str(path))
    code = (
        'import sys; sys.modules["scipy"] = sys.modules["click"] = None; '
        "from perfdelta.cli import main; main()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "compare", *paths, "--test", test],
        capture_output=True, text=True,
    )
    assert proc.returncode == 10, proc.stderr
    assert json.loads(proc.stdout)["changed"] is True


# --- quantiles -------------------------------------------------------------


def test_normal_quantile_anchor():
    assert normal_quantile(0.995) == pytest.approx(2.575829304, abs=1e-8)
    assert normal_quantile(0.995) == pytest.approx(
        oracles.normal_quantile_highprecision(0.995), abs=1e-9
    )


def test_normal_cdf_symmetry():
    assert normal_cdf(0.0) == 0.5


def test_normal_inverse_round_trip():
    for x in np.linspace(-6, 6, 121):
        assert normal_quantile(normal_cdf(x)) == pytest.approx(x, abs=1e-8)


def test_normal_cdf_accuracy():
    for x in np.linspace(-6, 6, 61):
        assert normal_cdf(x) == pytest.approx(
            oracles.normal_cdf_highprecision(x), abs=1e-12
        )


def test_t_quantile_basics():
    # t with huge df approaches the normal quantile.
    assert t_quantile(0.995, 10**7) == pytest.approx(normal_quantile(0.995), abs=1e-4)
    with pytest.raises(ValueError, match="t_quantile requires p in"):
        t_quantile(1.5, 10)
    with pytest.raises(ValueError, match="normal_quantile requires p in"):
        normal_quantile(0.0)


def test_t_quantile_cauchy_closed_form():
    for p in np.linspace(0.01, 0.99, 99):
        assert t_quantile(p, 1) == pytest.approx(math.tan(math.pi * (p - 0.5)), rel=1e-12)


def test_t_sf_two_degrees_closed_form():
    for x in np.linspace(0.0, 20.0, 201):
        want = 0.5 * (1.0 - x / math.sqrt(x * x + 2.0))
        assert _t_sf(x, 2) == pytest.approx(want, rel=1e-12)


def test_t_sf_equals_the_whole_batch_reference_kernel():
    """The scalar continued fraction and its single log B pass do each
    element's arithmetic as the whole-batch array kernel in ``oracles``
    does, so every tail agrees bit for bit, Stirling's branch (df >= 200)
    included."""
    grid = np.meshgrid(np.geomspace(1e-3, 1e3, 25), np.geomspace(1.0, 1e4, 25))
    rng = np.random.default_rng(26)
    seeded = (rng.exponential(3.0, 20_000) * rng.choice([1e-3, 1.0, 30.0], 20_000),
              np.exp(rng.uniform(0.0, math.log(1e4), 20_000)))
    edges = np.meshgrid([0.0, 1e-300, 0.5, 40.0], [1.0, 1e6])
    for x, df in ([g.ravel() for g in grid], seeded, [e.ravel() for e in edges]):
        tails = np.array([_t_sf(a, b) for a, b in zip(x.tolist(), df.tolist())])
        assert tails.tobytes() == oracles.t_sf_whole_batch(x, df).tobytes()


@pytest.mark.parametrize("b", [0.5, 7.0, 99.5, 100.0, 2500.0])
def test_log_beta_is_symmetric_bit_for_bit(b):
    """``_betainc`` takes log B before its swap, which holds only if
    exchanging the arguments changes no bit, on both sides of the Stirling
    threshold at 100."""
    a = np.concatenate((np.geomspace(0.5, 99.0, 40), [99.5, 100.0, 100.5],
                        np.geomspace(101.0, 1e5, 40)))
    for u, v in zip(a.tolist(), a[::-1].tolist()):
        assert _log_beta(u, b).hex() == _log_beta(b, u).hex()
        assert _log_beta(u, v).hex() == _log_beta(v, u).hex()


@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05])
def test_t_quantile_is_accurate_to_a_tenth_of_the_screen_margin(alpha):
    """A batch screens Welch rows by t_quantile(1 - alpha / 2, k) with a
    relative margin of 1e-9, which holds only while the quantile is ten
    times closer than that at every integer df it looks up."""
    for df in range(1, 201):
        assert t_quantile(1.0 - alpha / 2.0, df) == pytest.approx(
            oracles.t_quantile_highprecision(1.0 - alpha / 2.0, df), rel=1e-10, abs=0)


@pytest.mark.parametrize("df", [1, 2.5, 7, 30, 1000.5])
def test_t_quantile_symmetry(df):
    # Dyadic p, so 1 - p is exact and both calls see the same tail.
    for p in [k / 64 for k in range(1, 64)] + [2.0**-20, 2.0**-40]:
        assert t_quantile(1.0 - p, df) == -t_quantile(p, df)


def test_t_tail_and_quantile_match_incomplete_beta_oracle():
    rng = random.Random(41)
    tails = []
    for i in range(100):
        df = math.exp(rng.uniform(0.0, math.log(13_000)))
        # x runs from 0 out to where the tail is below 1e-30.
        x_max = -oracles.t_quantile_highprecision(1e-31, df)
        x = math.exp(rng.uniform(math.log(1e-3), math.log(x_max)))
        x = {0: 0.0, 1: x_max}.get(i % 10, x)
        tail = oracles.t_sf_highprecision(x, df)
        tails.append(tail)
        assert _t_sf(x, df) == pytest.approx(tail, rel=1e-10)
        p = tail if i % 2 else 1.0 - tail
        if 0.0 < p < 1.0 and p != 0.5:
            assert t_quantile(p, df) == pytest.approx(
                oracles.t_quantile_highprecision(p, df), rel=1e-10
            )
    assert min(tails) < 1e-30 and max(tails) == 0.5
