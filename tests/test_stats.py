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
    StatsError,
    _t_sf,
    decide,
    mann_whitney_approx_p,
    mann_whitney_exact_p,
    midranks,
    normal_cdf,
    normal_quantile,
    per_vm_means,
    remove_outliers,
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


def test_summarize_single_vm_rejected():
    with pytest.raises(StatsError):
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


# --- outlier removal -------------------------------------------------------


def test_outlier_removed_when_z_exceeds_threshold():
    values = [0.0] * 100 + [50.0]
    survivors = remove_outliers(values, 3.29)
    assert survivors == [0.0] * 100  # Z of the 50 is ~9.95


def test_small_sample_cannot_contain_outliers():
    # Max possible Z for n=5 is (n-1)/sqrt(n) ~ 1.79 < 3.29.
    values = [0.0, 0.0, 0.0, 0.0, 100.0]
    assert remove_outliers(values, 3.29) == values


def test_all_equal_input_unchanged():
    assert remove_outliers([5.0, 5.0, 5.0], 3.29) == [5.0, 5.0, 5.0]


def test_outlier_removal_single_pass_preserves_order():
    values = [1.0, 2.0, 3.0, 1000.0, 2.0] + [2.0] * 50
    survivors = remove_outliers(values, 3.29)
    assert 1000.0 not in survivors
    assert survivors == [v for v in values if v != 1000.0]


def test_no_removal_below_13_points_at_default_threshold():
    rng = random.Random(3)
    for n in range(2, 13):
        values = [rng.uniform(0, 1000) for _ in range(n)]
        assert remove_outliers(values, 3.29) == values


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
    with pytest.raises(StatsError):
        decide([1.0], [1.0, 2.0], MW)


def test_outlier_policy_applied_before_test():
    old = [100.0] * 100 + [10_000.0]
    new = [100.0] * 100
    with_removal = DecisionConfig(test=StatTest.WELCH_T, alpha=0.01, outlier_z=3.29)
    assert decide(old, new, with_removal).n_old == 100


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
        exact = mann_whitney_exact_p(u_max, n1, n2)
        approx = mann_whitney_approx_p(u_max, n1, n2, [])
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


#: Few distinct values, so most draws are full of ties; signed zeros tie.
tie_heavy_values = st.lists(
    st.one_of(
        st.sampled_from([-2.5, -0.0, 0.0, 1.0, 3.25, 1e9]),
        st.floats(min_value=-1e6, max_value=1e6),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_values)
def test_midranks_match_counting_oracle(values):
    ranks, ties = midranks(values)
    want_ranks, want_ties = oracles.midranks_by_counting(values)
    assert ranks.tolist() == [float(r) for r in want_ranks]
    assert ties == want_ties


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
    st.one_of(st.none(), st.floats(1.0, 3.0)),
)
def test_batched_rows_decide_as_their_one_dimensional_calls(batch, test, alpha, outlier_z):
    old, new = batch
    decision = DecisionConfig(test=test, alpha=alpha, outlier_z=outlier_z)
    singles = []
    for row_old, row_new in zip(old.tolist(), new.tolist()):
        try:
            singles.append(decide(row_old, row_new, decision))
        except StatsError:
            singles.append(None)
    if None in singles:  # outlier removal left a row with one value
        with pytest.raises(StatsError):
            decide(old, new, decision)
        return
    batched = decide(old, new, decision)
    assert (batched.p_value is None) == (test is StatTest.CI_OVERLAP)
    for i, one in enumerate(singles):
        assert type(one.changed) is bool and type(one.statistic) is float
        assert batched.changed[i] == one.changed
        assert batched.statistic[i] == one.statistic
        assert batched.effect_size[i] == one.effect_size
        assert (batched.n_old[i], batched.n_new[i]) == (one.n_old, one.n_new)
        if one.p_value is not None:
            assert batched.p_value[i] == pytest.approx(one.p_value, rel=1e-12)
        if outlier_z is None:
            _check_row_against_oracles(old[i].tolist(), new[i].tolist(), one, test, alpha)


def test_decide_rejects_mismatched_or_short_batches():
    with pytest.raises(StatsError):
        decide(np.ones((3, 4)), np.ones((2, 4)), WELCH)
    with pytest.raises(StatsError):
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


@pytest.mark.parametrize("test", ["t", "ci", "mann-whitney"])
def test_compare_runs_where_scipy_cannot_be_imported(tmp_path, test):
    paths = []
    for name, base in (("old", 1000), ("new", 1500)):
        path = tmp_path / f"{name}.json"
        path.write_bytes(serialize_series(make_series([[base + d] for d in (0, 7, -5, 3, -2)])))
        paths.append(str(path))
    code = 'import sys; sys.modules["scipy"] = None; from perfdelta.cli import main; main()'
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
    with pytest.raises(StatsError):
        t_quantile(1.5, 10)
    with pytest.raises(StatsError):
        normal_quantile(0.0)


def test_t_quantile_cauchy_closed_form():
    for p in np.linspace(0.01, 0.99, 99):
        assert t_quantile(p, 1) == pytest.approx(math.tan(math.pi * (p - 0.5)), rel=1e-12)


def test_t_sf_two_degrees_closed_form():
    for x in np.linspace(0.0, 20.0, 201):
        want = 0.5 * (1.0 - x / math.sqrt(x * x + 2.0))
        assert _t_sf(x, 2) == pytest.approx(want, rel=1e-12)


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
