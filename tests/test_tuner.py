import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from conftest import make_series, reply_with
from perfdelta import tuner
from perfdelta.executor import FakeClock
from perfdelta.harness import CampaignError
from perfdelta.model import DecisionConfig, StatTest, WorkloadKind, to_csv
from perfdelta.power import type_ii_error
from perfdelta.stats import per_vm_means, summarize, window_matrix
from perfdelta.tuner import (
    F1Grid,
    GridCell,
    TunerPlan,
    estimate_f1,
    make_synthetic_pool,
    pool_from_series,
    record_pool,
    report_to_document,
    select_configuration,
    tune,
)

MW = DecisionConfig(test=StatTest.MANN_WHITNEY, alpha=0.01)


def small_plan(**overrides):
    base = dict(
        workload_kinds=(WorkloadKind.ADD,),
        size_s=100,
        delta_ops=10,
        repetitions_grid=(1000,),
        vm_grid=(5, 10),
        iteration_grid=(3, 5),
        max_vms=10,
        max_iterations=5,
        resamples=50,
        decision=MW,
        seed=1,
        synthetic_gamma=3.0,
    )
    base.update(overrides)
    return TunerPlan(**base)


def cell(vms, iterations, repetitions, f1):
    return GridCell(vms, iterations, repetitions, f1, tp=0, fp=0, fn=0, tn=0)


# --- plan validation -------------------------------------------------------


def test_plan_invariants():
    with pytest.raises(ValueError):
        small_plan(vm_grid=(50,))
    with pytest.raises(ValueError):
        small_plan(iteration_grid=(50,))
    with pytest.raises(ValueError):
        small_plan(resamples=0)
    with pytest.raises(ValueError):
        small_plan(workload_kinds=())
    for delta in ("delta_ops", "delta_ns"):
        with pytest.raises(ValueError, match="deltas must be >= 0"):
            small_plan(**{delta: -1})
    for name, repeated in (("workload_kinds", (WorkloadKind.ADD, WorkloadKind.WRITE,
                                                WorkloadKind.ADD)),
                           ("vm_grid", (2, 3, 2)), ("iteration_grid", (1, 1)),
                           ("repetitions_grid", (5, 5))):
        with pytest.raises(ValueError, match=f"{name} must not repeat a value"):
            small_plan(**{name: repeated})
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must be in"):
            small_plan(seed=seed)
    assert small_plan(workload_kinds=("add", "write")).workload_kinds == (
        WorkloadKind.ADD, WorkloadKind.WRITE)
    with pytest.raises(ValueError, match="divide"):
        small_plan(workload_kinds=("divide",))


@pytest.mark.parametrize("grid,value", [
    ("vm_grid", ()), ("vm_grid", (1, 5)), ("vm_grid", (0,)),
    ("iteration_grid", ()), ("iteration_grid", (0, 5)), ("iteration_grid", (-1, 5)),
    ("repetitions_grid", ()), ("repetitions_grid", (0,)),
])
def test_plan_rejects_bad_grids_up_front(grid, value):
    with pytest.raises(ValueError, match=grid):
        small_plan(**{grid: value})


# --- pools -----------------------------------------------------------------


def test_pool_from_series_layout():
    base = make_series([[100, 200], [300, 400]], repetitions=10,
                       warmup_ns_per_vm=[[10, 20], [30, 40]])
    changed = make_series([[500, 600], [700, 800]], repetitions=10,
                          warmup_ns_per_vm=[[50, 60], [70, 80]])
    pool = pool_from_series(base, changed)
    assert pool.base.shape == pool.changed.shape == (2, 4)
    assert pool.base[0].tolist() == [10.0, 20.0, 100.0, 200.0]
    assert pool.changed[1].tolist() == [70.0, 80.0, 700.0, 800.0]
    assert pool.repetitions == 10


def test_pool_rejects_mismatched_repetitions():
    from conftest import make_series

    with pytest.raises(ValueError):
        pool_from_series(
            make_series([[1], [2]], repetitions=10),
            make_series([[1], [2]], repetitions=20),
        )


def test_record_pool_depth_and_persistence(tmp_path):
    plan = small_plan(synthetic_gamma=None, max_vms=2, vm_grid=(2,),
                      iteration_grid=(3,), max_iterations=3, size_s=4)
    pools = record_pool(plan, WorkloadKind.ADD, clock=FakeClock(step_ns=1000),
                        out_dir=tmp_path)
    pool = pools[1000]
    # 2 * max(vm_grid) VMs, each with 3 warmup + 3 measurement records
    assert pool.base.shape == (4, 6)
    assert pool.changed.shape == (4, 6)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["pool_add_r1000_base.json", "pool_add_r1000_changed.json"]


def test_record_pool_names_the_pool_a_failed_start_was_recording(monkeypatch):
    reply_with(monkeypatch, "")
    plan = small_plan(synthetic_gamma=None, max_vms=2, vm_grid=(2,),
                      iteration_grid=(3,), max_iterations=3, size_s=4)
    with pytest.raises(CampaignError) as excinfo:
        record_pool(plan, WorkloadKind.ADD, clock=FakeClock(step_ns=1000))
    message = str(excinfo.value)
    assert message.startswith("executor failed for old vm 0: ")
    assert "kind=add repetitions=1000: executor produced no result line" in message
    assert (excinfo.value.vm_index, excinfo.value.version) == (0, "old")


def test_synthetic_pool_shape_and_offset():
    pool = make_synthetic_pool(gamma=3.0, vms=40, depth=10, repetitions=100, seed=5)
    assert pool.base.shape == pool.changed.shape == (40, 10)
    # Windows of 100 repetitions, each drawn in ns per repetition.
    assert (pool.changed.mean() - pool.base.mean()) / 100 == pytest.approx(3.0, abs=0.8)


# --- estimate_f1 -----------------------------------------------------------


def test_degenerate_always_changed_decision(monkeypatch):
    class Fixed:
        def __init__(self, changed):
            self.changed = changed

    # decide gets the cell's trials as one batch and answers one flag a row.
    monkeypatch.setattr(tuner, "decide", lambda old, new, decision: Fixed(np.full(len(old), True)))
    pool = make_synthetic_pool(1.0, 12, 6, 100, seed=2)
    c = estimate_f1(pool, 5, 3, MW, resamples=60, seed=0)
    assert (c.tp, c.fp, c.fn, c.tn) == (60, 60, 0, 0)
    assert c.f1 == pytest.approx(2 / 3)

    monkeypatch.setattr(tuner, "decide", lambda old, new, decision: Fixed(np.full(len(old), False)))
    c = estimate_f1(pool, 5, 3, MW, resamples=60, seed=0)
    assert (c.tp, c.fp, c.fn, c.tn) == (0, 0, 60, 60)
    assert c.f1 == 0.0


def test_f1_arithmetic_for_counts():
    assert tuner._cell(10, 5, 100, 99, 1, 1, 99) == GridCell(10, 5, 100, 198 / 200, 99, 1, 1, 99)
    assert tuner._cell(10, 5, 100, 99, 1, 1, 99).f1 == pytest.approx(0.99)
    assert tuner._cell(10, 5, 100, 0, 0, 0, 50).f1 == 0.0


def test_counter_conservation():
    pool = make_synthetic_pool(1.0, 20, 8, 100, seed=3)
    c = estimate_f1(pool, 8, 4, MW, resamples=40, seed=7)
    assert c.tp + c.fn == 40
    assert c.fp + c.tn == 40


def test_strong_effect_reaches_threshold():
    pool = make_synthetic_pool(3.0, 60, 20, 1000, seed=1)
    c = estimate_f1(pool, 30, 10, MW, resamples=500, seed=1)
    assert c.f1 >= 0.99


def test_estimate_f1_bounds():
    pool = make_synthetic_pool(1.0, 10, 6, 100, seed=4)
    with pytest.raises(ValueError):
        estimate_f1(pool, 11, 3, MW, resamples=5, seed=0)
    with pytest.raises(ValueError):
        estimate_f1(pool, 5, 4, MW, resamples=5, seed=0)
    # A same-version trial splits the base pool into two disjoint subsets.
    shallow = make_synthetic_pool(1.0, 9, 6, 100, seed=4)
    with pytest.raises(ValueError, match="10 base"):
        estimate_f1(shallow, 5, 3, MW, resamples=5, seed=0)


def test_estimate_f1_deterministic():
    pool = make_synthetic_pool(1.5, 20, 8, 100, seed=9)
    a = estimate_f1(pool, 8, 4, MW, resamples=80, seed=13)
    b = estimate_f1(pool, 8, 4, MW, resamples=80, seed=13)
    assert a == b


@pytest.mark.parametrize("gamma", [1.0, 0.0])
@pytest.mark.parametrize("test", list(StatTest))
def test_batched_cell_counts_match_per_round_oracle(test, gamma):
    pool = make_synthetic_pool(gamma, 24, 10, 100, seed=17)
    decision = DecisionConfig(test=test, alpha=0.05)
    # 8 VMs take the exact Mann-Whitney path, 14 its limit, 24 the approximation.
    for vms, iterations in ((4, 2), (7, 5), (12, 3)):
        got = estimate_f1(pool, vms, iterations, decision, resamples=60, seed=5)
        want = oracles.estimate_f1_counts_per_round(pool, vms, iterations, decision, 60, 5)
        assert (got.tp, got.fp, got.fn, got.tn) == want


def test_resampling_trials_are_not_degenerate():
    """Seeded: each trial row draws distinct VMs, changed-pair trials draw
    changed VMs, a same-version trial's halves are disjoint, and every base
    VM leads a row about equally often."""
    n_base, n_changed, vms, resamples = 12, 9, 4, 10_000
    # Every window of base VM j reads 10 * j ns and of changed VM j
    # 10 * (n_base + j) ns, so a decided value is its VM's index.
    windows = np.arange(n_base + n_changed, dtype=float)[:, None] * np.full(4, 10.0)
    pool = tuner.MeasurementPool(windows[:n_base], windows[n_base:], repetitions=10)
    old, new = (x.astype(int) for x in
                oracles.record_trials(pool, vms, 2, MW, resamples, seed=3))
    assert old.shape == new.shape == (2 * resamples, vms)
    for sample in (old, new):
        assert (np.diff(np.sort(sample, axis=1), axis=1) > 0).all()
    assert ((old >= 0) & (old < n_base)).all()
    assert ((new[:resamples] >= n_base) & (new[:resamples] < n_base + n_changed)).all()
    assert (new[resamples:] < n_base).all()
    same = np.sort(np.concatenate((old[resamples:], new[resamples:]), axis=1), axis=1)
    assert (np.diff(same, axis=1) > 0).all()
    # Column 0 over all 2 * resamples rows: within 4 binomial standard errors.
    rows, share = len(old), 1 / n_base
    counts = np.bincount(old[:, 0], minlength=n_base)
    assert (abs(counts - rows * share) <= 4 * math.sqrt(rows * share * (1 - share))).all(), counts


def _index_pool(n_base, n_changed, repetitions=10):
    """A pool whose decided per-VM value is its VM's index: base VM j reads
    j and changed VM j reads n_base + j, at every window."""
    windows = np.arange(n_base + n_changed, dtype=float)[:, None] * np.full(4, repetitions)
    return tuner.MeasurementPool(windows[:n_base], windows[n_base:], repetitions)


def _trial_indices(pool, vms, iterations=2, resamples=500, seed=3):
    old, new = oracles.record_trials(pool, vms, iterations, MW, resamples, seed)
    return old.astype(int), new.astype(int)


def test_a_smaller_cell_takes_column_prefixes_of_a_larger_cells_rows():
    pool, resamples = _index_pool(14, 9), 500
    small_old, small_new = _trial_indices(pool, 3)
    large_old, large_new = _trial_indices(pool, 7)
    assert (small_old == large_old[:, :3]).all()
    assert (small_new[:resamples] == large_new[:resamples, :3]).all()
    # A same-version trial is the first 2 * vms VMs of one base row.
    small_same = np.concatenate((small_old, small_new), axis=1)[resamples:]
    large_same = np.concatenate((large_old, large_new), axis=1)[resamples:]
    assert (small_same == large_same[:, :6]).all()


def test_cells_at_other_iterations_and_repetitions_read_the_same_rows():
    old, new = _trial_indices(_index_pool(12, 9), 4, iterations=2)
    for pool, iterations in ((_index_pool(12, 9), 1), (_index_pool(12, 9, repetitions=1000), 2)):
        other_old, other_new = _trial_indices(pool, 4, iterations)
        assert (other_old == old).all() and (other_new == new).all()


def test_shared_trial_rows_are_cached_read_only_and_small():
    base, changed = tuner._trial_rows(3, 12, 9, 50)
    assert tuner._trial_rows(3, 12, 9, 50)[0] is base
    assert base.shape == (100, 12) and changed.shape == (50, 9)
    assert base.dtype == changed.dtype == np.uint8
    for rows in (base, changed):
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0
    assert (np.sort(changed, axis=1) == np.arange(12, 21)).all()


def test_another_seed_draws_other_rows():
    pool = _index_pool(12, 9)
    old, new = _trial_indices(pool, 4, seed=3)
    other_old, other_new = _trial_indices(pool, 4, seed=4)
    assert (old != other_old).any() and (new != other_new).any()


#: Bound on the sd, over draw seeds, of F1(20 iterations) - F1(10 iterations)
#: at one pool and 10 VMs.  Shared rows keep it well under the monotonicity
#: tolerance; a draw per cell measured 0.006-0.010 on this pool.
SHARED_DRAW_DIFFERENCE_SD_BOUND = tuner.MONOTONICITY_TOLERANCE / 2


@pytest.mark.parametrize("test", list(StatTest))
def test_shared_rows_cancel_round_noise_in_iteration_differences(test):
    """Seeded: the monotonicity rule compares cells that differ only in
    iterations, and round noise must not decide it."""
    pool = make_synthetic_pool(1.0, 60, 60, 1000, seed=0)
    decision = DecisionConfig(test=test, alpha=0.01)
    differences = [
        estimate_f1(pool, 10, 20, decision, 10_000, seed).f1
        - estimate_f1(pool, 10, 10, decision, 10_000, seed).f1
        for seed in range(12)
    ]
    assert np.std(differences, ddof=1) < SHARED_DRAW_DIFFERENCE_SD_BOUND, differences


def test_f1_nondecreasing_in_vms_with_slack():
    pool = make_synthetic_pool(1.2, 60, 8, 100, seed=21)
    f1s = [
        estimate_f1(pool, vms, 4, MW, resamples=400, seed=21).f1
        for vms in (5, 10, 20, 30)
    ]
    for smaller, larger in zip(f1s, f1s[1:]):
        assert larger >= smaller - 0.02, f1s


# --- the tuner's per-VM value is compare's ---------------------------------


@st.composite
def series_pairs(draw):
    """A base series of 2k VMs and a changed one of k VMs, both with the same
    repetitions and warmup/measurement cut, and an iteration count i with
    2i <= warmup + measurement."""
    k = draw(st.integers(2, 4))
    depth = draw(st.integers(2, 12))
    warmup = draw(st.integers(0, depth - 1))
    repetitions = draw(st.integers(1, 10**6))
    window = st.integers(0, 2**53)

    def series(vms):
        rows = draw(st.lists(st.lists(window, min_size=depth, max_size=depth),
                             min_size=vms, max_size=vms))
        return make_series([r[warmup:] for r in rows], repetitions, [r[:warmup] for r in rows])

    return series(2 * k), series(k), draw(st.integers(1, depth // 2))


def _windows(series, start, stop):
    return [(run.warmup_ns + run.measurement_ns)[start:stop] for run in series.vm_runs]


def _recut(series, i):
    """The series' first 2i windows of each VM, as warmup i plus measurement i."""
    return make_series(_windows(series, i, 2 * i), series.config.repetitions,
                       _windows(series, 0, i))


def _decided_values(pool, vms, iterations):
    """Sorted per-VM values ``estimate_f1`` decides on, base and changed, for a
    pool of 2 * vms base and vms changed VMs: one round's changed-pair trial
    draws every changed VM and its same-version trial every base VM."""
    old, new = oracles.record_trials(pool, vms, iterations, MW, resamples=1, seed=0)
    return sorted(old[1].tolist() + new[1].tolist()), sorted(new[0].tolist())


@settings(max_examples=200, deadline=None)
@given(series_pairs())
def test_tuner_decides_on_the_per_vm_means_compare_decides_on(pair):
    base, changed, i = pair
    refused = [max(map(sum, _windows(s, i, 2 * i))) >= 2**53 for s in (base, changed)]
    if any(refused):
        # A VM's total that a float64 sum would round is refused by both paths.
        with pytest.raises(ValueError, match=r"2\*\*53"):
            _decided_values(pool_from_series(base, changed), changed.config.vms, i)
        for series in (s for s, r in zip((base, changed), refused) if r):
            with pytest.raises(ValueError, match=r"2\*\*53"):
                summarize(_recut(series, i))
        return
    decided_base, decided_changed = _decided_values(
        pool_from_series(base, changed), changed.config.vms, i)
    # Bit for bit: the series measured at the cell's configuration.
    assert decided_base == sorted(summarize(_recut(base, i)).per_vm_means_ns)
    assert decided_changed == sorted(summarize(_recut(changed, i)).per_vm_means_ns)
    exact, *_ = oracles.summary_exact(_windows(base, i, 2 * i), base.config.repetitions)
    got = per_vm_means(window_matrix(base), i, 2 * i, base.config.repetitions)
    for value, want in zip(got.tolist(), exact, strict=True):
        assert abs(value - want) <= 2 * math.ulp(want), (value, want)


# --- selection rules -------------------------------------------------------


def test_selection_prefers_lower_cost_product():
    grid = F1Grid(cells=(
        cell(30, 49, 100_000, 0.995),
        cell(30, 49, 10_000, 0.992),
    ))
    result = select_configuration(grid)
    assert result.feasible
    assert result.cell.repetitions == 10_000  # 49*10k beats 49*100k


def test_selection_tie_broken_by_larger_repetitions():
    grid = F1Grid(cells=(
        cell(30, 490, 10_000, 0.995),
        cell(30, 49, 100_000, 0.992),
    ))
    result = select_configuration(grid)
    assert result.cell.repetitions == 100_000


def test_selection_minimizes_vms_first():
    grid = F1Grid(cells=(
        cell(10, 49, 100_000, 0.991),
        cell(30, 5, 10, 0.999),
    ))
    assert select_configuration(grid).cell.vms == 10


def test_selection_no_feasible_cell():
    grid = F1Grid(cells=(cell(10, 10, 100, 0.5), cell(20, 10, 100, 0.9)))
    result = select_configuration(grid)
    assert not result.feasible
    assert result.config is None
    assert result.cell.f1 == 0.9  # best found, for diagnostics


def test_selection_of_an_empty_grid_is_infeasible():
    result = select_configuration(F1Grid(cells=()))
    assert (result.feasible, result.reason, result.config, result.cell) == (
        False, "empty grid", None, None)


@pytest.mark.parametrize("cells, chosen", [
    pytest.param((cell(10, 10, 100, 0.995),
                  cell(10, 20, 100, 0.95),  # large drop disqualifies the 10-iteration cell
                  cell(20, 10, 100, 0.995),
                  cell(20, 20, 100, 0.993)), 2, id="unstable"),
    # A drop at another VM or repetition count says nothing about a cell.
    pytest.param((cell(10, 10, 100, 0.995), cell(20, 20, 100, 0.95)), 0, id="other-vms"),
    pytest.param((cell(10, 10, 100, 0.995), cell(10, 20, 1000, 0.95)), 0,
                 id="other-repetitions"),
])
def test_selection_monotonicity_rule_excludes_unstable_cell(cells, chosen):
    result = select_configuration(F1Grid(cells=cells))
    assert result.feasible
    assert result.cell == cells[chosen]


def test_selection_order_independent():
    cells = (
        cell(10, 10, 100, 0.991),
        cell(10, 20, 100, 0.992),
        cell(20, 10, 100, 0.999),
        cell(20, 20, 1000, 0.995),
    )
    baseline = select_configuration(F1Grid(cells=cells))
    for shift in range(1, len(cells)):
        permuted = F1Grid(cells=cells[shift:] + cells[:shift])
        assert select_configuration(permuted).cell == baseline.cell


def test_selected_config_mirrors_cell():
    grid = F1Grid(cells=(cell(30, 49, 100_000, 0.995),))
    config = select_configuration(grid).config
    assert config.vms == 30
    assert config.warmup_iterations == config.measurement_iterations == 49
    assert config.repetitions == 100_000


# --- tune ------------------------------------------------------------------


def test_tune_grid_dimensions_and_csv():
    plan = small_plan()
    report = tune(plan)
    expected = len(plan.vm_grid) * len(plan.iteration_grid) * len(plan.repetitions_grid)
    assert len(report.average_grid.cells) == expected
    assert set(report.per_workload_grids) == {"add"}
    columns = [f.name for f in dataclasses.fields(GridCell)]
    rows = [dataclasses.astuple(c) for c in report.average_grid.cells]
    csv_lines = to_csv(columns, rows).strip().splitlines()
    assert csv_lines[0] == "vms,iterations,repetitions,f1,tp,fp,fn,tn"
    assert len(csv_lines) == expected + 1
    assert [float(line.split(",")[3]) for line in csv_lines[1:]] == [r[3] for r in rows]


def test_tune_deterministic_documents():
    a = report_to_document(tune(small_plan()))
    b = report_to_document(tune(small_plan()))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_tune_selection_consistent_with_analytic_power():
    plan = small_plan(resamples=200)
    report = tune(plan)
    assert report.selection.feasible
    beta = type_ii_error(plan.synthetic_gamma, report.selection.config.vms, MW.alpha)
    assert beta <= 0.01


def test_average_grid_combines_workloads():
    plan = small_plan(workload_kinds=(WorkloadKind.ADD, WorkloadKind.WRITE))
    report = tune(plan)
    assert set(report.per_workload_grids) == {"add", "write"}
    first_avg = report.average_grid.cells[0]
    parts = [g.cells[0] for g in report.per_workload_grids.values()]
    assert first_avg.tp == sum(p.tp for p in parts)
    grids = [*report.per_workload_grids.values(), report.average_grid]
    for c in (c for grid in grids for c in grid.cells):
        assert c.f1 == 2 * c.tp / (2 * c.tp + c.fp + c.fn)


def test_average_grid_scores_the_pooled_counts():
    """The average cell is the F1 of the kinds' summed counts (15, 5, 0:
    6/7), not the mean of their F1 values (1 and 2/3: 5/6)."""
    one = F1Grid(cells=(GridCell(10, 5, 100, 1.0, tp=10, fp=0, fn=0, tn=10),))
    other = F1Grid(cells=(GridCell(10, 5, 100, 2 / 3, tp=5, fp=5, fn=0, tn=5),))
    assert tuner._average_grids([one, other]).cells == (
        GridCell(10, 5, 100, 30 / 35, tp=15, fp=5, fn=0, tn=15),)


def test_synthetic_plan_scores_one_grid_for_every_kind(monkeypatch):
    """Synthetic pools ignore the workload kind, so a second kind adds no
    ``estimate_f1`` call and gets the first kind's grid."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return estimate_f1(*args, **kwargs)

    monkeypatch.setattr(tuner, "estimate_f1", counting)
    one = tune(small_plan())
    one_calls = len(calls)
    calls.clear()
    two = tune(small_plan(workload_kinds=(WorkloadKind.ADD, WorkloadKind.WRITE)))
    assert len(calls) == one_calls == 4
    assert two.per_workload_grids["write"] == two.per_workload_grids["add"]
    assert two.per_workload_grids["add"] == one.per_workload_grids["add"]


def test_tune_calls_the_traced_benchmark_wrappers_once_per_cell(monkeypatch):
    """The traced benchmark replaces ``tuner.estimate_f1`` and
    ``tuner.decide`` with wrappers of exactly these signatures, and divides
    by the rounds of each ``estimate_f1`` call; a signature change would
    break only that run."""
    calls = {"estimate_f1": [], "decide": []}
    estimate, decide = tuner.estimate_f1, tuner.decide

    def traced_decide(old, new, decision):
        calls["decide"].append(len(old))
        return decide(old, new, decision)

    def traced_estimate_f1(pool, vms, iterations, decision, resamples, seed):
        calls["estimate_f1"].append((vms, iterations, resamples))
        return estimate(pool, vms, iterations, decision, resamples, seed)

    monkeypatch.setattr(tuner, "decide", traced_decide)
    monkeypatch.setattr(tuner, "estimate_f1", traced_estimate_f1)
    plan = small_plan()
    tune(plan)
    assert calls["estimate_f1"] == [(vms, iterations, plan.resamples)
                                    for vms in plan.vm_grid for iterations in plan.iteration_grid]
    assert calls["decide"] == [2 * plan.resamples] * len(calls["estimate_f1"])


def test_synthetic_pools_hold_twice_the_largest_grid_value(monkeypatch):
    """A pool's size follows the VM grid alone, not a larger ``max_vms``."""
    drawn = []

    def recording(**kwargs):
        drawn.append(kwargs["vms"])
        return make_synthetic_pool(**kwargs)

    monkeypatch.setattr(tuner, "make_synthetic_pool", recording)
    tune(small_plan(max_vms=50, vm_grid=(2, 3)))
    assert drawn == [6]
