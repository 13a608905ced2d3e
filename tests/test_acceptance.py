"""Acceptance gate: one printed pass/fail line per criterion.

Each test prints its verdict directly to the terminal (bypassing capture) so
a full run shows the per-criterion status lines regardless of verbosity.
"""

import json
import random

import numpy as np
import pytest
from click.testing import CliRunner

import oracles
from conftest import RUN_HARDWARE, make_series, record_launches
from perfdelta.cli import main as cli_main
from perfdelta.model import (
    DecisionConfig,
    MeasurementConfig,
    StatTest,
    WorkloadKind,
    WorkloadSpec,
    deserialize_series,
    serialize_series,
)
from perfdelta.power import required_vms, type_ii_error
from perfdelta.stats import (
    decide,
    mann_whitney_approx_p,
    mann_whitney_exact_p,
    normal_cdf,
    normal_quantile,
    per_vm_means,
    summarize,
    window_matrix,
)
from perfdelta.tuner import (
    F1Grid,
    GridCell,
    estimate_f1,
    make_synthetic_pool,
    select_configuration,
)

MW = DecisionConfig(test=StatTest.MANN_WHITNEY, alpha=0.01)
WELCH = DecisionConfig(test=StatTest.WELCH_T, alpha=0.01)


@pytest.fixture
def verdict(capsys):
    def emit(criterion: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"[acceptance] criterion {criterion}: {status}{suffix}")
        assert ok, f"criterion {criterion} failed{suffix}"

    return emit


def test_criterion_1_power_model_anchors(verdict):
    checks = [
        abs(type_ii_error(1.0, 30, 0.01) - 0.0973) <= 0.0005,
        abs(type_ii_error(1.0, 50, 0.01) - 0.0076) <= 0.0005,
        abs(type_ii_error(0.2, 50, 0.01) - 0.942) <= 0.001,
        4806 <= required_vms(0.1, 0.01, 0.01) <= 4808,
    ]
    verdict("1 power-model anchors", all(checks))


def test_criterion_2_exact_test_oracle_equivalence(verdict):
    rng = random.Random(2024)
    worst_exact = 0.0
    for _ in range(1000):
        n1 = rng.randint(2, 10)
        n2 = rng.randint(2, min(12, 14 - n1))
        values = rng.sample(range(10**6), n1 + n2)
        old = [float(v) for v in values[:n1]]
        new = [float(v) for v in values[n1:]]
        got = decide(old, new, MW).p_value
        want = oracles.mann_whitney_exact_bruteforce(old, new)
        worst_exact = max(worst_exact, abs(got - want))

    # Approximation band: both sizes >= 5 (see the decisions ledger on the
    # small-sample scope of the normal approximation).
    worst_band = 0.0
    for _ in range(1000):
        n1 = rng.randint(5, 9)
        n2 = rng.randint(5, min(9, 14 - n1))
        values = rng.sample(range(10**6), n1 + n2)
        ranks = {v: i + 1 for i, v in enumerate(sorted(values))}
        u1 = sum(ranks[v] for v in values[:n1]) - n1 * (n1 + 1) / 2
        u_max = max(u1, n1 * n2 - u1)
        gap = abs(
            mann_whitney_exact_p(u_max, n1, n2)
            - mann_whitney_approx_p(u_max, n1, n2, [])
        )
        worst_band = max(worst_band, gap)

    verdict(
        "2 exact-test oracle equivalence",
        worst_exact <= 1e-12 and worst_band <= 0.02,
        f"max exact gap {worst_exact:.2e}, max approx gap {worst_band:.4f}",
    )


def test_criterion_3_welch_verification(verdict):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        n1 = int(rng.integers(2, 40))
        n2 = int(rng.integers(2, 40))
        old = list(rng.normal(100, rng.uniform(0.5, 20), n1))
        new = list(rng.normal(rng.uniform(95, 105), rng.uniform(0.5, 20), n2))
        got = decide(old, new, WELCH).p_value
        want = oracles.welch_p_highprecision(old, new)
        worst = max(worst, abs(got - want))
    equal = decide([4.0, 5.0, 6.0], [4.0, 5.0, 6.0], WELCH).p_value == 1.0
    verdict("3 Welch verification", worst <= 1e-9 and equal, f"max gap {worst:.2e}")


def test_criterion_4_quantile_accuracy(verdict):
    anchor = abs(normal_quantile(0.995) - 2.575829304) <= 1e-8
    round_trip = max(
        abs(normal_quantile(normal_cdf(x)) - x) for x in np.linspace(-6, 6, 121)
    )
    verdict(
        "4 quantile accuracy",
        anchor and round_trip <= 1e-8,
        f"round-trip error {round_trip:.2e}",
    )


def test_criterion_5_resampling_consistency(verdict):
    changed_pool = make_synthetic_pool(gamma=3.0, vms=60, depth=20, repetitions=1000, seed=5)
    cell = estimate_f1(changed_pool, 30, 10, MW, resamples=10_000, seed=5)

    null_pool = make_synthetic_pool(gamma=0.0, vms=60, depth=20, repetitions=1000, seed=5)
    null_cell = estimate_f1(null_pool, 30, 10, MW, resamples=10_000, seed=5)
    fp_rate = null_cell.fp / 10_000

    verdict(
        "5 resampling consistency",
        cell.f1 >= 0.99 and fp_rate <= 0.03,
        f"F1 {cell.f1:.4f}, null FP rate {fp_rate:.4f}",
    )


def test_criterion_6_selection_rule_conformance(verdict):
    def cell(vms, iterations, repetitions, f1):
        return GridCell(vms, iterations, repetitions, f1, 0, 0, 0, 0)

    threshold_ok = not select_configuration(
        F1Grid(cells=(cell(10, 10, 100, 0.98),))
    ).feasible

    monotonicity = select_configuration(F1Grid(cells=(
        cell(10, 10, 100, 0.995),
        cell(10, 20, 100, 0.95),
        cell(20, 10, 100, 0.995),
        cell(20, 20, 100, 0.993),
    )))
    monotonicity_ok = monotonicity.cell.vms == 20 and monotonicity.cell.iterations == 10

    product = select_configuration(F1Grid(cells=(
        cell(30, 49, 100_000, 0.995),
        cell(30, 49, 10_000, 0.992),
    )))
    product_ok = product.cell.repetitions == 10_000

    tie = select_configuration(F1Grid(cells=(
        cell(30, 490, 10_000, 0.995),
        cell(30, 49, 100_000, 0.992),
    )))
    tie_ok = tie.cell.repetitions == 100_000

    verdict(
        "6 selection-rule conformance",
        threshold_ok and monotonicity_ok and product_ok and tie_ok,
    )


def test_criterion_7_harness_structural_correctness(verdict, monkeypatch):
    from perfdelta.executor import FakeClock
    from perfdelta.harness import run_campaign, run_paired_campaign

    config = MeasurementConfig(
        vms=2, warmup_iterations=3, measurement_iterations=3, repetitions=100
    )
    workload = WorkloadSpec(kind=WorkloadKind.ADD, size=4, seed=1)
    series = run_campaign(config, workload, clock=FakeClock(step_ns=1000))
    shape_ok = len(series.vm_runs) == 2 and all(
        len(r.warmup_ns) == 3 and len(r.measurement_ns) == 3 for r in series.vm_runs
    )
    division_ok = per_vm_means(window_matrix(series), 3, 6, 100).tolist() == [10.0, 10.0]

    events = record_launches(monkeypatch)
    pair_config = MeasurementConfig(
        vms=3, warmup_iterations=1, measurement_iterations=1, repetitions=10,
        parallel_pairs=True,
    )
    run_paired_campaign(pair_config, workload, workload, clock=FakeClock(step_ns=1000))
    epochs_ok = events == [
        e
        for i in range(3)
        for e in (("spawn", 1), ("spawn", 1), ("finish", "old", i), ("finish", "new", i))
    ]

    data = serialize_series(series)
    round_trip_ok = serialize_series(deserialize_series(data)) == data

    verdict(
        "7 harness structural correctness",
        shape_ok and division_ok and epochs_ok and round_trip_ok,
    )


def test_criterion_8_desk_scale_substitution(verdict, tmp_path, capsys):
    # Part (b), CI-safe: sweep output arithmetic matches a recomputation of
    # the emitted series files.
    runner = CliRunner()
    out = tmp_path / "sweep.csv"
    series_dir = tmp_path / "series"
    result = runner.invoke(cli_main, [
        "stddev-sweep", "--workload", "add", "--sizes", "100,300",
        "--vms", "2", "--warmup", "1", "--iterations", "3", "--repetitions", "100",
        "--out", str(out), "--series-dir", str(series_dir),
    ])
    sweep_ok = result.exit_code == 0
    band_report = []
    if sweep_ok:
        for line in out.read_text().strip().splitlines()[1:]:
            _, size, mean_ns, stddev_ns, relative = line.split(",")
            series = deserialize_series(
                (series_dir / f"sweep_add_{size}.json").read_bytes()
            )
            summary = summarize(series)
            sweep_ok = sweep_ok and abs(float(mean_ns) - summary.mean_ns) <= 1e-12
            sweep_ok = sweep_ok and abs(float(relative) - summary.relative_stddev) <= 1e-12
            band_report.append(f"size {size}: sigma/mu {summary.relative_stddev:.4f}")

    if not RUN_HARDWARE:
        verdict(
            "8b sweep recomputation",
            sweep_ok,
            "; ".join(band_report) + "; part (a) needs PERFDELTA_RUN_HARDWARE_TESTS=1",
        )
        with capsys.disabled():
            print(
                "[acceptance] criterion 8a injection study: SKIPPED "
                "(hardware-timing; set PERFDELTA_RUN_HARDWARE_TESTS=1)"
            )
        return

    from perfdelta.injection import run_injection_study

    config = MeasurementConfig(
        vms=30, warmup_iterations=49, measurement_iterations=49,
        repetitions=100_000, parallel_pairs=True,
    )
    workload = WorkloadSpec(kind=WorkloadKind.ADD, size=300)
    null_report = run_injection_study(workload, 0, config, MW, trials=100, seed=8)
    changed_report = run_injection_study(workload, 500, config, MW, trials=100, seed=9)
    gamma_ok = abs(changed_report.mean_effect_size or 0.0) >= 3
    part_a = (
        null_report.detections <= 5
        and changed_report.detections >= 95
        and gamma_ok
    )
    verdict(
        "8 desk-scale substitution",
        sweep_ok and part_a,
        f"null detections {null_report.detections}/100, "
        f"injected detections {changed_report.detections}/100",
    )


def test_criterion_9_determinism(verdict, tmp_path):
    runner = CliRunner()
    args = [
        "tune", "--workload", "add", "--size", "300", "--delta", "1",
        "--vm-grid", "5,10", "--iteration-grid", "3,5", "--repetitions-grid", "1000",
        "--synthetic", "gamma=3", "--resamples", "500", "--seed", "11",
    ]
    first, second = tmp_path / "a", tmp_path / "b"
    ok = runner.invoke(cli_main, args + ["--out", str(first)]).exit_code == 0
    ok = ok and runner.invoke(cli_main, args + ["--out", str(second)]).exit_code == 0
    for name in ("heatmap_add.csv", "heatmap_average.csv", "report.json"):
        ok = ok and (first / name).read_bytes() == (second / name).read_bytes()

    series = make_series([[1], [2], [3]])
    path = tmp_path / "s.json"
    path.write_bytes(serialize_series(series))
    compare_runs = [
        runner.invoke(cli_main, ["compare", str(path), str(path)]).stdout
        for _ in range(2)
    ]
    curve_runs = [
        runner.invoke(
            cli_main, ["power", "curve", "--gammas", "1,0.5", "--vms-max", "40"]
        ).stdout
        for _ in range(2)
    ]
    ok = ok and compare_runs[0] == compare_runs[1] and curve_runs[0] == curve_runs[1]
    verdict("9 determinism", ok)
