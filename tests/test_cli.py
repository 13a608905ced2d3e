import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import invoke, make_series, record_launches, reply_with
from perfdelta.model import deserialize_series, serialize_series


def write_series(path: Path, per_vm_means):
    series = make_series([[int(v)] for v in per_vm_means], repetitions=1)
    path.write_bytes(serialize_series(series))


# --- measure ---------------------------------------------------------------


def test_measure_writes_valid_series(tmp_path):
    out = tmp_path / "f.json"
    result = invoke([
        "measure", "--workload", "add", "--size", "300", "--vms", "2",
        "--warmup", "2", "--iterations", "2", "--repetitions", "10",
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    series = deserialize_series(out.read_bytes())
    assert len(series.vm_runs) == 2
    assert all(len(r.measurement_ns) == 2 for r in series.vm_runs)
    assert "mean_ns=" in result.output


def test_measure_one_vm_writes_a_series_without_a_spread_summary(tmp_path):
    out = tmp_path / "one.json"
    result = invoke([
        "measure", "--workload", "add", "--size", "10", "--vms", "1", "--warmup", "1",
        "--iterations", "2", "--repetitions", "1", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert result.stdout == "single VM measured; no spread summary\n"
    series = deserialize_series(out.read_bytes())
    assert [len(r.measurement_ns) for r in series.vm_runs] == [2]


@pytest.mark.parametrize("command, existing_dir", [
    (["measure", "--workload", "add", "--size", "10", "--vms", "1"], True),
    (["tune", "--workload", "add", "--synthetic", "gamma=3"], False),
], ids=["measure-into-a-directory", "tune-into-a-file"])
def test_an_output_of_the_wrong_kind_is_refused(tmp_path, monkeypatch, command, existing_dir):
    launches = record_launches(monkeypatch)
    out = tmp_path / "out"
    if existing_dir:
        out.mkdir()
    else:
        out.write_text("kept\n")
    result = invoke([*command, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert launches == []
    assert out.is_dir() if existing_dir else out.read_text() == "kept\n"


def test_measure_requires_out():
    result = invoke(["measure", "--workload", "add", "--size", "300"])
    assert result.exit_code == 2


def test_measure_validation_exit_code(tmp_path):
    result = invoke([
        "measure", "--workload", "add", "--size", "0", "--out", str(tmp_path / "f.json"),
    ])
    assert result.exit_code == 2


def test_measure_allocate_budget_refusal(tmp_path):
    result = invoke([
        "measure", "--workload", "allocate", "--size", "10000000",
        "--vms", "2", "--warmup", "1", "--iterations", "1",
        "--repetitions", "1000", "--out", str(tmp_path / "f.json"),
    ], env={"PERFDELTA_MEM_BUDGET_BYTES": "1000000"})
    assert result.exit_code == 2
    assert "budget" in result.stderr.lower()
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize("budget", ["abc", "1e9", "0", "-5"])
def test_a_malformed_memory_budget_is_named_before_any_start(tmp_path, monkeypatch, budget):
    """Every kind reads the budget, although only allocate is charged against it."""
    launches = record_launches(monkeypatch)
    for kind in ("add", "allocate", "write"):
        out = tmp_path / f"{kind}.json"
        result = invoke([
            "measure", "--workload", kind, "--size", "10", "--vms", "2", "--warmup", "0",
            "--iterations", "1", "--repetitions", "1", "--out", str(out),
        ], env={"PERFDELTA_MEM_BUDGET_BYTES": budget})
        assert result.exit_code == 2
        assert result.stderr == (f"error: PERFDELTA_MEM_BUDGET_BYTES must be a positive "
                                 f"integer number of bytes, got {budget!r}\n")
        assert launches == []
        assert not out.exists()


# --- compare ---------------------------------------------------------------


def test_compare_identical_series_exit_zero(tmp_path):
    write_series(tmp_path / "a.json", [1, 2, 3])
    write_series(tmp_path / "b.json", [1, 2, 3])
    result = invoke([
        "compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
    ])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)  # stdout must be a single JSON document
    assert doc["changed"] is False
    assert doc["p_value"] == 1.0


def test_compare_enumeration_example_alpha_boundary(tmp_path):
    write_series(tmp_path / "old.json", [1, 2, 3])
    write_series(tmp_path / "new.json", [10, 11, 12])
    args = ["compare", str(tmp_path / "old.json"), str(tmp_path / "new.json"),
            "--test", "mann-whitney"]

    result = invoke(args + ["--alpha", "0.01"])
    assert result.exit_code == 0
    assert json.loads(result.output)["p_value"] == pytest.approx(0.1)

    result = invoke(args + ["--alpha", "0.2"])
    assert result.exit_code == 10
    assert json.loads(result.output)["changed"] is True


def test_compare_missing_file_exit_two(tmp_path):
    write_series(tmp_path / "a.json", [1, 2, 3])
    result = invoke([
        "compare", str(tmp_path / "a.json"), str(tmp_path / "missing.json"),
    ])
    assert result.exit_code == 2


def test_compare_corrupt_file_exit_two(tmp_path):
    write_series(tmp_path / "a.json", [1, 2, 3])
    (tmp_path / "bad.json").write_text("{broken")
    result = invoke([
        "compare", str(tmp_path / "a.json"), str(tmp_path / "bad.json"),
    ])
    assert result.exit_code == 2


def test_compare_has_no_outlier_option(tmp_path):
    write_series(tmp_path / "old.json", [1, 2, 3])
    write_series(tmp_path / "new.json", [10, 11, 12])
    result = invoke([
        "compare", "--outlier-z", "2.5", str(tmp_path / "old.json"), str(tmp_path / "new.json"),
    ])
    assert result.exit_code == 2
    assert "unrecognized arguments: --outlier-z" in result.stderr
    assert result.stdout == ""


# --- power -----------------------------------------------------------------


def test_power_forward_anchor():
    result = invoke(["power", "--gamma", "1", "--alpha", "0.01", "--vms", "30"])
    assert result.exit_code == 0
    beta = float(result.output.strip().split("=")[1])
    assert beta == pytest.approx(0.0973, abs=0.0005)


def test_power_zero_gamma():
    result = invoke(["power", "--gamma", "0", "--alpha", "0.01", "--vms", "30"])
    assert result.exit_code == 0
    assert float(result.output.strip().split("=")[1]) == pytest.approx(0.995)


def test_power_inversion_anchor():
    result = invoke(["power", "--gamma", "0.1", "--alpha", "0.01", "--beta", "0.01"])
    assert result.exit_code == 0
    required = int(result.output.strip().split("=")[1])
    assert 4806 <= required <= 4808


def test_power_requires_exactly_one_direction():
    for args in (
        ["--vms", "30", "--beta", "0.1"],
        [],
        # A budget check takes both durations, and only for the VMs --beta requires.
        ["--beta", "0.01", "--seconds-per-vm", "97"],
        ["--beta", "0.01", "--budget", "5"],
        ["--vms", "30", "--budget", "5"],
        ["--vms", "30", "--seconds-per-vm", "97", "--budget", "5"],
    ):
        result = invoke(["power", "--gamma", "0.5", *args])
        assert result.exit_code == 2, args
        assert result.stdout == "", args


def test_power_feasibility_output():
    result = invoke([
        "power", "--gamma", "0.5", "--alpha", "0.01", "--beta", "0.01",
        "--seconds-per-vm", "97", "--budget", "43200",
    ])
    assert result.exit_code == 0
    assert "required_vms=193" in result.output
    assert "feasible=true" in result.output


BUDGET = ["power", "--alpha", "0.01", "--beta", "0.01"]


def test_feasibility_examples():
    for gamma, line in (("0.5", "required_vms=193 total_seconds=18721.0 feasible=true"),
                        ("0.1", "required_vms=4807 total_seconds=466279.0 feasible=false")):
        result = invoke([*BUDGET, "--gamma", gamma, "--seconds-per-vm", "97", "--budget", "43200"])
        assert result.exit_code == 0, result.stderr
        assert result.stdout == line + "\n"


def test_feasibility_boundary_is_inclusive():
    result = invoke([*BUDGET, "--gamma", "0.5", "--seconds-per-vm", "10", "--budget", "1930"])
    assert result.exit_code == 0, result.stderr
    assert result.stdout == "required_vms=193 total_seconds=1930.0 feasible=true\n"


def test_power_refuses_a_tiny_gamma_without_hanging():
    """The closed form for gamma 1e-12 is about 3e25 VMs, far above 2^53."""
    proc = subprocess.run(
        [sys.executable, "-m", "perfdelta.cli", "power", "--gamma", "1e-12", "--beta", "0.1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: gamma=1e-12 needs about 2.98e+25 VMs")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_power_curve_csv(tmp_path):
    out = tmp_path / "curve.csv"
    result = invoke([
        "power", "curve", "--gammas", "1,0.5", "--vms-min", "2", "--vms-max", "10",
        "--out", str(out),
    ])
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "gamma,vms,alpha,beta"
    assert len(lines) == 1 + 2 * 9


# --- tune ------------------------------------------------------------------

TUNE_ARGS = [
    "tune", "--workload", "add", "--size", "300", "--delta", "1",
    "--vm-grid", "5,10", "--iteration-grid", "3,5", "--repetitions-grid", "1000",
    "--synthetic", "gamma=3", "--resamples", "200", "--seed", "7",
]


def test_tune_synthetic_outputs(tmp_path):
    out = tmp_path / "tuneout"
    result = invoke(TUNE_ARGS + ["--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "heatmap_add.csv").exists()
    assert (out / "heatmap_average.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["selection"]["feasible"] is True
    assert "wall_time_seconds" not in report
    assert "wall_time_seconds=" in result.stderr
    assert "wall_time_seconds=" not in result.stdout
    rows = (out / "heatmap_add.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 2  # header + |vm_grid| * |iteration_grid|


def test_tune_synthetic_reruns_byte_identical(tmp_path):
    first, second = tmp_path / "one", tmp_path / "two"
    assert invoke(TUNE_ARGS + ["--out", str(first)]).exit_code == 0
    assert invoke(TUNE_ARGS + ["--out", str(second)]).exit_code == 0
    for name in ("heatmap_add.csv", "heatmap_average.csv", "report.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


GOLDEN_TUNE = Path(__file__).parent / "golden_tune"


@pytest.mark.parametrize("test", ["t", "mann-whitney", "ci"])
def test_tune_matches_golden_files(tmp_path, test):
    """``tune --synthetic gamma=3 --seed 0 --resamples 200`` at the default
    grids writes the bytes kept under ``golden_tune/<test>/``.  A change that
    moves a cell on purpose rewrites these files and lists the moved cells."""
    out = tmp_path / test
    result = invoke([
        "tune", "--workload", "add", "--synthetic", "gamma=3", "--seed", "0",
        "--resamples", "200", "--test", test, "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    for name in ("report.json", "heatmap_add.csv", "heatmap_average.csv"):
        assert (out / name).read_bytes() == (GOLDEN_TUNE / test / name).read_bytes(), name


def test_tune_rejects_malformed_synthetic(tmp_path):
    for value in ("3", "gamma=abc"):
        result = invoke([
            "tune", "--workload", "add", "--synthetic", value,
            "--out", str(tmp_path / "x"),
        ])
        assert result.exit_code == 2
        assert result.stderr.endswith(f"expected gamma=<value>, got {value!r}\n")


def test_tune_refuses_an_over_budget_pool_before_recording_any(tmp_path, monkeypatch):
    launches = record_launches(monkeypatch)
    out = tmp_path / "tune"
    result = invoke([
        "tune", "--workload", "allocate", "--repetitions-grid", "1000,100000000",
        "--out", str(out),
    ], env={"PERFDELTA_MEM_BUDGET_BYTES": "1000000000"})
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: allocate workload needs")
    assert launches == []
    assert not out.exists()


def test_recorded_tune_end_to_end(tmp_path, monkeypatch):
    # A 2-VM grid records 4-VM pools: 4 old and 4 new starts, alternating.
    launches = record_launches(monkeypatch)
    out = tmp_path / "tune-rec"
    result = invoke([
        "tune", "--workload", "add", "--size", "10", "--vm-grid", "2", "--iteration-grid", "1",
        "--repetitions-grid", "1", "--resamples", "5", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    for label in ("base", "changed"):
        series = deserialize_series((out / f"pool_add_r1_{label}.json").read_bytes())
        assert len(series.vm_runs) == 4
        assert all((len(r.warmup_ns), len(r.measurement_ns)) == (1, 1) for r in series.vm_runs)
    assert (out / "report.json").exists()
    for name in ("add", "average"):
        header, *rows = (out / f"heatmap_{name}.csv").read_text().splitlines()
        assert rows
        for row in rows:
            cell = dict(zip(header.split(","), row.split(",")))
            assert int(cell["tp"]) + int(cell["fn"]) == 5
            assert int(cell["fp"]) + int(cell["tn"]) == 5
    assert launches == [
        e
        for i in range(4)
        for e in (("spawn",), ("finish", "old", i, 0), ("spawn",), ("finish", "new", i, 0))
    ]


# --- stddev-sweep ----------------------------------------------------------


def test_stddev_sweep_rows_and_recomputation(tmp_path):
    out = tmp_path / "sweep.csv"
    series_dir = tmp_path / "series"
    result = invoke([
        "stddev-sweep", "--workload", "add", "--sizes", "50,100,200",
        "--vms", "2", "--warmup", "1", "--iterations", "3", "--repetitions", "10",
        "--out", str(out), "--series-dir", str(series_dir),
    ])
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "kind,size,mean_ns,stddev_ns,relative_stddev"
    assert len(lines) == 4

    from perfdelta.stats import summarize

    for line in lines[1:]:
        kind, size, mean_ns, stddev_ns, relative = line.split(",")
        series = deserialize_series((series_dir / f"sweep_add_{size}.json").read_bytes())
        summary = summarize(series)
        assert float(mean_ns) == pytest.approx(summary.mean_ns, abs=1e-12)
        assert float(relative) == pytest.approx(summary.relative_stddev, abs=1e-12)


def test_stddev_sweep_rejects_one_vm_before_any_campaign(tmp_path):
    series_dir = tmp_path / "series"
    result = invoke([
        "stddev-sweep", "--workload", "add", "--sizes", "10,20", *ONE_VM,
        "--series-dir", str(series_dir),
    ])
    assert result.exit_code == 2, result.output
    assert not list(series_dir.glob("sweep_*.json"))


def test_stddev_sweep_allocate_budget(tmp_path):
    result = invoke([
        "stddev-sweep", "--workload", "allocate", "--sizes", "10000000",
        "--vms", "2", "--warmup", "1", "--iterations", "1", "--repetitions", "1000",
    ], env={"PERFDELTA_MEM_BUDGET_BYTES": "1000000"})
    assert result.exit_code == 2


def test_stddev_sweep_refuses_an_over_budget_size_before_any_campaign(tmp_path, monkeypatch):
    launches = record_launches(monkeypatch)
    series_dir = tmp_path / "series"
    result = invoke([
        "stddev-sweep", "--workload", "allocate", "--sizes", "10,10000000",
        "--series-dir", str(series_dir),
    ], env={"PERFDELTA_MEM_BUDGET_BYTES": "1000000000"})
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: allocate workload needs")
    assert launches == []
    assert not list(series_dir.glob("sweep_*"))


# --- inject ----------------------------------------------------------------


def test_inject_writes_study_report(tmp_path):
    out = tmp_path / "study.json"
    result = invoke([
        "inject", "--workload", "add", "--size", "50", "--delta-ns", "5",
        "--trials", "2", "--vms", "2", "--warmup", "1", "--iterations", "2",
        "--repetitions", "5", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["trials"] == 2
    assert doc["workload"]["injected_delay_ns"] == 5
    assert len(doc["outcomes"]) == 2
    assert "detection_rate=" in result.output


# --- exit codes --------------------------------------------------------------

ONE_VM = ["--vms", "1", "--warmup", "0", "--iterations", "1", "--repetitions", "1"]
INJECT = ["inject", "--workload", "add", "--size", "10", *ONE_VM]
TWO_VMS = ["--vms", "2", "--warmup", "0", "--iterations", "1", "--repetitions", "1"]
# Relative to the test's working directory, where no such directory exists.
MISSING_DIR_OUT = ["--out", "missing/x.json"]


@pytest.mark.parametrize("args", [
    ["power", "curve", "--gammas", "1", "--vms-max", "3", "--alpha", "2"],
    ["power", "curve", "--gammas", "1", "--vms-max", "3", "--vms-min", "1"],
    ["power", "curve", "--gammas", "abc", "--vms-max", "3"],
    [*INJECT, "--trials", "0"],
    [*INJECT, "--delta-ns", "-1"],
    [*INJECT, "--subset-fraction", "2"],
    ["stddev-sweep", "--workload", "add", "--sizes", "10", *ONE_VM],
    ["tune", "--workload", "add", "--synthetic", "gamma=3", "--vm-grid", "1",
     "--iteration-grid", "1", "--repetitions-grid", "1", "--resamples", "1"],
    ["tune", "--synthetic", "gamma=1", "--vm-grid", ""],
    ["stddev-sweep", "--workload", "add", "--sizes", ""],
    ["power", "curve", "--gammas", "", "--vms-max", "3"],
    ["power", "curve", "--gammas", "1", "--vms-min", "5", "--vms-max", "3"],
    ["power", "--vms", "30"],
    ["power", "curve", "--vms-max", "3"],
    ["power", "--gamma", "1", "--vms", "30", "--outlier-z", "2"],
    ["power", "--gamma", "1", "--vm", "30"],
    ["power", "--gamma", "x", "--vms", "30"],
    ["stddev-sweep", "--workload", "mul", "--sizes", "10"],
    ["power", "--gamma", "nan", "--vms", "30"],
    ["power", "--gamma", "inf", "--vms", "30"],
    ["power", "--gamma", "inf", "--beta", "0.1"],
    ["power", "curve", "--gammas", "nan", "--vms-max", "3"],
    ["tune", "--workload", "add", "--synthetic", "gamma=nan", "--vm-grid", "2",
     "--iteration-grid", "1", "--repetitions-grid", "1", "--resamples", "1"],
    ["power", "--gamma", "0.5", "--vms", "30", "--parallel"],
    [*INJECT, "--parallel"],
    ["measure", "--workload", "add", "--size", "10", *ONE_VM, "--gc"],
    ["power", "--gamma", "1e-160", "--beta", "0.1"],
    ["power", "--gamma", "1", "--vms", "1" + "0" * 400],
    ["measure", "--workload", "add", "--size", "10", *TWO_VMS, *MISSING_DIR_OUT],
    ["inject", "--workload", "add", "--size", "10", *TWO_VMS, "--trials", "1",
     *MISSING_DIR_OUT],
    ["stddev-sweep", "--workload", "add", "--sizes", "10", *TWO_VMS, *MISSING_DIR_OUT],
    ["power", "curve", "--gammas", "1", "--vms-max", "3", *MISSING_DIR_OUT],
    ["tune", "--workload", "add", "--workload", "add", "--size", "10", "--vm-grid", "2",
     "--iteration-grid", "1", "--repetitions-grid", "1", "--resamples", "5"],
    ["tune", "--workload", "add", "--size", "10", "--vm-grid", "2", "--iteration-grid", "1",
     "--repetitions-grid", "1,1", "--resamples", "5"],
    *(["tune", "--workload", "add", "--synthetic", "gamma=1", "--vm-grid", "2",
       "--iteration-grid", "1", "--repetitions-grid", "1", "--resamples", "1", "--seed", seed]
      for seed in ("-1", str(2**64))),
    ["tune", "--workload", "add", "--synthetic", "gamma=abc"],
    *([*BUDGET, "--gamma", "0.5", flag, value, other, "1"]
      for flag, other in (("--seconds-per-vm", "--budget"), ("--budget", "--seconds-per-vm"))
      for value in ("nan", "inf", "0", "-1")),
], ids=["curve-alpha", "curve-vms-min", "curve-gammas", "inject-trials", "inject-delta-ns",
        "inject-subset-fraction", "sweep-vms", "tune-vm-grid", "tune-empty-vm-grid",
        "sweep-empty-sizes", "curve-empty-gammas", "curve-empty-vms-range", "power-no-gamma",
        "curve-no-gammas", "unknown-option", "abbreviated-option", "unparsable-number",
        "bad-choice", "power-nan-gamma", "power-inf-gamma", "power-inf-gamma-beta",
        "curve-nan-gamma", "tune-nan-gamma", "power-parallel", "inject-parallel",
        "measure-gc", "power-tiny-gamma", "power-huge-vms", "measure-out-missing-dir",
        "inject-out-missing-dir", "sweep-out-missing-dir", "curve-out-missing-dir",
        "tune-repeated-workload", "tune-repeated-repetitions", "tune-negative-seed",
        "tune-seed-2**64", "tune-unparsable-gamma",
        *(f"power-{flag}-{value}" for flag in ("seconds-per-vm", "budget")
          for value in ("nan", "inf", "0", "-1"))])
def test_invalid_values_exit_with_validation_code(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    launches = record_launches(monkeypatch)
    if args[0] in ("inject", "tune", "measure") and "--out" not in args:
        args = [*args, "--out", str(tmp_path / "out")]
    result = invoke(args)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert "Traceback" not in result.output
    assert launches == []
    assert not (tmp_path / "missing").exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, defaults", [
    (["measure"], {"seed": "0"}),
    (["compare"], {"alpha": "0.01"}),
    (["power"], {"alpha": "0.01"}),
    (["power", "curve"], {"alpha": "0.01"}),
    (["tune"], {"alpha": "0.01", "seed": "0"}),
    (["stddev-sweep"], {"seed": "0"}),
    (["inject"], {"alpha": "0.01", "seed": "0"}),
], ids=["measure", "compare", "power", "power-curve", "tune", "stddev-sweep", "inject"])
def test_help_exits_zero_and_shows_defaults(command, defaults):
    result = invoke([*command, "--help"], env={"COLUMNS": "100"})
    assert result.exit_code == 0, result.output
    for name, value in defaults.items():
        shown = rf"--{name} {name.upper()}\s+\[default: {re.escape(value)}\]"
        assert re.search(shown, result.stdout), (name, result.stdout)


def test_inject_rejects_one_vm_before_any_executor_start(tmp_path, monkeypatch):
    launches = record_launches(monkeypatch)
    out = tmp_path / "study.json"
    result = invoke([*INJECT, "--trials", "1", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: vms must be >= 2")
    assert launches == []
    assert not out.exists()


def test_executor_failure_exits_with_executor_code(tmp_path, monkeypatch):
    from perfdelta import harness

    real_finish = harness._finish

    def finish_with_a_broken_job(proc, job, vm_index, version):
        job = {**job, "workload": {**job["workload"], "size": -1}}
        return real_finish(proc, job, vm_index, version)

    monkeypatch.setattr(harness, "_finish", finish_with_a_broken_job)
    result = invoke([
        "measure", "--workload", "add", "--size", "10", *ONE_VM, "--out", str(tmp_path / "f"),
    ])
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith("error: executor failed for vm 0: ")
    assert not (tmp_path / "f").exists()


def test_inject_with_a_failed_start_exits_with_executor_code(tmp_path, monkeypatch):
    reply_with(monkeypatch, '{"executions_at_start": 0}')
    out = tmp_path / "study.json"
    result = invoke([
        "inject", "--workload", "add", "--size", "10", *TWO_VMS, "--trials", "3",
        "--out", str(out),
    ])
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith("error: executor failed for old vm 0: bad result line")
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert "Traceback" not in result.output
    assert not out.exists()


def test_malformed_result_line_exits_with_executor_code(tmp_path, monkeypatch):
    reply_with(monkeypatch, '{"executions_at_start": 0}')
    result = invoke([
        "measure", "--workload", "add", "--size", "10", *ONE_VM, "--out", str(tmp_path / "f"),
    ])
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith("error: executor failed for vm 0: ")
    assert "Traceback" not in result.output


# --- document layouts ----------------------------------------------------------


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    d = tmp_path_factory.mktemp("documents")
    write_series(d / "old.json", [100, 101, 102])
    write_series(d / "new.json", [200, 201, 202])
    verdict = invoke(["compare", str(d / "old.json"), str(d / "new.json")])
    invoke([
        "tune", "--workload", "add", "--synthetic", "gamma=3", "--vm-grid", "2",
        "--iteration-grid", "1", "--repetitions-grid", "10", "--resamples", "5",
        "--out", str(d / "tune"),
    ])
    invoke([
        "inject", "--workload", "add", "--size", "10", "--trials", "1", "--vms", "2",
        "--warmup", "0", "--iterations", "1", "--repetitions", "1",
        "--out", str(d / "study.json"),
    ])
    return {
        "verdict": json.loads(verdict.stdout),
        "report": json.loads((d / "tune" / "report.json").read_text()),
        "study": json.loads((d / "study.json").read_text()),
    }


@pytest.mark.parametrize("name, path, keys", [
    ("verdict", [], ["changed", "test", "statistic", "p_value", "effect_size", "n_old",
                     "n_new", "alpha"]),
    ("report", [], ["plan", "selection"]),
    ("report", ["plan"], ["workload_kinds", "size_s", "delta_ops", "delta_ns",
                          "repetitions_grid", "vm_grid", "iteration_grid", "max_vms",
                          "max_iterations", "resamples", "decision", "seed",
                          "synthetic_gamma"]),
    ("report", ["selection"], ["feasible", "reason", "config", "cell"]),
    ("report", ["selection", "cell"], ["vms", "iterations", "repetitions", "f1", "tp", "fp",
                                       "fn", "tn"]),
    ("study", [], ["workload", "config", "decision", "trials", "detections",
                   "detection_rate", "mean_effect_size", "mean_relative_stddev",
                   "busywait_quantum_ns", "outcomes"]),
    ("study", ["outcomes", 0], ["trial", "changed", "p_value", "effect_size"]),
], ids=["verdict", "report", "report.plan", "report.selection", "report.selection.cell",
        "study", "study.outcomes[0]"])
def test_document_key_order(documents, name, path, keys):
    doc = documents[name]
    for step in path:
        doc = doc[step]
    assert list(doc) == keys
