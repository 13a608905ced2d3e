import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import make_series, record_launches, reply_with
from perfdelta.cli import main
from perfdelta.model import deserialize_series, serialize_series

runner = CliRunner()


def write_series(path: Path, per_vm_means):
    series = make_series([[int(v)] for v in per_vm_means], repetitions=1)
    path.write_bytes(serialize_series(series))


# --- measure ---------------------------------------------------------------


def test_measure_writes_valid_series(tmp_path):
    out = tmp_path / "f.json"
    result = runner.invoke(main, [
        "measure", "--workload", "add", "--size", "300", "--vms", "2",
        "--warmup", "2", "--iterations", "2", "--repetitions", "10",
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    series = deserialize_series(out.read_bytes())
    assert len(series.vm_runs) == 2
    assert all(len(r.measurement_ns) == 2 for r in series.vm_runs)
    assert "mean_ns=" in result.output


def test_measure_requires_out():
    result = runner.invoke(main, ["measure", "--workload", "add", "--size", "300"])
    assert result.exit_code == 2


def test_measure_validation_exit_code(tmp_path):
    result = runner.invoke(main, [
        "measure", "--workload", "add", "--size", "0", "--out", str(tmp_path / "f.json"),
    ])
    assert result.exit_code == 2


def test_measure_allocate_budget_refusal(tmp_path):
    result = runner.invoke(main, [
        "measure", "--workload", "allocate", "--size", "10000000",
        "--vms", "2", "--warmup", "1", "--iterations", "1",
        "--repetitions", "1000", "--out", str(tmp_path / "f.json"),
    ], env={"PERFDELTA_MEM_BUDGET_BYTES": "1000000"})
    assert result.exit_code == 2
    assert "budget" in result.stderr.lower()
    assert not (tmp_path / "f.json").exists()


# --- compare ---------------------------------------------------------------


def test_compare_identical_series_exit_zero(tmp_path):
    write_series(tmp_path / "a.json", [1, 2, 3])
    write_series(tmp_path / "b.json", [1, 2, 3])
    result = runner.invoke(main, [
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

    result = runner.invoke(main, args + ["--alpha", "0.01"])
    assert result.exit_code == 0
    assert json.loads(result.output)["p_value"] == pytest.approx(0.1)

    result = runner.invoke(main, args + ["--alpha", "0.2"])
    assert result.exit_code == 10
    assert json.loads(result.output)["changed"] is True


def test_compare_missing_file_exit_two(tmp_path):
    write_series(tmp_path / "a.json", [1, 2, 3])
    result = runner.invoke(main, [
        "compare", str(tmp_path / "a.json"), str(tmp_path / "missing.json"),
    ])
    assert result.exit_code == 2


def test_compare_corrupt_file_exit_two(tmp_path):
    write_series(tmp_path / "a.json", [1, 2, 3])
    (tmp_path / "bad.json").write_text("{broken")
    result = runner.invoke(main, [
        "compare", str(tmp_path / "a.json"), str(tmp_path / "bad.json"),
    ])
    assert result.exit_code == 2


# --- power -----------------------------------------------------------------


def test_power_forward_anchor():
    result = runner.invoke(main, ["power", "--gamma", "1", "--alpha", "0.01", "--vms", "30"])
    assert result.exit_code == 0
    beta = float(result.output.strip().split("=")[1])
    assert beta == pytest.approx(0.0973, abs=0.0005)


def test_power_zero_gamma():
    result = runner.invoke(main, ["power", "--gamma", "0", "--alpha", "0.01", "--vms", "30"])
    assert result.exit_code == 0
    assert float(result.output.strip().split("=")[1]) == pytest.approx(0.995)


def test_power_inversion_anchor():
    result = runner.invoke(main, ["power", "--gamma", "0.1", "--alpha", "0.01", "--beta", "0.01"])
    assert result.exit_code == 0
    required = int(result.output.strip().split("=")[1])
    assert 4806 <= required <= 4808


def test_power_requires_exactly_one_direction():
    result = runner.invoke(main, ["power", "--gamma", "1", "--vms", "30", "--beta", "0.1"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["power", "--gamma", "1"])
    assert result.exit_code == 2


def test_power_feasibility_output():
    result = runner.invoke(main, [
        "power", "--gamma", "0.5", "--alpha", "0.01", "--beta", "0.01",
        "--seconds-per-vm", "97", "--budget", "43200",
    ])
    assert result.exit_code == 0
    assert "required_vms=193" in result.output
    assert "feasible=true" in result.output


def test_power_curve_csv(tmp_path):
    out = tmp_path / "curve.csv"
    result = runner.invoke(main, [
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
    result = runner.invoke(main, TUNE_ARGS + ["--out", str(out)])
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
    assert runner.invoke(main, TUNE_ARGS + ["--out", str(first)]).exit_code == 0
    assert runner.invoke(main, TUNE_ARGS + ["--out", str(second)]).exit_code == 0
    for name in ("heatmap_add.csv", "heatmap_average.csv", "report.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


GOLDEN_TUNE = Path(__file__).parent / "golden_tune"


@pytest.mark.parametrize("test", ["t", "mann-whitney", "ci"])
def test_tune_matches_golden_files(tmp_path, test):
    """``tune --synthetic gamma=3 --seed 0 --resamples 200`` at the default
    grids writes the bytes kept under ``golden_tune/<test>/``.  A change that
    moves a cell on purpose rewrites these files and lists the moved cells."""
    out = tmp_path / test
    result = runner.invoke(main, [
        "tune", "--workload", "add", "--synthetic", "gamma=3", "--seed", "0",
        "--resamples", "200", "--test", test, "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    for name in ("report.json", "heatmap_add.csv", "heatmap_average.csv"):
        assert (out / name).read_bytes() == (GOLDEN_TUNE / test / name).read_bytes(), name


def test_tune_rejects_malformed_synthetic(tmp_path):
    result = runner.invoke(main, [
        "tune", "--workload", "add", "--synthetic", "3",
        "--out", str(tmp_path / "x"),
    ])
    assert result.exit_code == 2


# --- stddev-sweep ----------------------------------------------------------


def test_stddev_sweep_rows_and_recomputation(tmp_path):
    out = tmp_path / "sweep.csv"
    series_dir = tmp_path / "series"
    result = runner.invoke(main, [
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
    result = runner.invoke(main, [
        "stddev-sweep", "--workload", "add", "--sizes", "10,20", *ONE_VM,
        "--series-dir", str(series_dir),
    ])
    assert result.exit_code == 2, result.output
    assert not list(series_dir.glob("sweep_*.json"))


def test_stddev_sweep_allocate_budget(tmp_path):
    result = runner.invoke(main, [
        "stddev-sweep", "--workload", "allocate", "--sizes", "10000000",
        "--vms", "2", "--warmup", "1", "--iterations", "1", "--repetitions", "1000",
    ], env={"PERFDELTA_MEM_BUDGET_BYTES": "1000000"})
    assert result.exit_code == 2


# --- inject ----------------------------------------------------------------


def test_inject_writes_study_report(tmp_path):
    out = tmp_path / "study.json"
    result = runner.invoke(main, [
        "inject", "--workload", "add", "--size", "50", "--delta-ns", "5",
        "--trials", "2", "--vms", "2", "--warmup", "1", "--iterations", "2",
        "--repetitions", "5", "--no-parallel", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["trials"] == 2
    assert len(doc["outcomes"]) == 2
    assert "detection_rate=" in result.output


# --- exit codes --------------------------------------------------------------

ONE_VM = ["--vms", "1", "--warmup", "0", "--iterations", "1", "--repetitions", "1"]
INJECT = ["inject", "--workload", "add", "--size", "10", "--no-parallel", *ONE_VM]


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
], ids=["curve-alpha", "curve-vms-min", "curve-gammas", "inject-trials", "inject-delta-ns",
        "inject-subset-fraction", "sweep-vms", "tune-vm-grid"])
def test_invalid_values_exit_with_validation_code(tmp_path, args):
    if args[0] in ("inject", "tune"):
        args = [*args, "--out", str(tmp_path / "out")]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.output


def test_inject_rejects_one_vm_before_any_executor_start(tmp_path, monkeypatch):
    launches = record_launches(monkeypatch)
    out = tmp_path / "study.json"
    result = runner.invoke(main, [*INJECT, "--trials", "1", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: vms must be >= 2")
    assert launches == []
    assert not out.exists()


def test_executor_failure_exits_with_executor_code(tmp_path, monkeypatch):
    from perfdelta import harness

    real_build_job = harness._build_job

    def broken_job(*args):
        job = real_build_job(*args)
        job["workload"]["size"] = -1
        return job

    monkeypatch.setattr(harness, "_build_job", broken_job)
    result = runner.invoke(main, [
        "measure", "--workload", "add", "--size", "10", *ONE_VM, "--out", str(tmp_path / "f"),
    ])
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith("error: executor failed for vm 0: ")
    assert not (tmp_path / "f").exists()


def test_malformed_result_line_exits_with_executor_code(tmp_path, monkeypatch):
    reply_with(monkeypatch, '{"executions_at_start": 0}')
    result = runner.invoke(main, [
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
    verdict = runner.invoke(main, ["compare", str(d / "old.json"), str(d / "new.json")])
    runner.invoke(main, [
        "tune", "--workload", "add", "--synthetic", "gamma=3", "--vm-grid", "2",
        "--iteration-grid", "1", "--repetitions-grid", "10", "--resamples", "5",
        "--out", str(d / "tune"),
    ])
    runner.invoke(main, [
        "inject", "--workload", "add", "--size", "10", "--trials", "1", "--vms", "2",
        "--warmup", "0", "--iterations", "1", "--repetitions", "1", "--no-parallel",
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
    ("study", [], ["workload", "delta_ns", "subset_fraction", "config", "decision", "trials",
                   "detections", "erroneous", "detection_rate", "mean_effect_size",
                   "mean_relative_stddev", "busywait_quantum_ns", "outcomes"]),
    ("study", ["outcomes", 0], ["trial", "changed", "p_value", "effect_size", "error"]),
], ids=["verdict", "report", "report.plan", "report.selection", "report.selection.cell",
        "study", "study.outcomes[0]"])
def test_document_key_order(documents, name, path, keys):
    doc = documents[name]
    for step in path:
        doc = doc[step]
    assert list(doc) == keys
