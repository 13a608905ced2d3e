import gc
import json
import subprocess
import sys

import pytest

from conftest import record_launches, reply_with
from perfdelta import harness
from perfdelta.executor import FakeClock, execute_job
from perfdelta.harness import CampaignError, run_campaign, run_paired_campaign
from perfdelta.model import (
    MeasurementConfig,
    WorkloadKind,
    WorkloadSpec,
    deserialize_series,
    serialize_series,
    to_document,
)
from perfdelta.stats import per_vm_means, window_matrix

FAKE = FakeClock(step_ns=1000)


def small_config(**overrides):
    base = dict(vms=2, warmup_iterations=3, measurement_iterations=3, repetitions=10)
    base.update(overrides)
    return MeasurementConfig(**base)


def add_spec(**overrides):
    base = dict(kind=WorkloadKind.ADD, size=4, seed=7)
    base.update(overrides)
    return WorkloadSpec(**base)


def test_campaign_structure_and_fake_clock_arithmetic():
    config = small_config(repetitions=100)
    series = run_campaign(config, add_spec(), clock=FakeClock(step_ns=1000))
    assert len(series.vm_runs) == 2
    for run in series.vm_runs:
        assert len(run.warmup_ns) == 3
        assert len(run.measurement_ns) == 3
        assert all(d == 1000 for d in run.warmup_ns + run.measurement_ns)
    assert per_vm_means(window_matrix(series), 3, 6, 100).tolist() == [10.0, 10.0]


def test_campaign_records_clock_resolution():
    series = run_campaign(small_config(), add_spec(), clock=FAKE)
    assert series.environment["clock_resolution_ns"] == "1000"


class ProbeCountingClock(FakeClock):
    """Counts the resolution probes made on it."""

    def __init__(self):
        super().__init__(step_ns=1000)
        self.probes = 0

    def resolution_ns(self) -> int:
        self.probes += 1
        return super().resolution_ns()


@pytest.mark.parametrize("vms", [1, 3])
@pytest.mark.parametrize("paired", [False, True], ids=["campaign", "paired"])
def test_parent_probes_the_clock_once_per_campaign(vms, paired):
    clock = ProbeCountingClock()
    if paired:
        run_paired_campaign(small_config(vms=vms), add_spec(), add_spec(), clock=clock)
    else:
        run_campaign(small_config(vms=vms), add_spec(), clock=clock)
    assert clock.probes == 1


def test_campaign_output_serializes_byte_stable():
    series = run_campaign(small_config(), add_spec(), clock=FAKE)
    data = serialize_series(series)
    assert serialize_series(deserialize_series(data)) == data


def test_sequential_campaign_logs_one_epoch_per_vm(monkeypatch):
    events = record_launches(monkeypatch)
    run_campaign(small_config(vms=3), add_spec(), clock=FAKE)
    assert events == [e for i in range(3) for e in (("spawn",), ("finish", None, i, 7))]


def test_paired_sequential_alternates_versions(monkeypatch):
    events = record_launches(monkeypatch)
    config = small_config(vms=3)
    run_paired_campaign(config, add_spec(), add_spec(seed=8), clock=FAKE)
    assert events == [
        e
        for i in range(3)
        for e in (("spawn",), ("finish", "old", i, 7), ("spawn",), ("finish", "new", i, 8))
    ]


def test_paired_campaign_requires_matching_kinds():
    with pytest.raises(ValueError):
        run_paired_campaign(
            small_config(),
            add_spec(),
            WorkloadSpec(kind=WorkloadKind.WRITE, size=4),
        )


REAL_FINISH = harness._finish


def with_broken_size(job, size=-1):
    job["workload"]["size"] = size
    return job


def break_job_of(monkeypatch, version, vm_index):
    """Hand the start of ``version`` at ``vm_index`` a job whose size is invalid."""

    def finish(proc, job, index, started):
        if (started, index) == (version, vm_index):
            job = {**job, "workload": {**job["workload"], "size": -1}}
        return REAL_FINISH(proc, job, index, started)

    monkeypatch.setattr(harness, "_finish", finish)


def test_executor_failure_carries_vm_index_and_diagnostics(monkeypatch):
    break_job_of(monkeypatch, None, 0)
    with pytest.raises(CampaignError) as excinfo:
        run_campaign(small_config(), add_spec())
    assert excinfo.value.vm_index == 0
    assert "size" in excinfo.value.diagnostics


@pytest.mark.parametrize("line, message", [
    ('{"executions_at_start": 0}', "bad result line"),
    ("[1]", "bad result line"),
    ('{"warmup_ns": [1, 1, 1], "measurement_ns": [1.5, 1, 1], "executions_at_start": 0}',
     "bad result line"),
    ("", "executor produced no result line"),
    ('{"warmup_ns": [1, 1, 1], "measurement_ns": [1, 1, 1], "executions_at_start": 1}',
     r"executor was not fresh \(counter=1\)"),
], ids=["missing-field", "non-object", "float-duration", "empty", "not-fresh"])
def test_malformed_result_line_is_an_executor_failure(monkeypatch, line, message):
    children = reply_with(monkeypatch, line)
    with pytest.raises(CampaignError, match=f"vm 0: {message}"):
        run_campaign(small_config(), add_spec(), clock=FAKE)
    assert [child.job for child in children] == [{
        "config": to_document(small_config()),
        "workload": to_document(add_spec()),
        "step_ns": 1000,
    }]


def test_paired_failure_names_the_version(monkeypatch):
    break_job_of(monkeypatch, "new", 0)  # the first "new" launch of a sequential pair
    with pytest.raises(CampaignError) as excinfo:
        run_paired_campaign(small_config(), add_spec(), add_spec(), clock=FAKE)
    assert excinfo.value.version == "new"
    assert excinfo.value.vm_index == 0


LAUNCH_MODES = {
    "campaign": lambda: run_campaign(small_config(), add_spec(), clock=FAKE),
    "sequential pair": lambda: run_paired_campaign(
        small_config(), add_spec(), add_spec(), clock=FAKE
    ),
}


@pytest.mark.parametrize("mode", sorted(LAUNCH_MODES))
def test_interrupt_while_waiting_reaps_every_child(monkeypatch, mode):
    spawned = []
    real_spawn = harness._spawn

    def recording_spawn():
        proc = real_spawn()
        spawned.append(proc)
        return proc

    def interrupted_finish(proc, job, vm_index, version):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "_spawn", recording_spawn)
    monkeypatch.setattr(harness, "_finish", interrupted_finish)
    with pytest.raises(KeyboardInterrupt):
        LAUNCH_MODES[mode]()
    assert spawned
    assert all(proc.returncode is not None for proc in spawned)


# --- executor internals ----------------------------------------------------


def make_job():
    return {
        "config": to_document(small_config(warmup_iterations=2)),
        "workload": to_document(add_spec()),
        "step_ns": 500,
    }


def test_execute_job_shapes_and_durations():
    result = execute_job(make_job())
    assert result["warmup_ns"] == [500, 500]
    assert result["measurement_ns"] == [500, 500, 500]


def test_in_process_reexecution_is_detectable():
    first = execute_job(make_job())
    second = execute_job(make_job())
    # The isolation counter grows within one process; only a fresh OS
    # process reports zero, which the campaign asserts for every VM start.
    assert second["executions_at_start"] > first["executions_at_start"]


class GcCountingClock(FakeClock):
    """Records the collector's generation and frozen counts at every read."""

    def __init__(self):
        super().__init__(step_ns=1)
        self.counts = []
        self.frozen = []

    def read(self) -> int:
        self.counts.append(gc.get_count())
        self.frozen.append(gc.get_freeze_count())
        return super().read()


def test_timed_loop_starts_after_a_full_collection():
    clock = GcCountingClock()
    execute_job(make_job(), clock=clock)
    assert clock.counts[0][1:] == (0, 0)


def test_timed_loop_starts_with_the_import_heap_frozen():
    clock = GcCountingClock()
    execute_job(make_job(), clock=clock)
    assert clock.frozen[0] > 0


def test_backwards_clock_is_fatal():
    with pytest.raises(RuntimeError, match="clock went backwards"):
        execute_job(make_job(), clock=FakeClock(step_ns=-5))


def run_executor(job):
    return subprocess.run(
        harness.executor_command(),
        input=json.dumps(job),
        capture_output=True,
        text=True,
    )


def test_executor_subprocess_round_trip():
    proc = run_executor(make_job())
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"warmup_ns", "measurement_ns", "executions_at_start"}
    assert result["executions_at_start"] == 0
    assert result["measurement_ns"] == [500, 500, 500]


def test_executor_reports_structured_error():
    proc = run_executor(with_broken_size(make_job(), -3))
    assert proc.returncode != 0
    error = json.loads(proc.stderr.strip().splitlines()[-1])
    assert error["error"] == "SchemaError"
    assert "size" in error["message"]


def assert_schema_error(proc, path):
    assert proc.returncode != 0
    error = json.loads(proc.stderr.strip().splitlines()[-1])
    assert error["error"] == "SchemaError"
    assert error["message"].startswith(f"{path}: ")


def test_executor_rejects_job_with_missing_field():
    job = make_job()
    del job["config"]["repetitions"]
    assert_schema_error(run_executor(job), "config.repetitions")


def test_executor_rejects_non_object_job():
    assert_schema_error(run_executor([]), "$")


def test_executor_rejects_job_with_wrong_typed_field():
    assert_schema_error(run_executor(with_broken_size(make_job(), "4")), "workload.size")
    assert_schema_error(run_executor({**make_job(), "step_ns": "500"}), "step_ns")


KIND_SPECS = {
    "add": add_spec(),
    "allocate": WorkloadSpec(kind=WorkloadKind.ALLOCATE, size=4),
    "write": WorkloadSpec(kind=WorkloadKind.WRITE, size=4),
}


@pytest.mark.parametrize("kind,loads_numpy", [("add", True), ("allocate", False), ("write", True)])
def test_child_loads_numpy_only_for_kinds_that_draw(kind, loads_numpy):
    job = {**make_job(), "workload": to_document(KIND_SPECS[kind])}
    code = (
        f"import json, sys; sys.path[:0] = {sys.path!r}; "
        "from perfdelta.executor import execute_job; "
        "execute_job(json.loads(sys.stdin.read())); "
        "print(json.dumps(sorted(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        input=json.dumps(job), capture_output=True, text=True, check=True,
    )
    assert ("numpy" in json.loads(proc.stdout)) is loads_numpy


@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
def test_child_ignores_the_callers_pythonpath(monkeypatch, tmp_path, kind):
    shadow = tmp_path / "perfdelta"
    shadow.mkdir()
    (shadow / "__init__.py").write_text('raise ImportError("shadow perfdelta imported")\n')
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    # The harness refuses any VM whose executions_at_start is not 0.
    series = run_campaign(small_config(), KIND_SPECS[kind], clock=FAKE)
    assert len(series.vm_runs) == 2
    assert series.environment["executor_flags"] == "-I -S"


def test_budget_charges_one_window_not_every_iteration(monkeypatch):
    # A window of 10 x 10 records holds ~9.6 kB, under the budget however
    # many windows a VM runs.
    monkeypatch.setenv("PERFDELTA_MEM_BUDGET_BYTES", "100000")
    config = MeasurementConfig(vms=2, warmup_iterations=49, measurement_iterations=49,
                               repetitions=10)
    allocate = WorkloadSpec(kind=WorkloadKind.ALLOCATE, size=10)
    series = run_campaign(config, allocate, clock=FAKE)
    assert [len(run.measurement_ns) for run in series.vm_runs] == [49, 49]


def test_over_budget_new_version_starts_no_vm(monkeypatch):
    launches = record_launches(monkeypatch)
    monkeypatch.setenv("PERFDELTA_MEM_BUDGET_BYTES", "100000")
    old = WorkloadSpec(kind=WorkloadKind.ALLOCATE, size=10)
    new = WorkloadSpec(kind=WorkloadKind.ALLOCATE, size=1000)
    with pytest.raises(ValueError, match="size=1000"):
        run_paired_campaign(small_config(), old, new, clock=FAKE)
    assert launches == []
