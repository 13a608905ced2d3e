import gc
import json
import subprocess
import sys

import pytest

from conftest import record_launches, reply_with
from perfdelta import harness
from perfdelta.executor import ClockError, FakeClock, execute_job
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


def test_campaign_output_serializes_byte_stable():
    series = run_campaign(small_config(), add_spec(), clock=FAKE)
    data = serialize_series(series)
    assert serialize_series(deserialize_series(data)) == data


def test_sequential_campaign_logs_one_epoch_per_vm(monkeypatch):
    events = record_launches(monkeypatch)
    run_campaign(small_config(vms=3), add_spec(), clock=FAKE)
    assert events == [e for i in range(3) for e in (("spawn", 7), ("finish", None, i))]


def test_paired_parallel_launch_pattern(monkeypatch):
    events = record_launches(monkeypatch)
    config = small_config(vms=3, parallel_pairs=True)
    old, new = run_paired_campaign(config, add_spec(), add_spec(seed=8), clock=FAKE)
    assert events == [
        e
        for i in range(3)
        for e in (("spawn", 7), ("spawn", 8), ("finish", "old", i), ("finish", "new", i))
    ]
    assert len(old.vm_runs) == len(new.vm_runs) == 3
    assert old.workload.seed == 7 and new.workload.seed == 8


def test_paired_sequential_alternates_versions(monkeypatch):
    events = record_launches(monkeypatch)
    config = small_config(vms=3, parallel_pairs=False)
    run_paired_campaign(config, add_spec(), add_spec(seed=8), clock=FAKE)
    assert events == [
        e
        for i in range(3)
        for e in (("spawn", 7), ("finish", "old", i), ("spawn", 8), ("finish", "new", i))
    ]


def test_paired_campaign_requires_matching_kinds():
    with pytest.raises(ValueError):
        run_paired_campaign(
            small_config(),
            add_spec(),
            WorkloadSpec(kind=WorkloadKind.WRITE, size=4),
        )


REAL_BUILD_JOB = harness._build_job


def with_broken_size(job, size=-1):
    job["workload"]["size"] = size
    return job


def test_executor_failure_carries_vm_index_and_diagnostics(monkeypatch):
    def broken_job(config, workload, clock, cpu_affinity=None):
        return with_broken_size(REAL_BUILD_JOB(config, workload, clock, cpu_affinity))

    monkeypatch.setattr(harness, "_build_job", broken_job)
    with pytest.raises(CampaignError) as excinfo:
        run_campaign(small_config(), add_spec())
    assert excinfo.value.vm_index == 0
    assert "size" in excinfo.value.diagnostics


@pytest.mark.parametrize("line", [
    '{"executions_at_start": 0}',
    "[1]",
    '{"warmup_ns": [1, 1, 1], "measurement_ns": [1.5, 1, 1], '
    '"clock_resolution_ns": 1, "executions_at_start": 0}',
], ids=["missing-field", "non-object", "float-duration"])
def test_malformed_result_line_is_an_executor_failure(monkeypatch, line):
    reply_with(monkeypatch, line)
    with pytest.raises(CampaignError, match="vm 0"):
        run_campaign(small_config(), add_spec(), clock=FAKE)


def test_paired_failure_names_the_version(monkeypatch):
    calls = {"n": 0}

    def sabotage_new(config, workload, clock, cpu_affinity=None):
        calls["n"] += 1
        job = REAL_BUILD_JOB(config, workload, clock, cpu_affinity)
        if calls["n"] == 2:  # the first "new" launch of a sequential pair
            return with_broken_size(job)
        return job

    monkeypatch.setattr(harness, "_build_job", sabotage_new)
    with pytest.raises(CampaignError) as excinfo:
        run_paired_campaign(small_config(), add_spec(), add_spec(), clock=FAKE)
    assert excinfo.value.version == "new"
    assert excinfo.value.vm_index == 0


def test_parallel_failure_reaps_both_members(monkeypatch):
    calls = {"n": 0}
    spawned = []
    real_spawn = harness._spawn

    def sabotage_old(config, workload, clock, cpu_affinity=None):
        calls["n"] += 1
        job = REAL_BUILD_JOB(config, workload, clock, cpu_affinity)
        if calls["n"] == 1:  # the "old" member of the first parallel pair
            return with_broken_size(job)
        return job

    def recording_spawn(job):
        proc = real_spawn(job)
        spawned.append(proc)
        return proc

    monkeypatch.setattr(harness, "_build_job", sabotage_old)
    monkeypatch.setattr(harness, "_spawn", recording_spawn)
    with pytest.raises(CampaignError) as excinfo:
        run_paired_campaign(small_config(parallel_pairs=True), add_spec(), add_spec(), clock=FAKE)
    assert excinfo.value.version == "old"
    assert len(spawned) == 2
    assert all(proc.returncode is not None for proc in spawned)


def test_parallel_spawn_failure_reaps_old_member(monkeypatch):
    spawned = []
    real_spawn = harness._spawn

    def failing_second_spawn(job):
        if spawned:  # the "new" member of the first parallel pair
            raise OSError("cannot start the new member")
        proc = real_spawn(job)
        spawned.append(proc)
        return proc

    monkeypatch.setattr(harness, "_spawn", failing_second_spawn)
    with pytest.raises(OSError, match="new member"):
        run_paired_campaign(small_config(parallel_pairs=True), add_spec(), add_spec(), clock=FAKE)
    assert len(spawned) == 1
    assert spawned[0].returncode is not None


LAUNCH_MODES = {
    "campaign": lambda: run_campaign(small_config(), add_spec(), clock=FAKE),
    "sequential pair": lambda: run_paired_campaign(
        small_config(), add_spec(), add_spec(), clock=FAKE
    ),
    "parallel pair": lambda: run_paired_campaign(
        small_config(parallel_pairs=True), add_spec(), add_spec(), clock=FAKE
    ),
}


@pytest.mark.parametrize("mode", sorted(LAUNCH_MODES))
def test_interrupt_while_waiting_reaps_every_child(monkeypatch, mode):
    spawned = []
    real_spawn = harness._spawn

    def recording_spawn(job):
        proc = real_spawn(job)
        spawned.append(proc)
        return proc

    def interrupted_finish(proc, vm_index, version=None):
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
        "clock": {"step_ns": 500},
        "cpu_affinity": None,
    }


def test_execute_job_shapes_and_durations():
    result = execute_job(make_job())
    assert result["warmup_ns"] == [500, 500]
    assert result["measurement_ns"] == [500, 500, 500]
    assert result["clock_resolution_ns"] == 500


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
    with pytest.raises(ClockError):
        execute_job(make_job(), clock=FakeClock(step_ns=-5))


def run_executor(job):
    return subprocess.run(
        [sys.executable, "-m", "perfdelta.executor"],
        input=json.dumps(job),
        capture_output=True,
        text=True,
    )


def test_executor_subprocess_round_trip():
    proc = run_executor(make_job())
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
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
