"""Campaign coordinator: spawns isolated executor processes and assembles series.

Each VM start is a fresh OS process running :func:`executor_command`: an
interpreter started with ``-I -S`` that takes this process's import path
and no ``PYTHON*`` environment variable.  The parent stays single-threaded
and runs one executor at a time, so each VM start is timed alone; a paired
campaign alternates the old and the new version's starts.  Every launch
goes through ``_launch``: when a child fails, its result is bad or the wait
is interrupted, the child is killed and reaped before the error propagates.
Before the first start, ``_launch`` checks each distinct workload against
the memory budget of :func:`~perfdelta.workloads.check_memory_budget`; the
children never check it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

from . import workloads
from .executor import FakeClock, MonotonicClock
from .model import CampaignError, MeasurementConfig, MeasurementSeries, VmRun, WorkloadSpec
from .model import from_document, to_document, utc_now


def _clock_job_entry(clock) -> dict | None:
    if clock is None:
        return None
    if isinstance(clock, FakeClock):
        return {"step_ns": clock.step_ns}
    raise ValueError(f"cannot serialize clock of type {type(clock).__name__} into a job")


def _build_job(config: MeasurementConfig, workload: WorkloadSpec, clock) -> dict:
    return {
        "config": to_document(config),
        "workload": to_document(workload),
        "clock": _clock_job_entry(clock),
    }


#: Interpreter flags of every executor start, also recorded in a series' environment.
_EXECUTOR_FLAGS = ("-I", "-S")

# perfdelta's own root goes first on the handed-over path: it also covers an
# editable install whose import finder does not sit on ``sys.path``.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))


def executor_command() -> list[str]:
    """The command line that starts one executor child.

    ``-I`` drops ``PYTHONPATH``, user site and the working directory from
    the child's path, and ``-S`` skips ``site`` with every ``.pth`` import,
    so the bootstrap hands over perfdelta's root and this process's
    non-empty ``sys.path`` entries instead.  Environment variables outside
    ``PYTHON*`` still reach the child.
    """
    path = [_PACKAGE_ROOT, *(entry for entry in sys.path if entry)]
    bootstrap = (
        f"import sys; sys.path[:0] = {path!r}; "
        "from perfdelta.executor import main; sys.exit(main())"
    )
    return [sys.executable, *_EXECUTOR_FLAGS, "-c", bootstrap]


def _spawn(job: dict) -> subprocess.Popen:
    proc = subprocess.Popen(
        executor_command(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdin is not None
    proc.stdin.write(json.dumps(job))
    proc.stdin.close()
    proc.stdin = None  # communicate() must not touch the already-closed pipe
    return proc


def _finish(proc: subprocess.Popen, vm_index: int, version: str | None = None) -> VmRun:
    """Wait for an executor and turn its result line into a run."""
    out, err = proc.communicate()
    if proc.returncode != 0:
        raise CampaignError(vm_index, err.strip() or f"exit code {proc.returncode}", version)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise CampaignError(vm_index, "executor produced no result line", version)
    try:
        result = from_document(dict, json.loads(lines[-1]))
        run = from_document(VmRun, {**result, "vm_index": vm_index})
        executions = from_document(int, result.get("executions_at_start"), "executions_at_start")
    except ValueError as exc:
        raise CampaignError(vm_index, f"bad result line: {exc}", version) from exc
    if executions != 0:
        raise CampaignError(vm_index, f"executor was not fresh (counter={executions})", version)
    return run


def _environment_metadata(clock) -> dict[str, str]:
    """Describe the host and the campaign's clock, whose resolution is probed
    here in the parent, once per campaign."""
    return {
        "os": platform.platform(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "executor_flags": " ".join(_EXECUTOR_FLAGS),
        "clock_resolution_ns": str((clock or MonotonicClock()).resolution_ns()),
    }


def _launch(config: MeasurementConfig, members, clock) -> dict:
    """Run executor starts in order and assemble one series per version.

    ``members`` lists ``(version, vm_index, workload)`` starts; each is
    spawned and finished before the next one starts, once every distinct
    workload has passed the memory budget.  On any failure or interrupt while
    waiting, the child is killed and reaped, unless it has already exited,
    before the exception propagates.
    """
    for workload in dict.fromkeys(workload for _, _, workload in members):
        workloads.check_memory_budget(workload, config.repetitions)
    runs: dict[str | None, list[VmRun]] = {}
    specs: dict[str | None, WorkloadSpec] = {}
    for version, vm_index, workload in members:
        proc = _spawn(_build_job(config, workload, clock))
        try:
            run = _finish(proc, vm_index, version)
        except BaseException:
            if proc.returncode is None:
                proc.kill()
                proc.communicate()
            raise
        runs.setdefault(version, []).append(run)
        specs[version] = workload
    environment = _environment_metadata(clock)
    timestamp = utc_now()
    return {
        version: MeasurementSeries(
            config=config,
            workload=specs[version],
            timestamp=timestamp,
            environment=environment,
            vm_runs=tuple(version_runs),
        )
        for version, version_runs in runs.items()
    }


def run_campaign(
    config: MeasurementConfig, workload: WorkloadSpec, clock=None
) -> MeasurementSeries:
    """Run ``config.vms`` sequential executor starts and assemble the series."""
    members = [(None, vm_index, workload) for vm_index in range(config.vms)]
    return _launch(config, members, clock)[None]


def run_paired_campaign(
    config: MeasurementConfig,
    workload_old: WorkloadSpec,
    workload_new: WorkloadSpec,
    clock=None,
) -> tuple[MeasurementSeries, MeasurementSeries]:
    """Measure two versions with aligned VM indices, alternating old and new starts."""
    if workload_old.kind is not workload_new.kind:
        raise ValueError("paired campaigns require both workloads to share a kind")
    members = [
        member
        for i in range(config.vms)
        for member in (("old", i, workload_old), ("new", i, workload_new))
    ]
    series = _launch(config, members, clock)
    return series["old"], series["new"]
