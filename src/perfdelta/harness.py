"""Campaign coordinator: spawns isolated executor processes and assembles series.

Each VM start is a fresh OS process running :func:`executor_command`: an
interpreter started with ``-I -S`` that takes this process's import path
and no ``PYTHON*`` environment variable.  The parent stays single-threaded
and runs one executor at a time, so each VM start is timed alone.  Every
campaign goes through ``_launch``, which maps versions to workloads (one
version for a campaign, ``old`` then ``new`` for a pair) and runs VM index by
VM index, each version's start in turn, so a paired campaign alternates the
old and the new version's starts.  ``_spawn`` starts a child and ``_finish``
hands it its job on standard input and waits; when a child fails, its result
is bad or the wait is interrupted, the child is killed and reaped before the
error propagates.  Before the first start, ``_launch`` checks each distinct
workload against the memory budget of
:func:`~perfdelta.workloads.check_memory_budget`; the children never check it.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import subprocess
import sys

from . import workloads
from .executor import FakeClock, MonotonicClock
from .model import CampaignError, MeasurementConfig, MeasurementSeries, VmRun, WorkloadSpec
from .model import from_document, to_document, utc_now


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


def _spawn() -> subprocess.Popen:
    return subprocess.Popen(
        executor_command(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        errors="replace",  # output that is not UTF-8 still reaches the checks below
    )


def _finish(proc: subprocess.Popen, job: dict, vm_index: int, version: str | None) -> VmRun:
    """Hand an executor its job, wait for it and turn its result line into a run."""
    out, err = proc.communicate(json.dumps(job))
    if proc.returncode < 0:
        raise CampaignError(vm_index, f"killed by {_signal_name(-proc.returncode)}", version)
    if proc.returncode != 0:
        last = err.strip().splitlines()[-1:]  # a traceback's last line names its error
        raise CampaignError(vm_index, last[0] if last else f"exit code {proc.returncode}", version)
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


def _signal_name(signum: int) -> str:
    try:
        return signal.Signals(signum).name
    except ValueError:  # a real-time signal has no name
        return f"signal {signum}"


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


def _launch(config: MeasurementConfig, versions: dict, clock) -> dict:
    """Run executor starts VM index by VM index and assemble one series per version.

    ``versions`` maps each version to its workload; at every VM index each
    version is started in the mapping's order, and each start is finished
    before the next one spawns, once every distinct workload has passed the
    memory budget.  On any failure or interrupt while waiting, the child is
    killed and reaped, unless it has already exited, before the exception
    propagates.
    """
    for workload in dict.fromkeys(versions.values()):
        workloads.check_memory_budget(workload, config.repetitions)
    step_ns = clock.step_ns if isinstance(clock, FakeClock) else None
    jobs = {
        version: {"config": to_document(config), "workload": to_document(workload),
                  "step_ns": step_ns}
        for version, workload in versions.items()
    }
    runs: dict[str | None, list[VmRun]] = {version: [] for version in versions}
    for vm_index in range(config.vms):
        for version, job in jobs.items():
            proc = _spawn()
            try:
                runs[version].append(_finish(proc, job, vm_index, version))
            except BaseException:
                if proc.returncode is None:
                    proc.kill()
                    proc.communicate()
                raise
    environment = _environment_metadata(clock)
    timestamp = utc_now()
    return {
        version: MeasurementSeries(config=config, workload=workload, timestamp=timestamp,
                                   environment=environment, vm_runs=tuple(runs[version]))
        for version, workload in versions.items()
    }


def run_campaign(
    config: MeasurementConfig, workload: WorkloadSpec, clock=None
) -> MeasurementSeries:
    """Run ``config.vms`` sequential executor starts and assemble the series."""
    return _launch(config, {None: workload}, clock)[None]


def run_paired_campaign(
    config: MeasurementConfig,
    workload_old: WorkloadSpec,
    workload_new: WorkloadSpec,
    clock=None,
) -> tuple[MeasurementSeries, MeasurementSeries]:
    """Measure two versions with aligned VM indices, alternating old and new starts."""
    if workload_old.kind is not workload_new.kind:
        raise ValueError("paired campaigns require both workloads to share a kind")
    series = _launch(config, {"old": workload_old, "new": workload_new}, clock)
    return series["old"], series["new"]
