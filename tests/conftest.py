from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from datetime import datetime, timezone
from unittest import mock

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from perfdelta.model import (
    MeasurementConfig,
    MeasurementSeries,
    VmRun,
    WorkloadKind,
    WorkloadSpec,
)

RUN_HARDWARE = os.environ.get("PERFDELTA_RUN_HARDWARE_TESTS") == "1"

hardware_gated = pytest.mark.skipif(
    not RUN_HARDWARE,
    reason="hardware-timing test; set PERFDELTA_RUN_HARDWARE_TESTS=1 to run",
)


def make_series(
    measurement_ns_per_vm,
    repetitions: int = 1,
    warmup_ns_per_vm=None,
    kind: WorkloadKind = WorkloadKind.ADD,
    size: int = 10,
) -> MeasurementSeries:
    """Assemble a valid series from raw per-VM measurement duration lists."""
    vms = len(measurement_ns_per_vm)
    if warmup_ns_per_vm is None:
        warmup_ns_per_vm = [[] for _ in range(vms)]
    warmup_count = len(warmup_ns_per_vm[0])
    config = MeasurementConfig(
        vms=vms,
        warmup_iterations=warmup_count,
        measurement_iterations=len(measurement_ns_per_vm[0]),
        repetitions=repetitions,
    )
    runs = [
        VmRun(i, tuple(warmup_ns_per_vm[i]), tuple(measurement_ns_per_vm[i]))
        for i in range(vms)
    ]
    return MeasurementSeries(
        config=config,
        workload=WorkloadSpec(kind=kind, size=size),
        timestamp=datetime(2024, 1, 1, tzinfo=timezone.utc),
        environment={"os": "test"},
        vm_runs=tuple(runs),
    )


def record_launches(monkeypatch) -> list:
    """Record the real order of executor starts and waits in ``perfdelta.harness``.

    Each start appends ``("spawn",)`` and each wait ``("finish", version,
    vm_index, workload seed)``; both still run the real seams.
    """
    from perfdelta import harness

    events = []
    real_spawn, real_finish = harness._spawn, harness._finish

    def spawn():
        events.append(("spawn",))
        return real_spawn()

    def finish(proc, job, vm_index, version):
        events.append(("finish", version, vm_index, job["workload"]["seed"]))
        return real_finish(proc, job, vm_index, version)

    monkeypatch.setattr(harness, "_spawn", spawn)
    monkeypatch.setattr(harness, "_finish", finish)
    return events


class _ScriptedChild:
    """Stands in for an executor process that reads its job, then exits 0
    after printing ``line``."""

    returncode = 0

    def __init__(self, line: str):
        self.line = line
        self.job = None

    def communicate(self, job: str):
        self.job = json.loads(job)
        return self.line + "\n", ""


def reply_with(monkeypatch, line: str) -> list:
    """Make every executor start in ``perfdelta.harness`` reply ``line``;
    returns the scripted children in start order."""
    from perfdelta import harness

    children = []

    def spawn():
        children.append(_ScriptedChild(line))
        return children[-1]

    monkeypatch.setattr(harness, "_spawn", spawn)
    return children


@dataclass(frozen=True)
class CliResult:
    """What one ``invoke`` printed and its exit code; ``output`` is both streams."""

    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(args, env=None) -> CliResult:
    """Run ``perfdelta.cli.main(args)`` in this process, with stdout, stderr
    and, for the call, the environment variables in ``env`` swapped in."""
    from perfdelta.cli import main

    out, err, code = io.StringIO(), io.StringIO(), 0
    with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ, env or {}):
        try:
            main(list(args))
        except SystemExit as exc:
            code = exc.code or 0
    return CliResult(code, out.getvalue(), err.getvalue())
