"""Child-side executor: runs one VM start's worth of iterations.

Protocol: the parent writes a single JSON job document to the child's
standard input: ``{"config": ..., "workload": ..., "step_ns": ...}``, the
first two a :class:`MeasurementConfig` and a :class:`WorkloadSpec` in the
layout of :func:`~perfdelta.model.to_document`, read back with
:func:`~perfdelta.model.from_document`, and ``step_ns`` the step of a
:class:`FakeClock` or ``null`` for the monotonic hardware clock.
The child replies with one JSON result line on standard output, holding
exactly ``warmup_ns``, ``measurement_ns`` and ``executions_at_start``.  Exit
code 0 means success; on failure a structured JSON error is written to
standard error and the exit code is nonzero.  The child never probes its
clock's resolution: the parent does that once per campaign and records it as
``clock_resolution_ns`` in the series' environment.

The harness starts each child with :func:`perfdelta.harness.executor_command`:
an interpreter in isolated mode without ``site`` (``-I -S``), whose bootstrap
puts the parent's import path ahead of its own and calls :func:`main`.  No
``PYTHON*`` environment variable reaches the child.  The child imports only
the model and the workloads: numpy loads when a workload builds its random
generator, so an ``allocate`` child never loads it.  The child runs the job
it is given: the parent has already checked its workload against the memory
budget.
"""

from __future__ import annotations

import gc
import json
import sys
import time

from .model import MeasurementConfig, WorkloadSpec, from_document
from .workloads import create_instance


class MonotonicClock:
    """Highest-resolution monotonic clock the platform offers."""

    def read(self) -> int:
        return time.perf_counter_ns()

    def resolution_ns(self) -> int:
        best = None
        for _ in range(2000):
            a = time.perf_counter_ns()
            b = time.perf_counter_ns()
            if b > a and (best is None or b - a < best):
                best = b - a
        return best if best is not None else 1


class FakeClock:
    """Deterministic counter advancing a fixed step per read."""

    def __init__(self, step_ns: int):
        self.step_ns = step_ns
        self._now = 0

    def read(self) -> int:
        value = self._now
        self._now += self.step_ns
        return value

    def resolution_ns(self) -> int:
        return self.step_ns


# Campaigns executed inside this process; a fresh executor process must
# observe zero, which the parent asserts to verify start-level isolation.
_EXECUTED_CAMPAIGNS = 0


def execute_job(job: dict, clock=None) -> dict:
    """Run warmup and measurement iterations as described by ``job``.

    Each iteration brackets exactly ``repetitions`` workload executions
    between two clock reads; the sink is drained outside the timed window.
    Without ``clock``, the job's ``step_ns`` picks a :class:`FakeClock` or,
    when null, the :class:`MonotonicClock`.
    """
    global _EXECUTED_CAMPAIGNS
    executions_at_start = _EXECUTED_CAMPAIGNS
    _EXECUTED_CAMPAIGNS += 1

    config = from_document(MeasurementConfig, job.get("config"), "config")
    spec = from_document(WorkloadSpec, job.get("workload"), "workload")

    if clock is None:
        step_ns = job.get("step_ns")
        clock = (MonotonicClock() if step_ns is None
                 else FakeClock(from_document(int, step_ns, "step_ns")))

    instance = create_instance(spec)

    # Enter the timed loop with empty generations and the import heap frozen
    # out of the collector, so a collection inside a window walks only the
    # workload's own objects and not the ~20,000 the child's imports left.
    gc.collect()
    gc.freeze()
    warmup_ns: list[int] = []
    measurement_ns: list[int] = []
    repetitions = config.repetitions
    for bucket, count in (
        (warmup_ns, config.warmup_iterations),
        (measurement_ns, config.measurement_iterations),
    ):
        for _ in range(count):
            start = clock.read()
            instance.run_repetitions(repetitions)
            end = clock.read()
            if end < start:
                raise RuntimeError(f"clock went backwards: start={start}, end={end}")
            bucket.append(end - start)
            instance.drain()

    return {
        "warmup_ns": warmup_ns,
        "measurement_ns": measurement_ns,
        "executions_at_start": executions_at_start,
    }


def main() -> int:
    try:
        job = from_document(dict, json.loads(sys.stdin.read()))
        result = execute_job(job)
    except Exception as exc:  # structured diagnostics instead of a bare crash
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error), file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(result) + "\n")
    return 0
