"""Paths, the child import probe and the paper-shape series shared by the workloads."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Every program child gets this long before the benchmark gives up on it.
CHILD_TIMEOUT_S = 120


class WrongProgram(RuntimeError):
    """perfdelta was imported from somewhere other than the checkout's ``src``."""


def use_checkout_src() -> None:
    """Put the checkout's ``src`` first on the import path of this process and,
    through PYTHONPATH, of every child it starts."""
    sys.path.insert(0, str(SRC))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")


def require_checkout(origin: str) -> None:
    if not Path(origin).resolve().is_relative_to(SRC):
        raise WrongProgram(f"perfdelta imported from {origin}, not from {SRC}")


def probe_import(module: str) -> float:
    """Seconds a fresh interpreter takes to import ``module``; also checks
    that the child finds perfdelta in the checkout."""
    code = f"import {module}, perfdelta; print(perfdelta.__file__)"
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    elapsed = time.perf_counter() - start
    require_checkout(proc.stdout.strip())
    return elapsed


class HostSpeed:
    """Host speed, from a fixed reference process timed next to the operations.

    On a shared 2-CPU host the same operation takes up to 40 % longer for
    minutes at a time.  The reference, a fresh isolated interpreter that
    imports numpy, starts and imports as a VM start or a ``compare`` does and
    slows with them, while no change to perfdelta can move it.  Timings are
    reported scaled by NOMINAL_S over its median time in the run, that is, in
    seconds of a host on which the reference takes NOMINAL_S.
    """

    NOMINAL_S = 0.2
    COMMAND = (sys.executable, "-I", "-c", "import numpy")

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        # Captured output: with a timeout and no pipes to watch, run() would
        # poll for the exit in steps of up to 50 ms.
        subprocess.run(self.COMMAND, check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor that turns a time measured in this run into one at nominal speed."""
        return self.NOMINAL_S / statistics.median(self.samples)


class ChildPeakRss:
    """Highest resident-set high-water mark among the program children alive
    while the context is open, sampled from /proc every ``interval_s``.

    ``getrusage(RUSAGE_CHILDREN)`` cannot serve: a child's ``ru_maxrss`` also
    counts the memory of this process at the time it forked, which here is
    larger than a lean child's own.  A child counts once its command line
    names perfdelta, that is, after its exec.
    """

    def __init__(self, interval_s: float = 0.02):
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def mb(self) -> float:
        return self.peak_kb / 1024

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            for pid in self._children():
                try:
                    if b"perfdelta" not in Path(f"/proc/{pid}/cmdline").read_bytes():
                        continue
                    status = Path(f"/proc/{pid}/status").read_text()
                except OSError:  # the child has just exited
                    continue
                for line in status.splitlines():
                    if line.startswith("VmHWM:"):
                        self.peak_kb = max(self.peak_kb, int(line.split()[1]))

    @staticmethod
    def _children() -> list[str]:
        pids = []
        for task in os.listdir("/proc/self/task"):
            try:
                pids += Path(f"/proc/self/task/{task}/children").read_text().split()
            except OSError:
                continue
        return pids


def paper_series(perfdelta, rng, level: float = 1.0, seed: int = 0):
    """A series of paper shape (30 VMs x 49 warmup + 49 measurement iterations,
    100,000 repetitions) with Gaussian per-VM levels: 2 % spread between VMs,
    1 % within a VM, around 7.6 ns per repetition times ``level``."""
    model = perfdelta.model
    vms, iterations, repetitions = 30, 49, 100_000
    config = model.MeasurementConfig(vms=vms, warmup_iterations=iterations,
                                     measurement_iterations=iterations, repetitions=repetitions)
    runs = []
    for vm in range(vms):
        vm_level = 7.6 * repetitions * level * (1 + 0.02 * rng.standard_normal())
        ns = [max(1, int(round(v))) for v in
              vm_level * (1 + 0.01 * rng.standard_normal(2 * iterations))]
        runs.append(model.VmRun(vm, tuple(ns[:iterations]), tuple(ns[iterations:])))
    return model.MeasurementSeries(
        config=config,
        workload=model.WorkloadSpec(kind=model.WorkloadKind.ADD, size=300, seed=seed),
        timestamp=datetime(2023, 3, 24, tzinfo=timezone.utc),
        environment={"os": "generated", "python": sys.version.split()[0]},
        vm_runs=tuple(runs),
    )
