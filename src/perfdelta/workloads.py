"""The three calibration workloads: add, allocate, write.

Each workload performs exactly ``spec.size`` primitive operations per
execution and feeds its accumulated state through an opaque consumption
point when drained, so the work cannot be elided by an optimizer.
``allocate`` retains its records until the drain after each window;
:func:`check_memory_budget` bounds what one window retains, and the harness
applies it in the parent before any child starts.

Randomness comes from a SplitMix64 generator so streams are reproducible
across implementations.  The exact recurrence (all arithmetic mod 2**64):

    state    = state + 0x9E3779B97F4A7C15
    z        = state
    z        = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z        = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output   = z ^ (z >> 31)
"""

from __future__ import annotations

import io
import os
import sys
import time

from .model import WorkloadKind, WorkloadSpec

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Bytes one allocated record retains: the ``[0, 0, 0]`` list the workload
#: builds plus its 8-byte slot in the retaining list.  That is 96 B on
#: CPython 3.11, where tracemalloc reads 95-97 B a record.
RECORD_BYTES = sys.getsizeof([0, 0, 0]) + 8

MEM_BUDGET_ENV_VAR = "PERFDELTA_MEM_BUDGET_BYTES"


class SplitMix64:
    """64-bit shift-based PRNG; see the module docstring for the recurrence."""

    def __init__(self, seed: int):
        # numpy is loaded by the first generator built, never inside a timed
        # window, so a child whose workload draws nothing (allocate) skips it.
        global np
        import numpy as np

        self._state = seed & _MASK64

    def next_block(self, n: int) -> np.ndarray:
        """The next ``n`` outputs of the recurrence as a uint64 array."""
        base = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + np.uint64(self._state)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        z = base
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def busy_wait_ns(delay_ns: int) -> None:
    """Spin on the monotonic clock until ``delay_ns`` have elapsed.

    Sleeping is not an option: the interesting deltas (5 ns) are far below
    sleep granularity.  This always performs at least two clock reads.
    """
    deadline = time.perf_counter_ns() + delay_ns
    while time.perf_counter_ns() < deadline:
        pass


# The opaque consumption point: all sinks are folded into this checksum on
# drain, so the loops feeding them are observable side effects.
_OPAQUE_CHECKSUM = 0


def _consume(value: int) -> None:
    global _OPAQUE_CHECKSUM
    _OPAQUE_CHECKSUM = (_OPAQUE_CHECKSUM ^ value) & _MASK64


class WorkloadInstance:
    """One confined workload executor; not safe to share across threads.

    Two instances built from equal specs (including seed) perform the
    identical operation sequence.  An injected delay never changes that
    sequence: it is one busy-wait after the operations of a timed call.
    """

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        #: Busy-wait nanoseconds added to one execution.
        self.added_ns = spec.injected_delay_ns * round(spec.size * spec.delay_subset_fraction)

    def _run(self, n: int) -> None:
        """Perform the operations of ``n`` executions."""
        raise NotImplementedError

    def run_repetitions(self, n: int) -> None:
        """Execute the workload ``n`` times, then busy-wait ``n * added_ns``."""
        self._run(n)
        if self.added_ns:
            busy_wait_ns(n * self.added_ns)

    def drain(self) -> None:
        """Empty the sink through the opaque consumption point (idempotent)."""
        raise NotImplementedError


class AddWorkload(WorkloadInstance):
    """Sum ``size`` pseudo-random numbers into the sink (mod 2**64)."""

    def __init__(self, spec: WorkloadSpec):
        super().__init__(spec)
        self._rng = SplitMix64(spec.seed)
        self._sum = 0

    def _run(self, n: int) -> None:
        self._add_draws(n * self.spec.size)

    def _add_draws(self, total: int) -> None:
        # Chunked so temporaries stay cache-resident regardless of size.
        acc = self._sum
        chunk = 1 << 13
        while total > 0:
            take = min(chunk, total)
            acc = (acc + int(self._rng.next_block(take).sum(dtype=np.uint64))) & _MASK64
            total -= take
        self._sum = acc

    def drain(self) -> None:
        _consume(self._sum)
        self._sum = 0


class AllocateWorkload(WorkloadInstance):
    """Allocate ``size`` fresh three-integer records, retained until drain."""

    def __init__(self, spec: WorkloadSpec):
        super().__init__(spec)
        self._records: list[list[int]] = []

    def _run(self, n: int) -> None:
        append = self._records.append
        for _ in range(n * self.spec.size):
            append([0, 0, 0])

    def drain(self) -> None:
        _consume(len(self._records))
        self._records.clear()


class WriteWorkload(WorkloadInstance):
    """Generate ``size`` pseudo-random numbers and write their text form
    to an in-memory buffer."""

    def __init__(self, spec: WorkloadSpec):
        super().__init__(spec)
        self._rng = SplitMix64(spec.seed)
        self._count = 0
        self._writer = io.StringIO()

    def _run(self, n: int) -> None:
        write = self._writer.write
        size = self.spec.size
        for _ in range(n):
            block = self._rng.next_block(size)
            write("\n".join(str(int(v)) for v in block))
            write("\n")
        self._count += n * size

    def drain(self) -> None:
        _consume(self._count)
        self._count = 0
        self._writer = io.StringIO()


_INSTANCES = {WorkloadKind.ADD: AddWorkload, WorkloadKind.ALLOCATE: AllocateWorkload,
              WorkloadKind.WRITE: WriteWorkload}


def create_instance(spec: WorkloadSpec) -> WorkloadInstance:
    return _INSTANCES[spec.kind](spec)


def _physical_ram_bytes() -> int:
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):
        return 8 * 1024**3  # conservative fallback when the OS hides RAM size


def default_memory_budget() -> int:
    """25 % of physical RAM, overridable via PERFDELTA_MEM_BUDGET_BYTES, which
    must then be a positive integer in digits."""
    override = os.environ.get(MEM_BUDGET_ENV_VAR)
    if not override:
        return _physical_ram_bytes() // 4
    if not (override.isascii() and override.isdigit() and int(override) > 0):
        raise ValueError(f"{MEM_BUDGET_ENV_VAR} must be a positive integer "
                         f"number of bytes, got {override!r}")
    return int(override)


def check_memory_budget(spec: WorkloadSpec, repetitions: int) -> None:
    """Reject an allocate workload whose one window would retain more than
    :func:`default_memory_budget`.

    A window retains ``spec.size * repetitions`` records of RECORD_BYTES each
    until the drain after it, so the bound does not grow with iterations.
    The budget is read for every kind, so a malformed override is refused
    whatever the workload.
    """
    budget_bytes = default_memory_budget()
    if spec.kind is not WorkloadKind.ALLOCATE:
        return
    needed = spec.size * repetitions * RECORD_BYTES
    if needed > budget_bytes:
        raise ValueError(
            f"allocate workload needs ~{needed} bytes a window "
            f"(size={spec.size} x repetitions={repetitions} x {RECORD_BYTES} B/record) "
            f"but the budget is {budget_bytes} bytes"
        )
