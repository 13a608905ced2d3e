import statistics
import time

import pytest

from conftest import hardware_gated
from perfdelta.model import WorkloadKind, WorkloadSpec
from perfdelta.workloads import (
    MemoryBudgetError,
    SplitMix64,
    busy_wait_ns,
    check_memory_budget,
    create_instance,
)


def spec(kind, size, **kwargs):
    return WorkloadSpec(kind=kind, size=size, **kwargs)


def test_splitmix_scalar_vector_agree():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    scalar = [a.next_u64() for _ in range(100)]
    vector = [int(v) for v in b.next_block(100)]
    assert scalar == vector


def test_splitmix_known_stream_is_stable():
    # Frozen first outputs for seed 0; guards the documented recurrence.
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_add_sum_deterministic():
    expected = 0
    probe = SplitMix64(99)
    for _ in range(4):
        expected = (expected + probe.next_u64()) & ((1 << 64) - 1)
    for _ in range(2):  # independent instances reproduce the identical sum
        inst = create_instance(spec(WorkloadKind.ADD, 4, seed=99))
        inst.run_repetitions(1)
        assert inst.sink_value == expected


def test_add_delay_path_matches_fast_path():
    fast = create_instance(spec(WorkloadKind.ADD, 50, seed=5))
    slow = create_instance(spec(WorkloadKind.ADD, 50, seed=5, injected_delay_ns=1))
    fast.run_repetitions(1)
    slow.run_repetitions(1)
    assert fast.sink_value == slow.sink_value


def test_allocate_retains_then_drains():
    inst = create_instance(spec(WorkloadKind.ALLOCATE, 7))
    inst.run_repetitions(1)
    inst.run_repetitions(1)
    assert inst.record_count == 14
    inst.drain()
    assert inst.record_count == 0
    inst.drain()  # idempotent
    assert inst.record_count == 0


def test_write_counts_and_drains():
    inst = create_instance(spec(WorkloadKind.WRITE, 5, seed=3))
    inst.run_repetitions(1)
    assert inst.written_count == 5
    inst.drain()
    assert inst.written_count == 0


def test_run_repetitions_equals_loop():
    state = {
        WorkloadKind.ADD: lambda inst: inst.sink_value,
        WorkloadKind.ALLOCATE: lambda inst: inst.record_count,
        WorkloadKind.WRITE: lambda inst: (inst.written_count, inst._writer.getvalue()),
    }
    for kind, read in state.items():
        a = create_instance(spec(kind, 13, seed=8))
        b = create_instance(spec(kind, 13, seed=8))
        a.run_repetitions(9)
        for _ in range(9):
            b.run_repetitions(1)
        assert read(a) == read(b), kind


def test_busy_wait_floor():
    delay = 200
    size = 50
    inst = create_instance(spec(WorkloadKind.ADD, size, seed=1, injected_delay_ns=delay))
    for _ in range(50):
        start = time.perf_counter_ns()
        inst.run_repetitions(1)
        elapsed = time.perf_counter_ns() - start
        assert elapsed >= size * delay
    inst.drain()


def test_busy_wait_ns_two_clock_reads_minimum():
    start = time.perf_counter_ns()
    busy_wait_ns(0)
    assert time.perf_counter_ns() >= start


def test_subset_fraction_bounds_delay_targets():
    def added_ns(fraction):
        return create_instance(
            spec(WorkloadKind.ADD, 100, seed=2, injected_delay_ns=3,
                 delay_subset_fraction=fraction)
        ).added_ns

    assert added_ns(1.0) == 300
    assert added_ns(0.5) == 150
    assert added_ns(0.0) == 0
    assert create_instance(spec(WorkloadKind.ADD, 100, seed=2)).added_ns == 0


def test_memory_budget_rejects_oversized_allocate():
    with pytest.raises(MemoryBudgetError):
        check_memory_budget(
            spec(WorkloadKind.ALLOCATE, 10_000_000),
            iterations=10,
            repetitions=1000,
            budget_bytes=10**9,
        )


def test_memory_budget_ignores_other_kinds():
    check_memory_budget(
        spec(WorkloadKind.ADD, 10_000_000), iterations=10, repetitions=1000, budget_bytes=1
    )


def test_memory_budget_env_override(monkeypatch):
    monkeypatch.setenv("PERFDELTA_MEM_BUDGET_BYTES", "1000")
    with pytest.raises(MemoryBudgetError):
        check_memory_budget(spec(WorkloadKind.ALLOCATE, 100), iterations=10, repetitions=10)


def _median_windows_ns(specs, repetitions, windows):
    """Median window of each workload in ``specs``, measured in alternation,
    one window of each per turn, so that host drift moves all of them alike."""
    instances = [create_instance(s) for s in specs]
    times = [[] for _ in instances]
    for _ in range(windows):
        for inst, bucket in zip(instances, times):
            start = time.perf_counter_ns()
            inst.run_repetitions(repetitions)
            bucket.append(time.perf_counter_ns() - start)
            inst.drain()
    return [statistics.median(bucket) for bucket in times]


def test_monotone_cost_in_size():
    for kind in (WorkloadKind.ADD, WorkloadKind.ALLOCATE, WorkloadKind.WRITE):
        samples = 1000 if kind is WorkloadKind.ADD else 200
        medians = _median_windows_ns(
            [spec(kind, size, seed=1) for size in (100, 1000, 10_000)], 1, samples)
        assert medians == sorted(medians), f"{kind}: {medians}"


def test_work_scales_with_size_not_elided():
    # Elision would make both sizes cost the same; honest work scales ~10x.
    # Asserted at >5x: cache and fixed-overhead effects put the measured
    # ratio near but not reliably above 10 on this interpreter.
    [m5] = _median_windows_ns([spec(WorkloadKind.ADD, 10**5, seed=1)], 1, 30)
    [m6] = _median_windows_ns([spec(WorkloadKind.ADD, 10**6, seed=1)], 1, 15)
    assert m6 > 5 * m5, (m5, m6)


def _paired_median_window_ns(size, delta, repetitions, windows):
    """Median window of an ``add`` base and its injected variant."""
    return _median_windows_ns(
        [spec(WorkloadKind.ADD, size, seed=1),
         spec(WorkloadKind.ADD, size, seed=1, injected_delay_ns=delta)], repetitions, windows)


def test_injected_delay_raises_median_by_at_least_size_times_delta():
    base, delayed = _paired_median_window_ns(300, 5, repetitions=1, windows=10_000)
    assert delayed - base >= 300 * 5


def test_injected_delay_adds_at_most_twice_its_nominal_time():
    # The injected variant runs the base loop plus one busy-wait per window,
    # so a window grows by about repetitions * size * delta and not by a
    # per-operation cost of its own.
    size, repetitions, delta = 300, 200, 5
    base, delayed = _paired_median_window_ns(size, delta, repetitions, windows=60)
    assert (delayed - base) / (repetitions * size * delta) <= 2, (base, delayed)


@hardware_gated
def test_small_add_relative_stddev_is_modest():
    # Small workloads should sit below a few percent relative deviation.
    from perfdelta.harness import run_campaign
    from perfdelta.model import MeasurementConfig
    from perfdelta.stats import summarize

    config = MeasurementConfig(
        vms=2, warmup_iterations=5, measurement_iterations=5, repetitions=100_000
    )
    series = run_campaign(config, spec(WorkloadKind.ADD, 300, seed=1))
    summary = summarize(series)
    assert summary.relative_stddev < 0.04
