"""Busy-wait regression injection studies at desk scale.

An injection study is given the injected workload itself: a
:class:`~perfdelta.model.WorkloadSpec` whose ``injected_delay_ns`` is charged
to ``round(size * delay_subset_fraction)`` of its primitive operations (one
busy-wait per timed call), and whose ``seed`` starts the trial-seed stream.
Each trial measures that spec, on its trial seed, against its base, the same
kind and size with no delay, then the study reports how often the change
detector fires.  Studies with a zero delay estimate the false-positive rate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .harness import run_paired_campaign
from .model import DecisionConfig, MeasurementConfig, WorkloadSpec
from .stats import decide, summarize
from .workloads import SplitMix64, busy_wait_ns


@dataclass(frozen=True)
class TrialOutcome:
    trial: int
    changed: bool
    p_value: float | None
    effect_size: float


@dataclass(frozen=True)
class StudyReport:
    workload: WorkloadSpec
    config: MeasurementConfig
    decision: DecisionConfig
    trials: int
    detections: int
    detection_rate: float
    mean_effect_size: float
    mean_relative_stddev: float
    busywait_quantum_ns: int
    outcomes: tuple[TrialOutcome, ...] = field(default_factory=tuple)


def measure_busywait_quantum() -> int:
    """Smallest wall time a 1 ns busy-wait actually consumes on this host.

    An injected delay is one busy-wait per timed call, of ``repetitions *
    round(size * fraction) * delta`` ns, so its overshoot costs about one
    quantum per window, not one per operation.  The quantum is reported with
    each study so that overshoot can be judged against the nominal delay.
    """
    timings = []
    for _ in range(200):
        start = time.perf_counter_ns()
        busy_wait_ns(1)
        timings.append(time.perf_counter_ns() - start)
    return min(timings)


def run_injection_study(
    workload: WorkloadSpec,
    config: MeasurementConfig,
    decision: DecisionConfig,
    trials: int,
    clock=None,
) -> StudyReport:
    """Run ``trials`` paired base-vs-injected campaigns and count detections.

    ``workload`` is the injected variant.  Trial k runs it on seed ``s_k``,
    output k (from 0) of ``SplitMix64(workload.seed)``, against the base
    ``WorkloadSpec(kind, size, seed=s_k)``, so the two differ only in the
    busy-wait delay.  A failed VM start ends the study: its executor error
    propagates, and no trial is skipped.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if config.vms < 2:
        raise ValueError("vms must be >= 2: each trial summarizes per-VM means")

    outcomes: list[TrialOutcome] = []
    relative_stddevs: list[float] = []
    trial_seeds = SplitMix64(workload.seed).next_block(trials).tolist()

    for trial, trial_seed in enumerate(trial_seeds):
        base_spec = WorkloadSpec(kind=workload.kind, size=workload.size, seed=trial_seed)
        injected_spec = replace(workload, seed=trial_seed)
        base, injected = run_paired_campaign(config, base_spec, injected_spec, clock=clock)
        summary_base = summarize(base)
        summary_injected = summarize(injected)
        outcome = decide(summary_base.per_vm_means_ns, summary_injected.per_vm_means_ns, decision)
        relative_stddevs.append(summary_base.relative_stddev)
        relative_stddevs.append(summary_injected.relative_stddev)
        outcomes.append(TrialOutcome(trial, outcome.changed, outcome.p_value, outcome.effect_size))

    detections = sum(o.changed for o in outcomes)
    return StudyReport(
        workload=workload,
        config=config,
        decision=decision,
        trials=trials,
        detections=detections,
        detection_rate=detections / trials,
        mean_effect_size=sum(o.effect_size for o in outcomes) / trials,
        mean_relative_stddev=sum(relative_stddevs) / len(relative_stddevs),
        busywait_quantum_ns=measure_busywait_quantum(),
        outcomes=tuple(outcomes),
    )
