"""Busy-wait regression injection studies at desk scale.

An injection study repeatedly measures a base workload against the same
workload with a busy-wait delay charged to each (or a fraction of its)
primitive operations, then reports how often the change detector fires.  The
injected variant runs the base loop followed by one busy-wait per timed call
(see :class:`~perfdelta.model.WorkloadSpec`).  Studies with a zero delay
estimate the false-positive rate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .harness import CampaignError, run_paired_campaign
from .model import DecisionConfig, MeasurementConfig, WorkloadSpec
from .stats import decide, summarize
from .workloads import _GOLDEN, SplitMix64, busy_wait_ns


@dataclass(frozen=True)
class TrialOutcome:
    trial: int
    changed: bool | None
    p_value: float | None
    effect_size: float | None
    error: str | None = None


@dataclass(frozen=True)
class StudyReport:
    workload: WorkloadSpec
    delta_ns: int
    subset_fraction: float
    config: MeasurementConfig
    decision: DecisionConfig
    trials: int
    detections: int
    erroneous: int
    detection_rate: float
    mean_effect_size: float | None
    mean_relative_stddev: float | None
    busywait_quantum_ns: int
    outcomes: tuple[TrialOutcome, ...] = field(default_factory=tuple)


def measure_busywait_quantum() -> int:
    """Smallest wall time a 1 ns busy-wait actually consumes on this host.

    An injected delay is one busy-wait per timed call, of ``repetitions *
    round(size * fraction) * delta`` ns, so its overshoot costs about one
    quantum per window, not one per operation.  The quantum is reported with
    each study so that overshoot can be judged against the nominal delay.
    """
    best = None
    for _ in range(200):
        start = time.perf_counter_ns()
        busy_wait_ns(1)
        elapsed = time.perf_counter_ns() - start
        if best is None or elapsed < best:
            best = elapsed
    return best if best is not None else 1


def _trial_seed(seed: int, trial: int) -> int:
    """Output number ``trial`` (from 0) of ``SplitMix64(seed)``.

    Output k is the first output of a generator whose state starts k
    increments further along, so no earlier output is generated.
    """
    return SplitMix64(seed + trial * _GOLDEN).next_u64()


def run_injection_study(
    workload: WorkloadSpec,
    delta_ns: int,
    config: MeasurementConfig,
    decision: DecisionConfig,
    trials: int,
    seed: int = 0,
    subset_fraction: float = 1.0,
    clock=None,
) -> StudyReport:
    """Run ``trials`` paired base-vs-injected campaigns and count detections.

    The injected variant differs from the base only in the busy-wait delta
    (same kind, size and per-trial seed).  Erroneous trials are counted
    separately and never enter the detection rate.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if delta_ns < 0:
        raise ValueError("delta_ns must be >= 0")
    if config.vms < 2:
        raise ValueError("vms must be >= 2: each trial summarizes per-VM means")

    detections = 0
    erroneous = 0
    outcomes: list[TrialOutcome] = []
    effect_sizes: list[float] = []
    relative_stddevs: list[float] = []

    for trial in range(trials):
        trial_seed = _trial_seed(seed, trial)
        base_spec = WorkloadSpec(kind=workload.kind, size=workload.size, seed=trial_seed)
        injected_spec = WorkloadSpec(
            kind=workload.kind,
            size=workload.size,
            injected_delay_ns=delta_ns,
            seed=trial_seed,
            delay_subset_fraction=subset_fraction,
        )
        try:
            base, injected = run_paired_campaign(config, base_spec, injected_spec, clock=clock)
            summary_base = summarize(base)
            summary_injected = summarize(injected)
            outcome = decide(
                summary_base.per_vm_means_ns, summary_injected.per_vm_means_ns, decision
            )
        except CampaignError as exc:
            erroneous += 1
            outcomes.append(TrialOutcome(trial, None, None, None, error=str(exc)))
            continue
        if outcome.changed:
            detections += 1
        effect_sizes.append(outcome.effect_size)
        relative_stddevs.append(summary_base.relative_stddev)
        relative_stddevs.append(summary_injected.relative_stddev)
        outcomes.append(
            TrialOutcome(trial, outcome.changed, outcome.p_value, outcome.effect_size)
        )

    completed = trials - erroneous
    return StudyReport(
        workload=workload,
        delta_ns=delta_ns,
        subset_fraction=subset_fraction,
        config=config,
        decision=decision,
        trials=trials,
        detections=detections,
        erroneous=erroneous,
        detection_rate=detections / completed if completed else 0.0,
        mean_effect_size=sum(effect_sizes) / len(effect_sizes) if effect_sizes else None,
        mean_relative_stddev=(
            sum(relative_stddevs) / len(relative_stddevs) if relative_stddevs else None
        ),
        busywait_quantum_ns=measure_busywait_quantum(),
        outcomes=tuple(outcomes),
    )

