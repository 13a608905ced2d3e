from dataclasses import replace

import numpy as np
import pytest

from conftest import hardware_gated, make_series
from oracles import ScalarSplitMix64
from perfdelta import injection
from perfdelta.executor import FakeClock
from perfdelta.harness import CampaignError
from perfdelta.injection import measure_busywait_quantum, run_injection_study
from perfdelta.model import (
    DecisionConfig,
    MeasurementConfig,
    StatTest,
    WorkloadKind,
    WorkloadSpec,
    to_document,
)
from perfdelta.power import type_ii_error
from perfdelta.stats import decide

MW = DecisionConfig(test=StatTest.MANN_WHITNEY, alpha=0.01)
WELCH = DecisionConfig(test=StatTest.WELCH_T, alpha=0.01)

TINY = MeasurementConfig(vms=2, warmup_iterations=2, measurement_iterations=2, repetitions=2)
ADD = WorkloadSpec(kind=WorkloadKind.ADD, size=4)
ADD_5NS = replace(ADD, injected_delay_ns=5)


def test_study_structural_outcome_count():
    report = run_injection_study(ADD_5NS, TINY, MW, trials=3, clock=FakeClock(step_ns=1000))
    assert report.trials == 3
    assert len(report.outcomes) == 3
    assert [o.trial for o in report.outcomes] == [0, 1, 2]
    assert 0.0 <= report.detection_rate <= 1.0
    # A constant fake clock yields identical samples: never a detection.
    assert report.detections == 0


def test_study_config_equality_between_variants():
    injected = replace(ADD, injected_delay_ns=50, delay_subset_fraction=0.5)
    report = run_injection_study(injected, TINY, MW, trials=1, clock=FakeClock(step_ns=1000))
    assert report.workload == injected
    assert report.config == TINY
    doc = to_document(report)
    assert doc["workload"] == to_document(injected)
    assert doc["config"]["vms"] == 2
    assert len(doc["outcomes"]) == 1


def test_a_failed_start_ends_the_study(monkeypatch):
    calls = {"n": 0}
    real = injection.run_paired_campaign
    failure = CampaignError(1, "simulated crash", "new")

    def flaky(config, old, new, clock=None):
        calls["n"] += 1
        if calls["n"] == 2:
            raise failure
        return real(config, old, new, clock=clock)

    monkeypatch.setattr(injection, "run_paired_campaign", flaky)
    with pytest.raises(CampaignError) as excinfo:
        run_injection_study(ADD, TINY, MW, trials=3, clock=FakeClock(step_ns=1000))
    assert excinfo.value is failure
    assert (excinfo.value.vm_index, excinfo.value.version) == (1, "new")
    assert calls["n"] == 2


@pytest.mark.parametrize("seed", [0, 1, 0x9E3779B97F4A7C15, 2**63, 2**64 - 1])
def test_trial_seed_is_output_number_trial_of_the_stream(monkeypatch, seed):
    # Trial k hands the campaign its base and its injected spec, both on
    # output k of SplitMix64(seed), differing only in the injected delay.
    handed = []

    def record(config, old, new, clock=None):
        handed.append((old, new))
        return make_series([[100], [101]]), make_series([[100], [101]])

    monkeypatch.setattr(injection, "run_paired_campaign", record)
    injected = WorkloadSpec(kind=WorkloadKind.WRITE, size=7, injected_delay_ns=5, seed=seed,
                            delay_subset_fraction=0.5)
    report = run_injection_study(injected, TINY, MW, trials=4)
    assert [o.trial for o in report.outcomes] == [0, 1, 2, 3]
    stream = ScalarSplitMix64(seed)
    assert len(handed) == 4
    for base, new in handed:
        trial_seed = stream.next_u64()
        assert base == WorkloadSpec(kind=WorkloadKind.WRITE, size=7, seed=trial_seed)
        assert new == replace(injected, seed=trial_seed)
        assert replace(new, injected_delay_ns=0, delay_subset_fraction=1.0) == base


def test_trial_validation():
    with pytest.raises(ValueError):
        run_injection_study(ADD_5NS, TINY, MW, trials=0)


def test_one_vm_rejected_before_any_campaign(monkeypatch):
    calls = []
    monkeypatch.setattr(injection, "run_paired_campaign", lambda *args, **kw: calls.append(args))
    one_vm = MeasurementConfig(vms=1, warmup_iterations=0, measurement_iterations=1,
                               repetitions=1)
    with pytest.raises(ValueError, match="vms must be >= 2"):
        run_injection_study(ADD_5NS, one_vm, MW, trials=3, clock=FakeClock(step_ns=1000))
    assert calls == []


def test_busywait_quantum_positive():
    assert measure_busywait_quantum() >= 1


# --- boundary model ----------------------------------------------------------


def test_prediction_matches_monte_carlo_detection_rate():
    # Cross-check the analytic miss probability against simulated studies on
    # Gaussian per-VM means at moderate effect sizes, each gamma's trials
    # decided in one batch.  A trial draws its old sample, then its new one.
    vms = 30
    alpha = 0.01
    trials = 3000
    rng = np.random.default_rng(99)
    for gamma in (0.5, 1.0, 2.0):
        predicted_rate = 1 - type_ii_error(gamma, vms, alpha)
        draws = rng.standard_normal((trials, 2, vms))
        old, new = 100.0 + draws[:, 0], (100.0 + gamma) + draws[:, 1]
        empirical = decide(old, new, WELCH).changed.mean()
        assert abs(empirical - predicted_rate) <= 0.05, (gamma, empirical, predicted_rate)


# --- hardware-gated end-to-end studies -------------------------------------

REAL = MeasurementConfig(vms=10, warmup_iterations=5, measurement_iterations=5, repetitions=2000)


@hardware_gated
def test_zero_delta_false_positive_rate():
    workload = WorkloadSpec(kind=WorkloadKind.ADD, size=300, seed=1)
    report = run_injection_study(workload, REAL, MW, trials=30)
    assert report.detection_rate <= 0.05


@hardware_gated
def test_large_delta_detection_rate():
    workload = WorkloadSpec(kind=WorkloadKind.ADD, size=300, injected_delay_ns=500, seed=2)
    report = run_injection_study(workload, REAL, MW, trials=10)
    assert report.detection_rate >= 0.95
