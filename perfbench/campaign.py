"""``campaign``: sequential paired campaigns, almost all executor and harness.

Each round is one ``harness.run_paired_campaign`` of a base workload against
the same workload doing WORK_FACTOR times its operations, cycling through
add, allocate and write.  The timed windows of a VM start total a few
milliseconds against a start of over a second, so the round measures what a
VM start costs.  Both series then go through serialize, deserialize,
``summarize`` and ``decide`` and are checked against independent values.
"""

from __future__ import annotations

import random
import time

import perfdelta.harness as harness
import perfdelta.model as model
import perfdelta.stats as stats

from oracle import close, expected_outcome, per_vm_means, require, summary, check_outcome

#: (kind, base size, repetitions): each iteration of the base version takes
#: about 0.3-0.5 ms on a 2-CPU host.
KINDS = (("add", 1000, 50), ("allocate", 300, 5), ("write", 300, 2))
WORK_FACTOR = 8
VMS = 4
WARMUP = 3
ITERATIONS = 10
#: With 4 VMs per version the exact Mann-Whitney p-value can reach
#: 2 / C(8, 4) = 0.029, so every test can flag a change at this alpha.
ALPHA = 0.05
TESTS = ("t", "mann-whitney", "ci")


class Workload:
    operation = "VM starts"
    child_module = "perfdelta.executor"
    own_layers = {"harness", "stats.summarize", "stats.decide"}

    def __init__(self, seed: int, host):
        self.host = host
        self.rng = random.Random(seed)
        self.index = seed % len(KINDS)  # the kind of the next campaign
        self.attempted = self.failed = 0
        self.starts = 0
        self.wall_s = 0.0

    def prepare(self) -> None:
        self.inputs = specs(self.rng, self.index)

    def warm_up(self) -> None:
        config, base, _ = self.inputs
        one = model.MeasurementConfig(vms=1, warmup_iterations=config.warmup_iterations,
                                      measurement_iterations=config.measurement_iterations,
                                      repetitions=config.repetitions)
        harness.run_campaign(one, base)

    def expect(self) -> None:
        pass

    def round(self) -> None:
        config, base, changed = specs(self.rng, self.index)
        self.index += 1
        for _ in range(2 * config.vms):
            self.host.sample()
        self.attempted += 2 * config.vms
        start = time.perf_counter()
        try:
            old, new = harness.run_paired_campaign(config, base, changed)
        except harness.CampaignError:
            self.failed += 2 * config.vms
            return
        self.wall_s += time.perf_counter() - start
        self.starts += 2 * config.vms
        check(old, new, config, base, changed)

    def finish(self) -> None:
        pass

    def op_ms(self) -> float:
        """Wall time per VM start, from spawn to parsed result."""
        return 1000 * self.wall_s / self.starts


def specs(rng, index: int):
    """Configuration, base and several-fold workload of the ``index``-th campaign."""
    kind, size, repetitions = KINDS[index % len(KINDS)]
    seed = rng.getrandbits(64)
    config = model.MeasurementConfig(vms=VMS, warmup_iterations=WARMUP,
                                     measurement_iterations=ITERATIONS, repetitions=repetitions)
    base = model.WorkloadSpec(kind=model.WorkloadKind(kind), size=size, seed=seed)
    changed = model.WorkloadSpec(kind=base.kind, size=WORK_FACTOR * size, seed=seed)
    return config, base, changed


def check(old, new, config, base, changed) -> None:
    """Checks of one paired campaign's outputs."""
    for label, series, spec in (("base", old, base), ("changed", new, changed)):
        require(series.workload == spec and len(series.vm_runs) == config.vms,
                f"{label}: {len(series.vm_runs)} VMs of {series.workload}, expected "
                f"{config.vms} of {spec}")
        for run in series.vm_runs:
            require(len(run.warmup_ns) == config.warmup_iterations
                    and len(run.measurement_ns) == config.measurement_iterations,
                    f"{label} vm {run.vm_index}: wrong iteration counts")
            require(all(d > 0 for d in run.warmup_ns + run.measurement_ns),
                    f"{label} vm {run.vm_index}: a duration is not positive")
        data = model.serialize_series(series)
        again = model.serialize_series(model.deserialize_series(data))
        require(again == data, f"{label}: serialize/deserialize/serialize changed the bytes")
    check_decisions(old, new, label=f"{base.kind.value} campaign")


def check_decisions(old, new, label: str) -> None:
    exact_old, exact_new = per_vm_means(old), per_vm_means(new)
    summaries = []
    for series, exact in ((old, exact_old), (new, exact_new)):
        got = stats.summarize(series)
        want = summary(exact)
        for a, e in zip(got.per_vm_means_ns, want["per_vm"], strict=True):
            close(a, e, f"{label} per-VM mean", rel=1e-12)
        close(got.mean_ns, want["mean"], f"{label} mean", rel=1e-12)
        close(got.stddev_ns, want["stddev"], f"{label} stddev")
        close(got.relative_stddev, want["relative_stddev"], f"{label} relative stddev")
        summaries.append(got)
    for test in TESTS:
        outcome = stats.decide(summaries[0].per_vm_means_ns, summaries[1].per_vm_means_ns,
                               model.DecisionConfig(test=model.StatTest(test), alpha=ALPHA))
        require(outcome.changed, f"{label}: {test} misses a {WORK_FACTOR}-fold change")
        actual = {"changed": outcome.changed, "statistic": outcome.statistic,
                  "p_value": outcome.p_value, "effect_size": outcome.effect_size}
        check_outcome(actual, expected_outcome(exact_old, exact_new, test, ALPHA),
                      scale=summaries[0].mean_ns, what=f"{label} {test}")
