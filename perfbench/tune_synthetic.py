"""``tune-synthetic``: ``tuner.tune`` on synthetic Gaussian pools.

A round runs six ``tune`` calls: two plans (a large effect and no effect)
times the three tests, each over a 3 x 2 grid of VM and iteration counts with
RESAMPLES rounds per cell.  Every round makes two scalar ``decide`` calls and
sets up its own random generator, with no process start.  The null plan keeps
the false-positive half of every round in the work.
"""

from __future__ import annotations

import json
import math
import random
import time
from functools import lru_cache

import perfdelta.model as model
import perfdelta.tuner as tuner

from oracle import normal_sf, normal_upper_quantile, require, t_quantile

TESTS = ("t", "mann-whitney", "ci")
VM_GRID = (6, 10, 14)
ITERATION_GRID = (5, 10)
RESAMPLES = 250
#: ``tune`` draws synthetic pools of max(max_vms, 2 * max(vm_grid)) VMs.
POOL_VMS = 2 * max(VM_GRID)
#: (name, effect size in between-VM standard deviations, alpha).  The large
#: effect is tested at a small alpha so that false positives cannot pull F1
#: under 0.99 where every change is found.
PLANS = (("effect", 6.0, 0.001), ("null", 0.0, 0.01))
MISS_LIMIT = 1e-4
F1_FLOOR = 0.99
#: Exact Mann-Whitney p-values are used up to this combined sample size.
EXACT_MW_LIMIT = 14


class Workload:
    operation = "grid cells"
    child_module = None
    own_layers = {"tuner", "stats.decide"}

    def __init__(self, seed: int, host):
        self.host = host
        self.rng = random.Random(seed)
        self.rounds_done = 0
        self.attempted = self.failed = 0
        self.wall_s = 0.0
        self.first: tuple | None = None

    def prepare(self) -> None:
        self.warm_plans = plans(self.rng, resamples=5)

    def warm_up(self) -> None:
        for plan in self.warm_plans:
            tuner.tune(plan)

    def expect(self) -> None:
        pass

    def round(self) -> None:
        round_plans = plans(self.rng)
        self.host.sample()
        self.host.sample()
        reports = []
        for plan in round_plans:
            cells = len(VM_GRID) * len(ITERATION_GRID)
            self.attempted += cells
            start = time.perf_counter()
            reports.append(tuner.tune(plan))
            self.wall_s += time.perf_counter() - start
            self.rounds_done += cells * plan.resamples
        for plan, report in zip(round_plans, reports):
            check_report(plan, report)
        if self.first is None:
            self.first = round_plans[0], document(reports[0])

    def finish(self) -> None:
        """A second ``tune`` with the same plan and seed gives the same document."""
        plan, first = self.first
        require(document(tuner.tune(plan)) == first,
                f"two tune calls with seed {plan.seed} gave different reports")

    def op_ms(self) -> float:
        """``tune`` wall time per resampling round."""
        return 1000 * self.wall_s / self.rounds_done


def plans(rng, resamples: int = RESAMPLES):
    """The six plans of one round: both PLANS times the three tests, one seed."""
    seed = rng.getrandbits(32)
    return [tuner.TunerPlan(
        workload_kinds=(model.WorkloadKind.ADD,), size_s=300,
        vm_grid=VM_GRID, iteration_grid=ITERATION_GRID,
        max_vms=max(VM_GRID), max_iterations=max(ITERATION_GRID), resamples=resamples,
        decision=model.DecisionConfig(test=model.StatTest(test), alpha=alpha),
        seed=seed, synthetic_gamma=gamma)
        for _, gamma, alpha in PLANS for test in TESTS]


def document(report) -> str:
    return json.dumps(tuner.report_to_document(report), sort_keys=True)


@lru_cache(maxsize=None)
def miss_rate(test: str, vms: int, gamma: float, alpha: float) -> float:
    """Closed-form probability that ``test`` misses an effect ``gamma`` with
    ``vms`` VMs per version, in the normal approximation of each test."""
    if test == "mann-whitney" and 2 * vms <= EXACT_MW_LIMIT:
        if 2 / math.comb(2 * vms, vms) >= alpha:
            return 1.0  # the smallest exact p-value cannot get under alpha
    shift = gamma * math.sqrt(vms / 2)
    if test == "t":
        return normal_sf(shift - float(t_quantile(1 - alpha / 2, 2 * vms - 2)))
    if test == "mann-whitney":  # asymptotic relative efficiency 3/pi on Gaussian data
        return normal_sf(shift * math.sqrt(3 / math.pi) - normal_upper_quantile(alpha / 2))
    # Two intervals of half-width t_c * sd / sqrt(vms) are disjoint when the
    # mean difference exceeds their sum.
    return normal_sf(shift - math.sqrt(2) * float(t_quantile(1 - alpha / 2, vms - 1)))


def effective_gamma(gamma: float) -> float:
    """The effect the drawn pools are sure to carry: each pool's mean misses
    the population mean by sqrt(1 / POOL_VMS) standard deviations, so the
    difference of two pools is taken five of its standard errors down."""
    return gamma - 5 * math.sqrt(2 / POOL_VMS)


def null_margin(alpha: float, rounds: int) -> float:
    """Allowance over alpha for the false-positive share of ``rounds`` null trials.

    Given the pool, the trials are independent Bernoulli draws, so four
    binomial standard errors cover the round-to-round noise.  Each trial
    relabels 2 * vms of the POOL_VMS pool VMs, which keeps Mann-Whitney at its
    null rate and CI overlap below it; Welch's t may drift from it by its
    approximation error, allowed up to alpha times the largest share of the
    pool one trial relabels.  README.md gives the figures.
    """
    return 4 * math.sqrt(alpha * (1 - alpha) / rounds) + alpha * 2 * max(VM_GRID) / POOL_VMS


def check_report(plan, report) -> None:
    test, alpha, gamma = plan.decision.test.value, plan.decision.alpha, plan.synthetic_gamma
    what = f"tune {test} gamma={gamma} seed={plan.seed}"
    cells = report.per_workload_grids["add"].cells
    require(len(cells) == len(VM_GRID) * len(ITERATION_GRID), f"{what}: {len(cells)} cells")
    for c in cells:
        require(c.tp + c.fn == plan.resamples and c.fp + c.tn == plan.resamples,
                f"{what}: cell {c.vms}x{c.iterations} counts {c.tp},{c.fn},{c.fp},{c.tn} "
                f"do not add up to {plan.resamples} twice")
        if gamma > 0 and miss_rate(test, c.vms, effective_gamma(gamma), alpha) < MISS_LIMIT:
            require(c.f1 >= F1_FLOOR, f"{what}: F1 {c.f1} < {F1_FLOOR} at {c.vms} VMs, "
                    f"{c.iterations} iterations")
    if gamma == 0:
        trials = sum(c.fp + c.tn for c in cells)
        share = sum(c.fp for c in cells) / trials
        limit = alpha + null_margin(alpha, trials)
        require(share <= limit, f"{what}: false-positive share {share:.4f} > {limit:.4f}")
