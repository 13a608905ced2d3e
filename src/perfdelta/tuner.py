"""Measurement-configuration tuning by resampled F1-scores.

A recorded pool holds, per repetitions value, the window matrices
(:func:`stats.window_matrix`) of a base workload (size s) and a changed
workload (size s+d or injected delay).  For every (vms, iterations,
repetitions) cell the change detector's F1-score is estimated by repeated
resampling: changed-pair trials count true positives and false negatives,
same-version trials count false positives and true negatives.  The best
configuration is then selected by threshold, monotonicity and
repetition-count rules.

A configuration with iteration count i consumes recorded windows 1..2i of
each drawn VM and discards the first i as warmup, mirroring the equal-warmup
policy the harness applies when measuring for real: a VM's value is
:func:`stats.per_vm_means` over windows i+1..2i, as ``compare`` would take it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .model import (
    DecisionConfig,
    MeasurementConfig,
    MeasurementSeries,
    WorkloadKind,
    WorkloadSpec,
    to_document,
)
from .stats import decide, per_vm_means, window_matrix

#: Resampling noise at 10,000 rounds is ~±0.005 F1; the monotonicity rule
#: tolerates dips up to this much.
MONOTONICITY_TOLERANCE = 0.005

F1_THRESHOLD = 0.99

#: Synthetic pools: per-VM means are Normal(SYNTHETIC_BASE_MEAN,
#: SYNTHETIC_BETWEEN_VM_SD), iteration values add Normal(0,
#: SYNTHETIC_WITHIN_VM_SD) noise, in ns per repetition.
SYNTHETIC_BASE_MEAN = 100.0
SYNTHETIC_BETWEEN_VM_SD = 1.0
SYNTHETIC_WITHIN_VM_SD = 0.1


@dataclass(frozen=True)
class TunerPlan:
    """Everything needed to record pools and evaluate the configuration grid."""

    workload_kinds: tuple[WorkloadKind, ...]
    size_s: int
    delta_ops: int = 0
    delta_ns: int = 0
    repetitions_grid: tuple[int, ...] = (1000,)
    vm_grid: tuple[int, ...] = (10, 20, 30)
    iteration_grid: tuple[int, ...] = (10, 20, 30)
    max_vms: int = 30
    max_iterations: int = 30
    resamples: int = 10_000
    decision: DecisionConfig = field(default_factory=DecisionConfig)
    seed: int = 0
    synthetic_gamma: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "workload_kinds", tuple(self.workload_kinds))
        object.__setattr__(self, "repetitions_grid", tuple(self.repetitions_grid))
        object.__setattr__(self, "vm_grid", tuple(self.vm_grid))
        object.__setattr__(self, "iteration_grid", tuple(self.iteration_grid))
        if not self.workload_kinds:
            raise ValueError("plan needs at least one workload kind")
        for name, least in (("vm_grid", 2), ("iteration_grid", 1), ("repetitions_grid", 1)):
            grid = getattr(self, name)
            if not grid or min(grid) < least:
                raise ValueError(f"{name} must be non-empty with every value >= {least}")
        if max(self.vm_grid) > self.max_vms:
            raise ValueError("vm_grid exceeds max_vms")
        if max(self.iteration_grid) > self.max_iterations:
            raise ValueError("iteration_grid exceeds max_iterations")
        if self.resamples < 1:
            raise ValueError("resamples must be >= 1")
        if self.delta_ops < 0 or self.delta_ns < 0:
            raise ValueError("deltas must be >= 0")


@dataclass(frozen=True)
class GridCell:
    vms: int
    iterations: int
    repetitions: int
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass(frozen=True)
class F1Grid:
    cells: tuple[GridCell, ...]


@dataclass(frozen=True)
class SelectionResult:
    """Selected configuration, or the best-found cell when nothing qualifies."""

    feasible: bool
    reason: str
    config: MeasurementConfig | None
    cell: GridCell | None


@dataclass
class MeasurementPool:
    """Window durations in ns of both versions, each laid out as
    :func:`stats.window_matrix` does, shape (vms, recorded windows), and the
    repetitions every window ran."""

    base: np.ndarray
    changed: np.ndarray
    repetitions: int


@dataclass
class TunerReport:
    plan: TunerPlan
    per_workload_grids: dict[str, F1Grid]
    average_grid: F1Grid
    selection: SelectionResult
    wall_time_seconds: float


def _f1_score(tp: int, fp: int, fn: int) -> float:
    denominator = 2 * tp + fp + fn
    return 2 * tp / denominator if denominator else 0.0


def pool_from_series(base: MeasurementSeries, changed: MeasurementSeries) -> MeasurementPool:
    """Build a pool from two recorded series (warmup windows kept in front)."""
    if base.config.repetitions != changed.config.repetitions:
        raise ValueError("base and changed series must share a repetitions count")
    return MeasurementPool(window_matrix(base), window_matrix(changed), base.config.repetitions)


def make_synthetic_pool(
    gamma: float,
    vms: int,
    depth: int,
    repetitions: int,
    seed: int,
) -> MeasurementPool:
    """Gaussian stand-in for a recorded pool with a controlled effect size.

    The changed version's per-VM means are slower by ``gamma *
    SYNTHETIC_BETWEEN_VM_SD``.  Iteration values add small within-VM noise
    so per-VM averaging still does something.  Values are drawn in ns per
    repetition and stored as windows of ``repetitions``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, vms, depth, repetitions]))

    def draw(mean: float) -> np.ndarray:
        vm_means = rng.normal(mean, SYNTHETIC_BETWEEN_VM_SD, size=(vms, 1))
        return (vm_means + rng.normal(0.0, SYNTHETIC_WITHIN_VM_SD, size=(vms, depth))) * repetitions

    return MeasurementPool(
        base=draw(SYNTHETIC_BASE_MEAN),
        changed=draw(SYNTHETIC_BASE_MEAN + gamma * SYNTHETIC_BETWEEN_VM_SD),
        repetitions=repetitions,
    )


def pool_vms(plan: TunerPlan) -> int:
    """VMs in a recorded or synthetic pool: at least twice the largest grid
    value, so no cell's resampling round draws the whole pool."""
    return max(plan.max_vms, 2 * max(plan.vm_grid))


def record_pool(
    plan: TunerPlan,
    kind: WorkloadKind,
    clock=None,
    out_dir=None,
) -> dict[int, MeasurementPool]:
    """Measure base and changed workloads at the maximal configuration.

    Runs the harness at :func:`pool_vms` VMs with ``max(iteration_grid)`` warmup
    plus measurement iterations for each repetitions value, so every
    sub-configuration can be resampled from the recording.  Series files are
    persisted under ``out_dir`` when given.
    """
    from .harness import CampaignError, run_paired_campaign
    from .model import serialize_series

    max_i = max(plan.iteration_grid)
    base_spec = WorkloadSpec(kind=kind, size=plan.size_s, seed=plan.seed)
    changed_spec = WorkloadSpec(
        kind=kind,
        size=plan.size_s + plan.delta_ops,
        injected_delay_ns=plan.delta_ns,
        seed=plan.seed,
    )
    pools: dict[int, MeasurementPool] = {}
    for repetitions in plan.repetitions_grid:
        config = MeasurementConfig(
            vms=pool_vms(plan),
            warmup_iterations=max_i,
            measurement_iterations=max_i,
            repetitions=repetitions,
        )
        try:
            base, changed = run_paired_campaign(config, base_spec, changed_spec, clock=clock)
        except CampaignError as exc:
            raise CampaignError(
                exc.vm_index,
                f"recording pool for kind={kind.value} repetitions={repetitions}: "
                f"{exc.diagnostics}",
                exc.version,
            ) from exc
        if out_dir is not None:
            from pathlib import Path

            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            for label, series in (("base", base), ("changed", changed)):
                path = out / f"pool_{kind.value}_r{repetitions}_{label}.json"
                path.write_bytes(serialize_series(series))
        pools[repetitions] = pool_from_series(base, changed)
    return pools


def _round_rng(seed: int, vms: int, iterations: int, repetitions: int, round_idx: int):
    return np.random.default_rng(
        np.random.SeedSequence([seed, vms, iterations, repetitions, round_idx])
    )


def estimate_f1(
    pool: MeasurementPool,
    vms: int,
    iterations: int,
    decision: DecisionConfig,
    resamples: int,
    seed: int,
) -> GridCell:
    """Resample the pool and count the detector's confusion matrix.

    Per round, a changed-pair trial draws ``vms`` VMs without replacement
    from each version's pool, and a same-version trial splits a permutation
    of the base pool into two disjoint subsets of ``vms`` VMs, so the base
    pool must hold at least ``2 * vms`` VMs, and ``2 * iterations`` windows
    for :func:`per_vm_means`.  All trials of the cell are decided by one
    batched :func:`decide` call.
    """
    n_base = pool.base.shape[0]
    n_changed = pool.changed.shape[0]
    if 2 * vms > n_base or vms > n_changed:
        raise ValueError(
            f"cell needs {2 * vms} base and {vms} changed VMs "
            f"but the pool holds {n_base}/{n_changed}"
        )
    # Changed VM j is row n_base + j.
    values = np.concatenate([per_vm_means(m, iterations, 2 * iterations, pool.repetitions)
                             for m in (pool.base, pool.changed)])

    # Each round keeps its own generator and draw order, and only fills index
    # rows: row r holds round r's changed-pair trial and row resamples + r its
    # same-version trial.  The whole cell is then decided in one batch.
    old_rows = np.empty((2 * resamples, vms), dtype=np.intp)
    new_rows = np.empty((2 * resamples, vms), dtype=np.intp)
    for round_idx in range(resamples):
        rng = _round_rng(seed, vms, iterations, pool.repetitions, round_idx)
        old_rows[round_idx] = rng.choice(n_base, size=vms, replace=False)
        new_rows[round_idx] = rng.choice(n_changed, size=vms, replace=False)
        perm = rng.permutation(n_base)
        old_rows[resamples + round_idx] = perm[:vms]
        new_rows[resamples + round_idx] = perm[vms : 2 * vms]
    new_rows[:resamples] += n_base

    changed = decide(values[old_rows], values[new_rows], decision).changed
    tp = int(changed[:resamples].sum())
    fp = int(changed[resamples:].sum())
    fn, tn = resamples - tp, resamples - fp

    return GridCell(
        vms=vms,
        iterations=iterations,
        repetitions=pool.repetitions,
        f1=_f1_score(tp, fp, fn),
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
    )


def select_configuration(
    grid: F1Grid,
    f1_threshold: float = F1_THRESHOLD,
    monotonicity_tolerance: float = MONOTONICITY_TOLERANCE,
) -> SelectionResult:
    """Apply the three selection rules to a grid.

    A cell qualifies when (1) its F1 meets the threshold and (2) no cell with
    the same VM and repetition counts but more iterations scores lower by
    more than the tolerance.  Among qualifiers the cell with the fewest VMs
    wins, then the smallest iterations*repetitions product, then the larger
    repetition count.
    """
    if not grid.cells:
        return SelectionResult(False, "empty grid", None, None)

    def monotone_safe(cell: GridCell) -> bool:
        return all(
            other.f1 >= cell.f1 - monotonicity_tolerance
            for other in grid.cells
            if other.vms == cell.vms
            and other.repetitions == cell.repetitions
            and other.iterations > cell.iterations
        )

    qualifiers = [c for c in grid.cells if c.f1 >= f1_threshold and monotone_safe(c)]
    best_overall = max(grid.cells, key=lambda c: c.f1)
    if not qualifiers:
        return SelectionResult(
            False, f"no cell reaches F1 >= {f1_threshold}", None, best_overall
        )

    chosen = min(
        qualifiers,
        key=lambda c: (c.vms, c.iterations * c.repetitions, -c.repetitions, c.iterations),
    )
    config = MeasurementConfig(
        vms=chosen.vms,
        warmup_iterations=chosen.iterations,
        measurement_iterations=chosen.iterations,
        repetitions=chosen.repetitions,
    )
    return SelectionResult(True, "selected", config, chosen)


def _estimate_grid(
    pools: dict[int, MeasurementPool], plan: TunerPlan
) -> F1Grid:
    cells = []
    for repetitions in plan.repetitions_grid:
        pool = pools[repetitions]
        for vms in plan.vm_grid:
            for iterations in plan.iteration_grid:
                cells.append(
                    estimate_f1(
                        pool, vms, iterations, plan.decision, plan.resamples, plan.seed
                    )
                )
    return F1Grid(cells=tuple(cells))


def _average_grids(grids: list[F1Grid]) -> F1Grid:
    """Average F1 across workloads cell-by-cell; counts are summed."""
    cells = []
    for group in zip(*(g.cells for g in grids)):
        first = group[0]
        cells.append(
            GridCell(
                vms=first.vms,
                iterations=first.iterations,
                repetitions=first.repetitions,
                f1=sum(c.f1 for c in group) / len(group),
                tp=sum(c.tp for c in group),
                fp=sum(c.fp for c in group),
                fn=sum(c.fn for c in group),
                tn=sum(c.tn for c in group),
            )
        )
    return F1Grid(cells=tuple(cells))


def tune(plan: TunerPlan, clock=None, out_dir=None) -> TunerReport:
    """Record (or synthesize) pools, estimate the full grid, select the best cell."""
    started = time.perf_counter()
    per_workload: dict[str, F1Grid] = {}
    for kind in plan.workload_kinds:
        if plan.synthetic_gamma is not None:
            pools = {
                repetitions: make_synthetic_pool(
                    gamma=plan.synthetic_gamma,
                    vms=pool_vms(plan),
                    depth=2 * max(plan.iteration_grid),
                    repetitions=repetitions,
                    seed=plan.seed,
                )
                for repetitions in plan.repetitions_grid
            }
        else:
            pools = record_pool(plan, kind, clock=clock, out_dir=out_dir)
        per_workload[kind.value] = _estimate_grid(pools, plan)

    average = _average_grids(list(per_workload.values()))
    selection = select_configuration(average)
    return TunerReport(
        plan=plan,
        per_workload_grids=per_workload,
        average_grid=average,
        selection=selection,
        wall_time_seconds=time.perf_counter() - started,
    )


def grid_to_csv(grid: F1Grid) -> str:
    lines = ["vms,iterations,repetitions,f1,tp,fp,fn,tn"]
    lines += [
        f"{c.vms},{c.iterations},{c.repetitions},{c.f1!r},{c.tp},{c.fp},{c.fn},{c.tn}"
        for c in grid.cells
    ]
    return "\n".join(lines) + "\n"


def report_to_document(report: TunerReport) -> dict:
    """JSON-ready view of a report: its plan and selection.

    Wall time is left out so report files are byte-identical across reruns
    with the same seed.
    """
    return {"plan": to_document(report.plan), "selection": to_document(report.selection)}
