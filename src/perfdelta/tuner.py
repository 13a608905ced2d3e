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

The trials are drawn once per plan, not once per cell: the trial rows depend
on the seed, the pool's shape and the number of rounds only
(:func:`_trial_rows`), and a cell of ``vms`` VMs takes their first columns.
Every cell, repetitions value and workload kind is therefore scored on the
same permutations (common random numbers), so the differences the selection
rules compare carry little round noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .model import (
    DecisionConfig,
    MeasurementConfig,
    MeasurementSeries,
    WorkloadKind,
    WorkloadSpec,
    serialize_series,
    to_document,
)
from .stats import decide, per_vm_means, window_matrix
from .workloads import check_memory_budget

#: The monotonicity rule tolerates dips up to this much.  Cells that differ
#: only in iterations share their trial rows, so the round noise of their F1
#: difference is small: at 10,000 rounds, on one 60-VM synthetic pool at
#: gamma 1 and 10 VMs, F1(20 iterations) - F1(10 iterations) had an sd over
#: 12 seeds of 0.0014 (t), 0.0019 (mann-whitney) and 0.0007 (ci), against
#: 0.006-0.010 with a draw of its own for each cell.
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
        object.__setattr__(self, "workload_kinds", tuple(map(WorkloadKind, self.workload_kinds)))
        object.__setattr__(self, "repetitions_grid", tuple(self.repetitions_grid))
        object.__setattr__(self, "vm_grid", tuple(self.vm_grid))
        object.__setattr__(self, "iteration_grid", tuple(self.iteration_grid))
        if not self.workload_kinds:
            raise ValueError("plan needs at least one workload kind")
        for name, least in (("vm_grid", 2), ("iteration_grid", 1), ("repetitions_grid", 1)):
            grid = getattr(self, name)
            if not grid or min(grid) < least:
                raise ValueError(f"{name} must be non-empty with every value >= {least}")
        for name in ("workload_kinds", "vm_grid", "iteration_grid", "repetitions_grid"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat a value")
        if max(self.vm_grid) > self.max_vms:
            raise ValueError("vm_grid exceeds max_vms")
        if max(self.iteration_grid) > self.max_iterations:
            raise ValueError("iteration_grid exceeds max_iterations")
        if self.resamples < 1:
            raise ValueError("resamples must be >= 1")
        if self.delta_ops < 0 or self.delta_ns < 0:
            raise ValueError("deltas must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.synthetic_gamma is not None and not np.isfinite(self.synthetic_gamma):
            raise ValueError(f"synthetic gamma must be finite, got {self.synthetic_gamma}")


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


def _cell(vms: int, iterations: int, repetitions: int, tp: int, fp: int, fn: int,
          tn: int) -> GridCell:
    """The cell of these counts, scored F1 = 2tp / (2tp + fp + fn), or 0 when
    no trial was a true positive, a false positive or a false negative."""
    denominator = 2 * tp + fp + fn
    f1 = 2 * tp / denominator if denominator else 0.0
    return GridCell(vms, iterations, repetitions, f1, tp, fp, fn, tn)


def _equal_warmup(vms: int, iterations: int, repetitions: int) -> MeasurementConfig:
    """The configuration a cell stands for: ``iterations`` warmup windows,
    discarded, then as many measured ones."""
    return MeasurementConfig(vms=vms, warmup_iterations=iterations,
                             measurement_iterations=iterations, repetitions=repetitions)


def _pool_config(plan: TunerPlan, repetitions: int) -> MeasurementConfig:
    """The configuration a recorded or synthetic pool holds: twice the largest
    grid VM count, so a same-version trial of the largest cell draws two
    disjoint halves, and the largest iteration count, so every cell reads
    its warmup and measured windows from the recording."""
    return _equal_warmup(2 * max(plan.vm_grid), max(plan.iteration_grid), repetitions)


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


def _pool_specs(plan: TunerPlan, kind: WorkloadKind) -> tuple[WorkloadSpec, WorkloadSpec]:
    """The base and changed workloads a pool of ``kind`` records."""
    base = WorkloadSpec(kind=kind, size=plan.size_s, seed=plan.seed)
    changed = WorkloadSpec(kind=kind, size=plan.size_s + plan.delta_ops,
                           injected_delay_ns=plan.delta_ns, seed=plan.seed)
    return base, changed


def record_pool(
    plan: TunerPlan,
    kind: WorkloadKind,
    clock=None,
    out_dir=None,
) -> dict[int, MeasurementPool]:
    """Measure base and changed workloads at the maximal configuration.

    Runs the harness at :func:`_pool_config` for each repetitions value, so
    every sub-configuration can be resampled from the recording.  Series
    files are persisted under ``out_dir`` when given.
    """
    from .harness import CampaignError, run_paired_campaign

    base_spec, changed_spec = _pool_specs(plan, kind)
    pools: dict[int, MeasurementPool] = {}
    for repetitions in plan.repetitions_grid:
        try:
            base, changed = run_paired_campaign(_pool_config(plan, repetitions), base_spec,
                                                changed_spec, clock=clock)
        except CampaignError as exc:
            raise CampaignError(
                exc.vm_index,
                f"recording pool for kind={kind.value} repetitions={repetitions}: "
                f"{exc.diagnostics}",
                exc.version,
            ) from exc
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            for label, series in (("base", base), ("changed", changed)):
                path = out / f"pool_{kind.value}_r{repetitions}_{label}.json"
                path.write_bytes(serialize_series(series))
        pools[repetitions] = pool_from_series(base, changed)
    return pools


@lru_cache(maxsize=1)
def _trial_rows(
    seed: int, n_base: int, n_changed: int, resamples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every cell's trial rows for a pool of ``n_base`` and ``n_changed`` VMs.

    Returns ``base``, shape (2 * resamples, n_base), and ``changed``, shape
    (resamples, n_changed), each row a uniform random permutation of its
    version's VMs (a row-wise argsort of uniforms); changed VM j reads
    ``n_base + j``.  A cell of ``vms`` VMs takes the first ``vms`` (or
    ``2 * vms``) columns, so cells of one plan are scored on common random
    numbers.  The rows are read-only and held in the smallest unsigned type
    that indexes both pools.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_base, n_changed, resamples]))
    dtype = np.min_scalar_type(n_base + n_changed)
    base = rng.random((2 * resamples, n_base)).argsort(axis=1).astype(dtype)
    changed = (rng.random((resamples, n_changed)).argsort(axis=1) + n_base).astype(dtype)
    base.flags.writeable = changed.flags.writeable = False
    return base, changed


def estimate_f1(
    pool: MeasurementPool,
    vms: int,
    iterations: int,
    decision: DecisionConfig,
    resamples: int,
    seed: int,
) -> GridCell:
    """Resample the pool and count the detector's confusion matrix.

    Each of the ``resamples`` rounds makes a changed-pair trial, the first
    ``vms`` VMs of a random permutation of each version's pool, and a
    same-version trial, the first ``2 * vms`` VMs of a random permutation of
    the base pool split in two halves.  The base pool must therefore hold at
    least ``2 * vms`` VMs, and ``2 * iterations`` windows for
    :func:`per_vm_means`.  The permutations are the plan's one draw,
    :func:`_trial_rows` of ``seed``, the pool's shape and ``resamples``: a
    cell with other ``vms``, ``iterations`` or repetitions reads the same
    rows.  All trials are decided by one batched :func:`decide` call: rows
    0..resamples-1 are the changed-pair trials, the rest the same-version ones.
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

    base, changed = _trial_rows(seed, n_base, n_changed, resamples)
    old_rows = base[:, :vms]
    new_rows = np.concatenate((changed[:, :vms], base[resamples:, vms : 2 * vms]))

    flags = decide(values[old_rows], values[new_rows], decision).changed
    tp = int(flags[:resamples].sum())
    fp = int(flags[resamples:].sum())
    return _cell(vms, iterations, pool.repetitions, tp, fp, resamples - tp, resamples - fp)


def select_configuration(grid: F1Grid) -> SelectionResult:
    """Apply the three selection rules to a grid.

    A cell qualifies when (1) its F1 meets F1_THRESHOLD and (2) no cell with
    the same VM and repetition counts but more iterations scores lower by
    more than MONOTONICITY_TOLERANCE.  Among qualifiers the cell with the
    fewest VMs wins, then the smallest iterations*repetitions product, then
    the larger repetition count.
    """
    if not grid.cells:
        return SelectionResult(False, "empty grid", None, None)

    def monotone_safe(cell: GridCell) -> bool:
        return all(
            other.f1 >= cell.f1 - MONOTONICITY_TOLERANCE
            for other in grid.cells
            if other.vms == cell.vms
            and other.repetitions == cell.repetitions
            and other.iterations > cell.iterations
        )

    qualifiers = [c for c in grid.cells if c.f1 >= F1_THRESHOLD and monotone_safe(c)]
    best_overall = max(grid.cells, key=lambda c: c.f1)
    if not qualifiers:
        return SelectionResult(
            False, f"no cell reaches F1 >= {F1_THRESHOLD}", None, best_overall
        )

    chosen = min(
        qualifiers,
        key=lambda c: (c.vms, c.iterations * c.repetitions, -c.repetitions, c.iterations),
    )
    config = _equal_warmup(chosen.vms, chosen.iterations, chosen.repetitions)
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
    """Sum the workloads' counts cell by cell and score the pooled counts."""
    cells = []
    for group in zip(*(g.cells for g in grids)):
        counts = [sum(getattr(c, name) for c in group) for name in ("tp", "fp", "fn", "tn")]
        cells.append(_cell(group[0].vms, group[0].iterations, group[0].repetitions, *counts))
    return F1Grid(cells=tuple(cells))


def tune(plan: TunerPlan, out_dir=None) -> TunerReport:
    """Record (or synthesize) pools, estimate the full grid, select the best cell.

    Synthetic pools do not depend on the workload kind, so one grid is
    scored and every kind gets it.
    """
    if plan.synthetic_gamma is not None:
        configs = [_pool_config(plan, repetitions) for repetitions in plan.repetitions_grid]
        pools = {
            c.repetitions: make_synthetic_pool(
                gamma=plan.synthetic_gamma, vms=c.vms,
                depth=c.warmup_iterations + c.measurement_iterations,
                repetitions=c.repetitions, seed=plan.seed)
            for c in configs
        }
        per_workload = dict.fromkeys((k.value for k in plan.workload_kinds),
                                     _estimate_grid(pools, plan))
    else:
        # Refuse an over-budget pool before the first one is recorded; a
        # window's retention grows with repetitions, so the largest decides.
        for kind in plan.workload_kinds:
            for spec in _pool_specs(plan, kind):
                check_memory_budget(spec, max(plan.repetitions_grid))
        per_workload = {kind.value: _estimate_grid(record_pool(plan, kind, out_dir=out_dir), plan)
                        for kind in plan.workload_kinds}

    average = _average_grids(list(per_workload.values()))
    selection = select_configuration(average)
    return TunerReport(
        plan=plan,
        per_workload_grids=per_workload,
        average_grid=average,
        selection=selection,
    )


def report_to_document(report: TunerReport) -> dict:
    """JSON-ready view of a report: its plan and selection."""
    return {"plan": to_document(report.plan), "selection": to_document(report.selection)}
