"""Command-line entry point.

Exit codes: 0 = success / no change, 2 = validation error, 3 = executor
failure, 10 = change detected (``compare``), so CI gates can distinguish
findings from failures.  Defaults mirror the selected measurement
configuration: Mann-Whitney at alpha 0.01, 30 VMs, 49 warmup plus 49
measurement iterations, 100,000 repetitions.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import injection as injection_mod
from . import power as power_mod
from . import tuner as tuner_mod
from .harness import CampaignError, run_campaign
from .model import (
    DecisionConfig,
    MeasurementConfig,
    SchemaError,
    StatTest,
    WorkloadKind,
    WorkloadSpec,
    deserialize_series,
    serialize_series,
    to_document,
)
from .stats import decide, summarize

EXIT_VALIDATION = 2
EXIT_EXECUTOR = 3
EXIT_CHANGE = 10

DEFAULT_VMS = 30
DEFAULT_ITERATIONS = 49
DEFAULT_REPETITIONS = 100_000

_TEST_NAMES = {
    "t": StatTest.WELCH_T,
    "mann-whitney": StatTest.MANN_WHITNEY,
    "ci": StatTest.CI_OVERLAP,
}


def _int_list(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in value.split(",") if part.strip())
    except ValueError:
        raise click.UsageError(f"expected a comma-separated integer list, got {value!r}")


def _decision(test: str, alpha: float) -> DecisionConfig:
    return DecisionConfig(test=_TEST_NAMES[test], alpha=alpha)


def _load_series(path: str):
    try:
        return deserialize_series(Path(path).read_bytes())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except SchemaError as exc:
        raise ValueError(f"{path}: {exc}") from exc


class _Main(click.Group):
    """Maps every error a command raises to its exit code, in one place.

    ``ValueError`` (bad values, and its subclasses ``SchemaError``,
    ``StatsError`` and ``MemoryBudgetError``) exits 2, ``CampaignError``
    exits 3; anything else propagates unchanged.
    """

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (CampaignError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(EXIT_EXECUTOR if isinstance(exc, CampaignError) else EXIT_VALIDATION)


@click.group(cls=_Main)
def main() -> None:
    """Statistically grounded detection of performance changes."""


@main.command()
@click.option("--workload", "kind", type=click.Choice([k.value for k in WorkloadKind]),
              required=True)
@click.option("--size", type=int, required=True)
@click.option("--vms", type=int, default=DEFAULT_VMS, show_default=True)
@click.option("--warmup", type=int, default=DEFAULT_ITERATIONS, show_default=True)
@click.option("--iterations", type=int, default=DEFAULT_ITERATIONS, show_default=True)
@click.option("--repetitions", type=int, default=DEFAULT_REPETITIONS, show_default=True)
@click.option("--gc", "trigger_gc", is_flag=True, help="Collect the heap between iterations.")
@click.option("--delta-ns", type=int, default=0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def measure(kind, size, vms, warmup, iterations, repetitions, trigger_gc, delta_ns, seed,
            out_path) -> None:
    """Run one measurement campaign and write the series file."""
    config = MeasurementConfig(
        vms=vms,
        warmup_iterations=warmup,
        measurement_iterations=iterations,
        repetitions=repetitions,
        trigger_gc_between_iterations=trigger_gc,
    )
    workload = WorkloadSpec(
        kind=WorkloadKind(kind), size=size, injected_delay_ns=delta_ns, seed=seed
    )
    series = run_campaign(config, workload)
    Path(out_path).write_bytes(serialize_series(series))
    summary = summarize(series) if vms >= 2 else None
    if summary is not None:
        click.echo(
            f"mean_ns={summary.mean_ns:.3f} stddev_ns={summary.stddev_ns:.3f} "
            f"relative_stddev={summary.relative_stddev:.6f}"
        )
    else:
        click.echo("single VM measured; no spread summary")


@main.command()
@click.argument("old_file", type=click.Path(exists=False))
@click.argument("new_file", type=click.Path(exists=False))
@click.option("--test", type=click.Choice(sorted(_TEST_NAMES)), default="mann-whitney",
              show_default=True)
@click.option("--alpha", type=float, default=0.01, show_default=True)
def compare(old_file, new_file, test, alpha) -> None:
    """Decide whether two series files differ; exit 10 when they do."""
    old = _load_series(old_file)
    new = _load_series(new_file)
    decision = _decision(test, alpha)
    outcome = decide(summarize(old).per_vm_means_ns, summarize(new).per_vm_means_ns, decision)
    click.echo(json.dumps({**to_document(outcome), "alpha": alpha}))
    sys.exit(EXIT_CHANGE if outcome.changed else 0)


@main.group(invoke_without_command=True)
@click.option("--gamma", type=float, default=None)
@click.option("--alpha", type=float, default=0.01, show_default=True)
@click.option("--vms", type=int, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--seconds-per-vm", type=float, default=None)
@click.option("--budget", "budget_seconds", type=float, default=None)
@click.option("--parallel/--no-parallel", default=False,
              help="Halve the projected wall time for paired parallel runs.")
@click.pass_context
def power(ctx, gamma, alpha, vms, beta, seconds_per_vm, budget_seconds, parallel) -> None:
    """Evaluate the detectability boundary model."""
    if ctx.invoked_subcommand is not None:
        return
    if gamma is None:
        raise click.UsageError("--gamma is required")
    if (vms is None) == (beta is None):
        raise click.UsageError("provide exactly one of --vms (forward) or --beta (inversion)")
    if (seconds_per_vm is None) != (budget_seconds is None):
        raise click.UsageError("--seconds-per-vm and --budget are given together or not at all")
    if seconds_per_vm is not None and beta is None:
        raise click.UsageError("--seconds-per-vm and --budget check the VMs --beta requires")
    if parallel and seconds_per_vm is None:
        raise click.UsageError("--parallel halves the wall time --seconds-per-vm and --budget check")
    if vms is not None:
        value = power_mod.type_ii_error(gamma, vms, alpha)
        click.echo(f"beta={value!r}")
    elif seconds_per_vm is None:
        click.echo(f"required_vms={power_mod.required_vms(gamma, alpha, beta)}")
    else:
        report = power_mod.feasibility(
            gamma, alpha, beta, seconds_per_vm, budget_seconds, parallel_pairs=parallel
        )
        click.echo(
            f"required_vms={report.required_vms} total_seconds={report.total_seconds!r} "
            f"feasible={str(report.feasible).lower()}"
        )


@power.command()
@click.option("--gammas", required=True, help="Comma-separated effect sizes.")
@click.option("--vms-max", type=int, required=True)
@click.option("--vms-min", type=int, default=2, show_default=True)
@click.option("--alpha", type=float, default=0.01, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def curve(gammas, vms_max, vms_min, alpha, out_path) -> None:
    """Emit the Type II error over a (gamma, vms) grid as CSV."""
    gamma_list = [float(part) for part in gammas.split(",") if part.strip()]
    rows = power_mod.power_curve(gamma_list, range(vms_min, vms_max + 1), alpha)
    text = power_mod.power_curve_csv(rows)
    if out_path:
        Path(out_path).write_text(text)
    else:
        click.echo(text, nl=False)


def _parse_synthetic(value: str | None) -> float | None:
    if value is None:
        return None
    if not value.startswith("gamma="):
        raise click.UsageError("--synthetic expects gamma=<value>")
    return float(value.split("=", 1)[1])


@main.command()
@click.option("--workload", "kinds", type=click.Choice([k.value for k in WorkloadKind]),
              multiple=True, default=("add",), show_default=True)
@click.option("--size", type=int, default=300, show_default=True)
@click.option("--delta", "delta_ops", type=int, default=1, show_default=True,
              help="Operations added to the changed variant.")
@click.option("--delta-ns", type=int, default=0, show_default=True)
@click.option("--vm-grid", default="10,20,30", show_default=True)
@click.option("--iteration-grid", default="10,20,30", show_default=True)
@click.option("--repetitions-grid", default="1000", show_default=True)
@click.option("--test", type=click.Choice(sorted(_TEST_NAMES)), default="mann-whitney",
              show_default=True)
@click.option("--alpha", type=float, default=0.01, show_default=True)
@click.option("--resamples", type=int, default=10_000, show_default=True)
@click.option("--synthetic", default=None, help="gamma=<G>: replace recording with Gaussian pools.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def tune(kinds, size, delta_ops, delta_ns, vm_grid, iteration_grid, repetitions_grid, test,
         alpha, resamples, synthetic, seed, out_dir) -> None:
    """Estimate F1-scores per configuration and select the best one."""
    vm_grid = _int_list(vm_grid)
    iteration_grid = _int_list(iteration_grid)
    repetitions_grid = _int_list(repetitions_grid)
    plan = tuner_mod.TunerPlan(
        workload_kinds=tuple(WorkloadKind(k) for k in kinds),
        size_s=size,
        delta_ops=delta_ops,
        delta_ns=delta_ns,
        repetitions_grid=repetitions_grid,
        vm_grid=vm_grid,
        iteration_grid=iteration_grid,
        max_vms=max(vm_grid),
        max_iterations=max(iteration_grid),
        resamples=resamples,
        decision=_decision(test, alpha),
        seed=seed,
        synthetic_gamma=_parse_synthetic(synthetic),
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = tuner_mod.tune(plan, out_dir=out)
    for kind, grid in report.per_workload_grids.items():
        (out / f"heatmap_{kind}.csv").write_text(tuner_mod.grid_to_csv(grid))
    (out / "heatmap_average.csv").write_text(tuner_mod.grid_to_csv(report.average_grid))
    (out / "report.json").write_text(
        json.dumps(tuner_mod.report_to_document(report), indent=2) + "\n"
    )
    click.echo(f"wall_time_seconds={report.wall_time_seconds:.3f}", err=True)
    if report.selection.feasible:
        cfg = report.selection.config
        click.echo(
            f"selected vms={cfg.vms} iterations={cfg.measurement_iterations} "
            f"repetitions={cfg.repetitions} f1={report.selection.cell.f1!r}"
        )
    else:
        click.echo(f"no feasible configuration: {report.selection.reason}")


@main.command("stddev-sweep")
@click.option("--workload", "kind", type=click.Choice([k.value for k in WorkloadKind]),
              required=True)
@click.option("--sizes", required=True, help="Comma-separated workload sizes.")
@click.option("--vms", type=int, default=3, show_default=True)
@click.option("--warmup", type=int, default=3, show_default=True)
@click.option("--iterations", type=int, default=5, show_default=True)
@click.option("--repetitions", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="CSV output file (default: stdout).")
@click.option("--series-dir", type=click.Path(file_okay=False), default=None,
              help="Directory for the per-size series files.")
def stddev_sweep(kind, sizes, vms, warmup, iterations, repetitions, seed, out_path,
                 series_dir) -> None:
    """Measure each size and emit kind,size,mean,stddev,relative-stddev CSV."""
    if vms < 2:
        raise ValueError("summaries need at least 2 VMs for a defined stddev")
    size_list = _int_list(sizes)
    lines = ["kind,size,mean_ns,stddev_ns,relative_stddev"]
    config = MeasurementConfig(
        vms=vms,
        warmup_iterations=warmup,
        measurement_iterations=iterations,
        repetitions=repetitions,
    )
    for size in size_list:
        workload = WorkloadSpec(kind=WorkloadKind(kind), size=size, seed=seed)
        series = run_campaign(config, workload)
        if series_dir is not None:
            directory = Path(series_dir)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / f"sweep_{kind}_{size}.json").write_bytes(serialize_series(series))
        summary = summarize(series)
        lines.append(
            f"{kind},{size},{summary.mean_ns!r},{summary.stddev_ns!r},"
            f"{summary.relative_stddev!r}"
        )
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        click.echo(text, nl=False)


@main.command()
@click.option("--workload", "kind", type=click.Choice([k.value for k in WorkloadKind]),
              required=True)
@click.option("--size", type=int, default=300, show_default=True)
@click.option("--delta-ns", type=int, default=5, show_default=True)
@click.option("--trials", type=int, default=10, show_default=True)
@click.option("--subset-fraction", type=float, default=1.0, show_default=True)
@click.option("--vms", type=int, default=DEFAULT_VMS, show_default=True)
@click.option("--warmup", type=int, default=DEFAULT_ITERATIONS, show_default=True)
@click.option("--iterations", type=int, default=DEFAULT_ITERATIONS, show_default=True)
@click.option("--repetitions", type=int, default=DEFAULT_REPETITIONS, show_default=True)
@click.option("--parallel/--no-parallel", default=True, show_default=True)
@click.option("--test", type=click.Choice(sorted(_TEST_NAMES)), default="mann-whitney",
              show_default=True)
@click.option("--alpha", type=float, default=0.01, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def inject(kind, size, delta_ns, trials, subset_fraction, vms, warmup, iterations, repetitions,
           parallel, test, alpha, seed, out_path) -> None:
    """Inject a busy-wait regression repeatedly and report the detection rate."""
    config = MeasurementConfig(
        vms=vms,
        warmup_iterations=warmup,
        measurement_iterations=iterations,
        repetitions=repetitions,
        parallel_pairs=parallel,
    )
    workload = WorkloadSpec(kind=WorkloadKind(kind), size=size, seed=seed)
    decision = _decision(test, alpha)
    report = injection_mod.run_injection_study(
        workload, delta_ns, config, decision, trials,
        seed=seed, subset_fraction=subset_fraction,
    )
    Path(out_path).write_text(json.dumps(to_document(report), indent=2) + "\n")
    click.echo(
        f"detection_rate={report.detection_rate!r} detections={report.detections} "
        f"trials={report.trials} erroneous={report.erroneous}"
    )


if __name__ == "__main__":
    main()
