"""Command-line entry point.

Exit codes: 0 = success / no change, 2 = validation error, 3 = executor
failure, 10 = change detected (``compare``), so CI gates can distinguish
findings from failures.  Defaults mirror the selected measurement
configuration: Mann-Whitney at alpha 0.01, 30 VMs, 49 warmup plus 49
measurement iterations, 100,000 repetitions.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import astuple, fields
from pathlib import Path

from .model import (
    CampaignError,
    DecisionConfig,
    MeasurementConfig,
    SchemaError,
    StatTest,
    WorkloadKind,
    WorkloadSpec,
    deserialize_series,
    serialize_series,
    to_csv,
    to_document,
)
from .stats import decide, summarize

EXIT_VALIDATION = 2
EXIT_EXECUTOR = 3
EXIT_CHANGE = 10

_KINDS = [kind.value for kind in WorkloadKind]
_TESTS = [test.value for test in StatTest]


class _Parser(argparse.ArgumentParser):
    """Takes ``--help`` (no ``-h``) and no abbreviated option, shows each
    default in ``--help`` and reports a usage error as one ``error: …`` line
    with exit code 2."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def add_argument(self, *flags, **kwargs):
        default = kwargs.get("default")
        if default is not None and default is not argparse.SUPPRESS:
            kwargs["help"] = f"{kwargs.get('help', '')} [default: %(default)s]".lstrip()
        return super().add_argument(*flags, **kwargs)

    def error(self, message: str):
        self.exit(EXIT_VALIDATION, f"error: {message}\n")


def _list(kind: type):
    """An argument type for a non-empty comma-separated list of ``kind``."""

    def parse(value: str) -> tuple:
        items = tuple(kind(part) for part in value.split(",") if part.strip())
        if not items:
            raise argparse.ArgumentTypeError("expected a non-empty comma-separated list")
        return items

    # argparse names the type in its "invalid ... value" message.
    parse.__name__ = f"comma-separated {kind.__name__} list"
    return parse


def _out(value: str, directory: bool = False) -> str:
    """An output path that is not an existing file of the other kind, and a
    file whose directory exists, so no campaign runs only to fail on writing
    its result.  A directory output is created with its parents."""
    path = Path(value)
    if path.exists() and path.is_dir() != directory:
        raise argparse.ArgumentTypeError(f"{value!r} is {'not ' if directory else ''}a directory")
    if not directory and not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"{value!r} is not in an existing directory")
    return value


def _synthetic(value: str) -> float:
    name, _, number = value.partition("=")
    if name == "gamma":
        try:
            return float(number)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"expected gamma=<value>, got {value!r}")


def _config(args) -> MeasurementConfig:
    return MeasurementConfig(vms=args.vms, warmup_iterations=args.warmup,
                             measurement_iterations=args.iterations,
                             repetitions=args.repetitions)


def _decision(args) -> DecisionConfig:
    return DecisionConfig(test=args.test, alpha=args.alpha)


def _load_series(path: str):
    try:
        return deserialize_series(Path(path).read_bytes())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except SchemaError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _measure(args) -> None:
    """Run one measurement campaign and write the series file."""
    from .harness import run_campaign

    config = _config(args)
    workload = WorkloadSpec(kind=args.kind, size=args.size,
                            injected_delay_ns=args.delta_ns, seed=args.seed)
    series = run_campaign(config, workload)
    Path(args.out_path).write_bytes(serialize_series(series))
    if args.vms >= 2:
        summary = summarize(series)
        print(f"mean_ns={summary.mean_ns:.3f} stddev_ns={summary.stddev_ns:.3f} "
              f"relative_stddev={summary.relative_stddev:.6f}")
    else:
        print("single VM measured; no spread summary")


def _compare(args) -> int:
    """Decide whether two series files differ; exit 10 when they do."""
    old = summarize(_load_series(args.old_file))
    new = summarize(_load_series(args.new_file))
    outcome = decide(old.per_vm_means_ns, new.per_vm_means_ns, _decision(args))
    print(json.dumps({**to_document(outcome), "alpha": args.alpha}))
    return EXIT_CHANGE if outcome.changed else 0


def _power(args) -> None:
    """Evaluate the detectability boundary model."""
    from . import power

    if args.gamma is None:
        raise ValueError("--gamma is required")
    if (args.vms is None) == (args.beta is None):
        raise ValueError("provide exactly one of --vms (forward) or --beta (inversion)")
    if (args.seconds_per_vm is None) != (args.budget_seconds is None):
        raise ValueError("--seconds-per-vm and --budget are given together or not at all")
    if args.seconds_per_vm is not None and args.beta is None:
        raise ValueError("--seconds-per-vm and --budget check the VMs --beta requires")
    durations = (args.seconds_per_vm, args.budget_seconds)
    if args.seconds_per_vm is not None and not all(0 < d < float("inf") for d in durations):
        raise ValueError("--seconds-per-vm and --budget must be positive and finite")
    if args.vms is not None:
        print(f"beta={power.type_ii_error(args.gamma, args.vms, args.alpha)!r}")
        return
    vms = power.required_vms(args.gamma, args.alpha, args.beta)
    if args.seconds_per_vm is None:
        print(f"required_vms={vms}")
    else:  # the budget boundary is inclusive
        total = vms * args.seconds_per_vm
        print(f"required_vms={vms} total_seconds={total!r} "
              f"feasible={str(total <= args.budget_seconds).lower()}")


def _curve(args) -> None:
    """Emit the Type II error over a (gamma, vms) grid as CSV."""
    from . import power

    if args.vms_min > args.vms_max:
        raise ValueError(f"--vms-min {args.vms_min} exceeds --vms-max {args.vms_max}")
    rows = power.power_curve(args.gammas, range(args.vms_min, args.vms_max + 1), args.alpha)
    _emit(to_csv(("gamma", "vms", "alpha", "beta"), rows), args.out_path)


def _tune(args) -> None:
    """Estimate F1-scores per configuration and select the best one."""
    from . import tuner

    plan = tuner.TunerPlan(
        workload_kinds=args.kinds or ("add",),
        size_s=args.size,
        delta_ops=args.delta_ops,
        delta_ns=args.delta_ns,
        repetitions_grid=args.repetitions_grid,
        vm_grid=args.vm_grid,
        iteration_grid=args.iteration_grid,
        max_vms=max(args.vm_grid),
        max_iterations=max(args.iteration_grid),
        resamples=args.resamples,
        decision=_decision(args),
        seed=args.seed,
        synthetic_gamma=args.synthetic,
    )
    out = Path(args.out_dir)
    started = time.perf_counter()
    report = tuner.tune(plan, out_dir=out)
    wall_time_seconds = time.perf_counter() - started
    out.mkdir(parents=True, exist_ok=True)
    columns = [f.name for f in fields(tuner.GridCell)]
    grids = {**report.per_workload_grids, "average": report.average_grid}
    for name, grid in grids.items():
        rows = (astuple(cell) for cell in grid.cells)
        (out / f"heatmap_{name}.csv").write_text(to_csv(columns, rows))
    (out / "report.json").write_text(json.dumps(tuner.report_to_document(report), indent=2) + "\n")
    print(f"wall_time_seconds={wall_time_seconds:.3f}", file=sys.stderr)
    if report.selection.feasible:
        cfg = report.selection.config
        print(f"selected vms={cfg.vms} iterations={cfg.measurement_iterations} "
              f"repetitions={cfg.repetitions} f1={report.selection.cell.f1!r}")
    else:
        print(f"no feasible configuration: {report.selection.reason}")


def _stddev_sweep(args) -> None:
    """Measure each size and emit kind,size,mean,stddev,relative-stddev CSV."""
    from .harness import run_campaign
    from .workloads import check_memory_budget

    if args.vms < 2:
        raise ValueError("summaries need at least 2 VMs for a defined stddev")
    rows = []
    config = _config(args)
    sweep = [WorkloadSpec(kind=args.kind, size=size, seed=args.seed)
             for size in args.sizes]
    for workload in sweep:  # refuse an over-budget size before the first campaign
        check_memory_budget(workload, config.repetitions)
    for workload in sweep:
        series = run_campaign(config, workload)
        if args.series_dir is not None:
            directory = Path(args.series_dir)
            directory.mkdir(parents=True, exist_ok=True)
            name = f"sweep_{args.kind}_{workload.size}.json"
            (directory / name).write_bytes(serialize_series(series))
        summary = summarize(series)
        rows.append((args.kind, workload.size, summary.mean_ns, summary.stddev_ns,
                     summary.relative_stddev))
    columns = ("kind", "size", "mean_ns", "stddev_ns", "relative_stddev")
    _emit(to_csv(columns, rows), args.out_path)


def _inject(args) -> None:
    """Inject a busy-wait regression repeatedly and report the detection rate."""
    from .injection import run_injection_study

    workload = WorkloadSpec(kind=args.kind, size=args.size,
                            injected_delay_ns=args.delta_ns, seed=args.seed,
                            delay_subset_fraction=args.subset_fraction)
    report = run_injection_study(workload, _config(args), _decision(args), args.trials)
    Path(args.out_path).write_text(json.dumps(to_document(report), indent=2) + "\n")
    print(f"detection_rate={report.detection_rate!r} detections={report.detections} "
          f"trials={report.trials}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _campaign_options(parser, vms=30, warmup=49, iterations=49, repetitions=100_000) -> None:
    parser.add_argument("--workload", dest="kind", choices=_KINDS, required=True)
    parser.add_argument("--vms", type=int, default=vms)
    parser.add_argument("--warmup", type=int, default=warmup)
    parser.add_argument("--iterations", type=int, default=iterations)
    parser.add_argument("--repetitions", type=int, default=repetitions)
    parser.add_argument("--seed", type=int, default=0)


def _decision_options(parser) -> None:
    parser.add_argument("--test", choices=_TESTS, default=StatTest.MANN_WHITNEY.value)
    parser.add_argument("--alpha", type=float, default=0.01)


def _parser() -> _Parser:
    parser = _Parser(prog="perfdelta",
                     description="Statistically grounded detection of performance changes.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(subparsers, name: str, run) -> _Parser:
        sub = subparsers.add_parser(name, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    p = command(commands, "measure", _measure)
    _campaign_options(p)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--delta-ns", type=int, default=0)
    p.add_argument("--out", dest="out_path", type=_out, required=True)

    p = command(commands, "compare", _compare)
    p.add_argument("old_file")
    p.add_argument("new_file")
    _decision_options(p)

    p = command(commands, "power", _power)
    p.add_argument("--gamma", type=float)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--vms", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--seconds-per-vm", type=float,
                   help="Wall time of one VM index's old and new start together.")
    p.add_argument("--budget", dest="budget_seconds", type=float)
    p = command(p.add_subparsers(metavar="COMMAND"), "curve", _curve)
    p.add_argument("--gammas", type=_list(float), required=True,
                   help="Comma-separated effect sizes.")
    p.add_argument("--vms-max", type=int, required=True)
    p.add_argument("--vms-min", type=int, default=2)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--out", dest="out_path", type=_out)

    p = command(commands, "tune", _tune)
    p.add_argument("--workload", dest="kinds", choices=_KINDS, action="append",
                   help="Repeat for several workloads. [default: add]")
    p.add_argument("--size", type=int, default=300)
    p.add_argument("--delta", dest="delta_ops", type=int, default=1,
                   help="Operations added to the changed variant.")
    p.add_argument("--delta-ns", type=int, default=0)
    p.add_argument("--vm-grid", type=_list(int), default="10,20,30")
    p.add_argument("--iteration-grid", type=_list(int), default="10,20,30")
    p.add_argument("--repetitions-grid", type=_list(int), default="1000")
    _decision_options(p)
    p.add_argument("--resamples", type=int, default=10_000)
    p.add_argument("--synthetic", type=_synthetic,
                   help="gamma=<G>: replace recording with Gaussian pools.")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="out_dir", type=lambda v: _out(v, directory=True), required=True)

    p = command(commands, "stddev-sweep", _stddev_sweep)
    _campaign_options(p, vms=3, warmup=3, iterations=5, repetitions=100)
    p.add_argument("--sizes", type=_list(int), required=True,
                   help="Comma-separated workload sizes.")
    p.add_argument("--out", dest="out_path", type=_out,
                   help="CSV output file (default: stdout).")
    p.add_argument("--series-dir", type=lambda v: _out(v, directory=True),
                   help="Directory for the per-size series files.")

    p = command(commands, "inject", _inject)
    _campaign_options(p)
    p.add_argument("--size", type=int, default=300)
    p.add_argument("--delta-ns", type=int, default=5)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--subset-fraction", type=float, default=1.0)
    _decision_options(p)
    p.add_argument("--out", dest="out_path", type=_out, required=True)
    return parser


def main(argv: list[str] | None = None) -> None:
    """Run one command and exit with its code; a ``ValueError`` exits 2, a
    ``CampaignError`` 3, and anything else propagates unchanged."""
    args = _parser().parse_args(argv)
    try:
        code = args.run(args)
    except (CampaignError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_EXECUTOR if isinstance(exc, CampaignError) else EXIT_VALIDATION
    sys.exit(code)


if __name__ == "__main__":
    main()
