"""Benchmark of perfdelta on three workloads, run from the root of a checkout.

    python3 perfbench/run.py --workload campaign|gate|tune-synthetic \\
        --seed N --seconds S --trace 0|1

The workload runs whole rounds of its operations in a closed loop from this
one process, with at most one program child alive at a time, until S
seconds have passed.  The program is imported from the checkout's ``src``,
here and in every child.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics, from spans
around perfdelta's public calls, with ``--trace 1``.  See README.md.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402

WORKLOADS = {"campaign": "campaign", "gate": "gate", "tune-synthetic": "tune_synthetic"}
#: Set-up (input generation and the untimed warm-up) runs this many times;
#: ``setup_s`` adds the median to the one-off import time.
SETUP_REPEATS = 3


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (common.SRC / "perfdelta" / "__init__.py").is_file():
        print(f"error: no perfdelta sources under {common.SRC}", file=sys.stderr)
        return 2
    common.use_checkout_src()
    # One CPU for this process and, by inheritance, for every child, so that
    # the host-speed reference runs where the operations run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    module = importlib.import_module(WORKLOADS[args.workload])
    import perfdelta

    try:
        common.require_checkout(perfdelta.__file__)
        import_s = time.perf_counter() - STARTED
        host = common.HostSpeed()
        workload = module.Workload(args.seed, host)
        if workload.child_module:
            common.probe_import(workload.child_module)
    except common.WrongProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    from oracle import CheckFailed
    from spans import Tracer, instrument

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.phase = "setup"
        instrument(tracer)
    common.OUT.mkdir(exist_ok=True)

    setup_s = []
    for _ in range(SETUP_REPEATS):
        host.sample()
        start = time.perf_counter()
        workload.prepare()
        workload.warm_up()
        setup_s.append(time.perf_counter() - start)
    workload.expect()

    failures = []
    if tracer:
        tracer.phase = "own"
    children = common.ChildPeakRss() if workload.child_module else None
    deadline = time.perf_counter() + args.seconds
    with children or contextlib.nullcontext():
        while True:
            try:
                workload.round()
            except CheckFailed as exc:
                failures.append(str(exc))
            if time.perf_counter() >= deadline:
                break
    try:
        workload.finish()
    except CheckFailed as exc:
        failures.append(str(exc))

    if tracer:
        import layers

        print(f"traced op_ms = {host.scale() * workload.op_ms():.6g} at nominal host speed",
              file=sys.stderr)
        metrics = layers.metrics(tracer, perfdelta, workload.own_layers, args.seed)
        tracer.write(common.OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scale = host.scale()
        print(f"host speed: reference median {statistics.median(host.samples):.4f} s over "
              f"{len(host.samples)} samples, scale {scale:.4f}", file=sys.stderr)
        metrics = {
            "setup_s": (scale * (import_s + statistics.median(setup_s)), "s"),
            "op_ms": (scale * workload.op_ms(), "ms"),
            # The process that runs the workload's operation: the program
            # children, or this process where tune() runs in-process.
            "op_rss_mb": (children.mb() if children else rss_mb, "MB"),
            "rss_mb": (rss_mb, "MB"),
        }

    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"{args.workload}: attempted {workload.attempted} {workload.operation}, "
          f"failed {workload.failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
