"""Quick self-test of the benchmark:  python3 perfbench/selftest.py

1. Every correctness check must fail when handed a wrong expectation or a
   corrupted output: a swapped ``gate`` pair, a corrupted round trip, a
   perturbed summary or decision, counts that do not add up, and so on.
2. Every workload runs one round (``--seconds 0``), untraced and traced, and
   must print each metric of BENCHMARK.json with its declared unit, with
   ``correct`` true and no failed operation.

Takes a few minutes, almost all of it in VM starts and ``compare`` processes.
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from contextlib import contextmanager
from datetime import datetime, timezone

import common

common.use_checkout_src()

import numpy as np  # noqa: E402
import perfdelta.model as model  # noqa: E402
import perfdelta.stats as stats  # noqa: E402
import perfdelta.tuner as tuner  # noqa: E402

import campaign  # noqa: E402
import gate  # noqa: E402
import tune_synthetic  # noqa: E402
from oracle import CheckFailed  # noqa: E402

failures: list[str] = []


def must_fail(what: str, action) -> None:
    try:
        action()
    except CheckFailed:
        return
    failures.append(f"the check did not catch: {what}")


def must_pass(what: str, action) -> None:
    try:
        action()
    except CheckFailed as exc:
        failures.append(f"{what} failed on correct data: {exc}")


@contextmanager
def patched(module, name, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


def fake_series(spec, level: float, rng, config):
    runs = [model.VmRun(vm,
                        tuple(int(level * (1 + 0.05 * rng.random()))
                              for _ in range(config.warmup_iterations)),
                        tuple(int(level * (1 + 0.05 * rng.random()))
                              for _ in range(config.measurement_iterations)))
            for vm in range(config.vms)]
    return model.MeasurementSeries(config=config, workload=spec,
                                   timestamp=datetime(2023, 3, 24, tzinfo=timezone.utc),
                                   environment={"os": "selftest"}, vm_runs=tuple(runs))


def campaign_checks() -> None:
    rng = np.random.default_rng(0)
    config, base, changed = campaign.specs(random.Random(0), 0)
    old = fake_series(base, 1e5, rng, config)
    new = fake_series(changed, 8e5, rng, config)
    run = lambda o=old, n=new: campaign.check(o, n, config, base, changed)  # noqa: E731
    must_pass("campaign checks", run)

    short = dataclasses.replace(old, vm_runs=old.vm_runs[:-1],
                                config=dataclasses.replace(config, vms=config.vms - 1))
    must_fail("a series with a VM missing", lambda: run(o=short))
    zero = dataclasses.replace(old.vm_runs[0], measurement_ns=(0,) * config.measurement_iterations)
    must_fail("a zero duration", lambda: run(o=dataclasses.replace(
        old, vm_runs=(zero,) + old.vm_runs[1:])))
    must_fail("a changed version measured as identical", lambda: run(n=old))

    decode = model.deserialize_series

    def corrupt(data):
        series = decode(data)
        first = series.vm_runs[0]
        bumped = dataclasses.replace(first, measurement_ns=(first.measurement_ns[0] + 1,)
                                     + first.measurement_ns[1:])
        return dataclasses.replace(series, vm_runs=(bumped,) + series.vm_runs[1:])

    with patched(model, "deserialize_series", corrupt):
        must_fail("a corrupted round trip", run)

    summarize = stats.summarize
    with patched(stats, "summarize", lambda s: dataclasses.replace(
            summarize(s), mean_ns=summarize(s).mean_ns * (1 + 1e-9))):
        must_fail("a summary mean off by 1e-9", run)

    decide = stats.decide
    with patched(stats, "decide", lambda o, n, d: dataclasses.replace(
            decide(o, n, d), effect_size=decide(o, n, d).effect_size * 1.001)):
        must_fail("an effect size off by 0.1 %", run)
    with patched(stats, "decide", lambda o, n, d: dataclasses.replace(
            decide(o, n, d), statistic=decide(o, n, d).statistic + 0.5)):
        must_fail("a statistic off by 0.5", run)


def gate_checks() -> None:
    workload = gate.Workload(0, common.HostSpeed())
    workload.dir = common.OUT / "selftest-gate"
    workload.prepare()
    workload.expect()
    for pair in workload.pairs:
        old, new = pair["series"]
        outcome = stats.decide(stats.summarize(old).per_vm_means_ns,
                               stats.summarize(new).per_vm_means_ns,
                               model.DecisionConfig(test=model.StatTest(pair["test"]),
                                                    alpha=gate.ALPHA))
        printed = {"changed": outcome.changed, "test": pair["test"],
                   "statistic": outcome.statistic, "p_value": outcome.p_value,
                   "effect_size": outcome.effect_size, "n_old": 30, "n_new": 30}
        code = gate.EXIT_CHANGE if outcome.changed else 0
        name = f"{pair['test']} {'shifted' if pair['shifted'] else 'identical'}"
        must_pass(f"gate checks on {name}", lambda: gate.check(pair, code, json.dumps(printed)))
        swapped = dict(pair, shifted=not pair["shifted"])
        must_fail(f"a swapped gate pair ({name})",
                  lambda: gate.check(swapped, code, json.dumps(printed)))
        if outcome.p_value is not None:
            wrong = dict(printed, p_value=outcome.p_value * 1.01 + 1e-9)
            must_fail(f"a p-value off by 1 % ({name})",
                      lambda: gate.check(pair, code, json.dumps(wrong)))
        else:
            wrong = dict(printed, statistic=outcome.statistic + 1e-3 * pair["scale"])
            must_fail(f"a CI gap off by 0.1 % of the mean ({name})",
                      lambda: gate.check(pair, code, json.dumps(wrong)))


def tune_checks() -> None:
    workload = tune_synthetic.Workload(0, common.HostSpeed())
    plans = tune_synthetic.plans(random.Random(0), resamples=40)
    for plan in plans:
        report = tuner.tune(plan)
        must_pass(f"tune checks on gamma={plan.synthetic_gamma} {plan.decision.test.value}",
                  lambda: tune_synthetic.check_report(plan, report))
    effect, null = plans[0], plans[len(tune_synthetic.TESTS)]

    def with_cells(plan, change):
        report = tuner.tune(plan)
        cells = tuple(change(c) for c in report.per_workload_grids["add"].cells)
        return dataclasses.replace(report, per_workload_grids={"add": tuner.F1Grid(cells)})

    lost = with_cells(effect, lambda c: dataclasses.replace(c, tn=c.tn - 1))
    must_fail("cell counts that do not add up",
              lambda: tune_synthetic.check_report(effect, lost))
    r = effect.resamples
    missed = with_cells(effect, lambda c: dataclasses.replace(c, tp=r // 2, fn=r - r // 2,
                                                              f1=0.5))
    must_fail("F1 under 0.99 on the large effect",
              lambda: tune_synthetic.check_report(effect, missed))
    noisy = with_cells(null, lambda c: dataclasses.replace(c, fp=r // 4, tn=r - r // 4))
    must_fail("a null false-positive share of 25 %",
              lambda: tune_synthetic.check_report(null, noisy))

    workload.first = (effect, tune_synthetic.document(tuner.tune(dataclasses.replace(
        effect, seed=effect.seed + 1))))
    must_fail("a report that differs on the same seed", workload.finish)


def run_checks() -> None:
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    for name in (w["name"] for w in declared["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(common.ROOT / "perfbench" / "run.py"), "--workload", name,
                   "--seed", "7", "--seconds", "0", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=common.ROOT,
                                  timeout=600)
            what = f"{name} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{what}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
                failures.append(f"{what}: {result} {proc.stderr[-2000:]}")
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{what}: printed metrics {got}, declared {want}")
            print(f"selftest: ran {what}", flush=True)


def main() -> int:
    campaign_checks()
    gate_checks()
    tune_checks()
    print("selftest: negative checks done", flush=True)
    run_checks()
    for failure in failures:
        print(f"selftest FAILED: {failure}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
