"""Per-layer metrics of the traced mode, from spans and layer probes.

A workload's own operations reach only some layers; the traced mode runs a
small fixed probe, after the timed loop, for each layer group the workload
did not reach, so every per-layer metric has a value on every workload.  The
probes go through the same wrappers; ``Tracer.select`` prefers spans of the
workload's own operations.  Import times and the codec are always probes:
a fresh ``python -c "import perfdelta.X"``, and one paper-shape series.
"""

from __future__ import annotations

import dataclasses
import random
import statistics

import numpy as np

from common import paper_series, probe_import
from spans import ATTRS, END, NAME, PARENT, START

TESTS = ("t", "mann-whitney", "ci")
IMPORT_SAMPLES = 3
CODEC_SAMPLES = 15
STATS_SAMPLES = 100


def _dur_ns(span) -> int:
    return span[END] - span[START]


def probe(group: str, perfdelta, seed: int) -> None:
    """Reach one layer group through its public calls, at a small fixed size."""
    rng = np.random.default_rng(seed)
    if group == "harness":
        import campaign

        config, base, changed = campaign.specs(random.Random(seed), 0)
        perfdelta.harness.run_paired_campaign(dataclasses.replace(config, vms=2), base, changed)
    elif group in ("stats.summarize", "stats.decide"):
        old, new = paper_series(perfdelta, rng), paper_series(perfdelta, rng, 1.1)
        for _ in range(STATS_SAMPLES):
            means = [perfdelta.stats.summarize(s).per_vm_means_ns for s in (old, new)]
            if group == "stats.decide":
                for test in TESTS:
                    decision = perfdelta.model.DecisionConfig(
                        test=perfdelta.model.StatTest(test))
                    perfdelta.stats.decide(*means, decision)
    elif group == "tuner":
        import tune_synthetic

        for plan in tune_synthetic.plans(random.Random(seed), resamples=20):
            perfdelta.tuner.tune(plan)
    elif group == "model":
        series = paper_series(perfdelta, rng)
        for _ in range(CODEC_SAMPLES):
            perfdelta.model.deserialize_series(perfdelta.model.serialize_series(series))
    else:
        raise ValueError(group)


def metrics(tracer, perfdelta, own_layers: set[str], seed: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    for group in ("harness", "stats.summarize", "stats.decide", "tuner", "model"):
        if group not in own_layers:
            tracer.phase = f"probe:{group}"
            probe(group, perfdelta, seed)
    out: dict[str, tuple[float, str]] = {}
    for module in ("executor", "cli"):
        seconds = [probe_import(f"perfdelta.{module}") for _ in range(IMPORT_SAMPLES)]
        out[f"{module}.import_ms"] = (1000 * statistics.median(seconds), "ms")

    campaigns = tracer.select("harness.run_paired_campaign", "harness")
    starts = sum(s[ATTRS]["starts"] for s in campaigns)
    window_ms = sum(s[ATTRS]["window_ns"] for s in campaigns) / starts / 1e6
    out["executor.window_ms"] = (window_ms, "ms")
    out["harness.overhead_ms"] = (sum(map(_dur_ns, campaigns)) / starts / 1e6 - window_ms, "ms")
    out["harness.vm_mean_rsd"] = (
        statistics.median(r for s in campaigns for r in s[ATTRS]["rsd"]), "1")

    for op in ("serialize", "deserialize"):
        spans = tracer.select(f"model.{op}_series", "model", own=False)
        out[f"model.{op}_ms"] = (statistics.median(map(_dur_ns, spans)) / 1e6, "ms")
    summaries = tracer.select("stats.summarize", "stats.summarize")
    out["stats.summarize_us"] = (statistics.mean(map(_dur_ns, summaries)) / 1e3, "us")
    for test in TESTS:
        spans = tracer.select("stats.decide", "stats.decide", test=test)
        out[f"stats.decide_us.{test}"] = (statistics.mean(map(_dur_ns, spans)) / 1e3, "us")

    estimates = tracer.select("tuner.estimate_f1", "tuner")
    for test in TESTS:
        mine = [s for s in estimates if s[ATTRS]["test"] == test]
        rounds = sum(s[ATTRS]["rounds"] for s in mine)
        out[f"tuner.round_us.{test}"] = (sum(map(_dur_ns, mine)) / rounds / 1e3, "us")
    inside = {id(s) for s in estimates}
    decide_ns = sum(_dur_ns(s) for s in tracer.spans
                    if s[NAME] == "stats.decide" and s[PARENT] is not None
                    and id(tracer.spans[s[PARENT]]) in inside)
    out["tuner.decide_share"] = (decide_ns / sum(map(_dur_ns, estimates)), "1")
    return out
