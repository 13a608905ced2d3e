"""In-memory spans around perfdelta's public calls, for the traced mode.

The benchmark never edits the program: tracing replaces a module attribute
(``perfdelta.stats.decide``, ``perfdelta.tuner.estimate_f1``, ...) with a
wrapper that records a span and calls the original.  Callers that look the
name up on the module at call time, as ``tuner._estimate_grid`` does for
``estimate_f1`` and ``decide``, go through the wrapper too.

A span is ``[name, start_ns, end_ns, parent, phase, attrs]``; ``parent`` is
the index of the enclosing span or ``None``, ``phase`` says whether the span
came from the untimed set-up (``"setup"``), the workload's own operations
(``"own"``) or the probe of one layer group run after them
(``"probe:<group>"``).  Spans stay in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

NAME, START, END, PARENT, PHASE, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.phase = "own"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), None, parent, self.phase, attrs]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record[END] = time.perf_counter_ns()

    def select(self, name: str, group: str, own: bool = True, **attrs) -> list[list]:
        """Spans called ``name`` with matching attributes: from the workload's
        own operations when ``own`` and it made any, else from the probe of
        layer ``group``.  Spans of the untimed set-up never count."""
        found = [s for s in self.spans
                 if s[NAME] == name and all(s[ATTRS].get(k) == v for k, v in attrs.items())]
        mine = [s for s in found if s[PHASE] == "own"] if own else []
        return mine or [s for s in found if s[PHASE] == f"probe:{group}"]

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, phase, attrs in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "phase": phase, **attrs}) + "\n")


def _vm_mean_rsd(series) -> float:
    """Relative sample stddev of the per-VM means, recomputed apart from perfdelta."""
    reps = series.config.repetitions
    means = [Fraction(sum(r.measurement_ns), len(r.measurement_ns) * reps)
             for r in series.vm_runs]
    return statistics.stdev(map(float, means)) / float(statistics.mean(means))


def instrument(tracer: Tracer) -> None:
    """Wrap the public layer calls the per-layer metrics are built from."""
    import perfdelta.harness as harness
    import perfdelta.model as model
    import perfdelta.stats as stats
    import perfdelta.tuner as tuner

    run_paired = harness.run_paired_campaign

    def run_paired_campaign(config, workload_old, workload_new, *args, **kwargs):
        with tracer.span("harness.run_paired_campaign") as record:
            result = run_paired(config, workload_old, workload_new, *args, **kwargs)
        record[ATTRS].update(
            starts=2 * config.vms,
            window_ns=sum(sum(r.warmup_ns) + sum(r.measurement_ns)
                          for s in result for r in s.vm_runs),
            rsd=[_vm_mean_rsd(s) for s in result],
        )
        return result

    harness.run_paired_campaign = run_paired_campaign

    def plain(module, attr, name):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, wrapper)

    plain(model, "serialize_series", "model.serialize_series")
    plain(model, "deserialize_series", "model.deserialize_series")
    plain(stats, "summarize", "stats.summarize")

    decide = stats.decide

    def traced_decide(old, new, decision):
        with tracer.span("stats.decide", test=decision.test.value):
            return decide(old, new, decision)

    stats.decide = traced_decide
    tuner.decide = traced_decide  # the name tuner.estimate_f1 calls

    estimate = tuner.estimate_f1

    def estimate_f1(pool, vms, iterations, decision, resamples, seed):
        with tracer.span("tuner.estimate_f1", test=decision.test.value, rounds=resamples):
            return estimate(pool, vms, iterations, decision, resamples, seed)

    tuner.estimate_f1 = estimate_f1
