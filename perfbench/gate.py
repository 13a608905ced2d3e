"""``gate``: fresh ``python -m perfdelta.cli compare`` processes, the CI path.

Six pairs of paper-shape series files are generated from the seed, two per
test (t, mann-whitney, ci): one pair of identical files and one whose new
series is drawn 10 % slower, five times the 2 % spread between VMs.  A round
runs one ``compare`` per pair.  This is ``cli`` import, ``model`` decoding
and scalar ``stats``, with no VM start and no resampling.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np
import perfdelta
import perfdelta.model as model

from common import CHILD_TIMEOUT_S, OUT, paper_series
from oracle import check_outcome, expected_outcome, per_vm_means, require

TESTS = ("t", "mann-whitney", "ci")
ALPHA = 0.01
SHIFT = 1.10
EXIT_CHANGE = 10


class Workload:
    operation = "compare processes"
    child_module = "perfdelta.cli"
    own_layers: set[str] = set()

    def __init__(self, seed: int, host):
        self.host = host
        self.seed = seed
        self.dir = OUT / f"gate-seed{seed}"
        self.samples_ms: list[float] = []
        self.attempted = self.failed = 0

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.pairs = []
        for test in TESTS:
            for shifted in (False, True):
                old = paper_series(perfdelta, rng, seed=self.seed)
                new = paper_series(perfdelta, rng, SHIFT, self.seed) if shifted else old
                paths = []
                for label, series in (("old", old), ("new", new)):
                    path = self.dir / f"{test}-{'shifted' if shifted else 'same'}-{label}.json"
                    path.write_bytes(model.serialize_series(series))
                    paths.append(str(path))
                self.pairs.append({"test": test, "shifted": shifted, "paths": paths,
                                   "series": (old, new)})

    def warm_up(self) -> None:
        compare(self.pairs[0])

    def expect(self) -> None:
        """Independent decisions from the generated per-VM means."""
        for pair in self.pairs:
            old, new = (per_vm_means(s) for s in pair["series"])
            pair["expected"] = expected_outcome(old, new, pair["test"], ALPHA)
            pair["scale"] = float(statistics.mean(old))

    def round(self) -> None:
        for pair in self.pairs:
            self.attempted += 1
            self.host.sample()
            elapsed, proc = compare(pair)
            if proc.returncode not in (0, EXIT_CHANGE):
                self.failed += 1
                continue
            self.samples_ms.append(1000 * elapsed)
            check(pair, proc.returncode, proc.stdout)

    def finish(self) -> None:
        pass

    def op_ms(self) -> float:
        """Median wall time of one compare process."""
        return statistics.median(self.samples_ms)


def compare(pair) -> tuple[float, subprocess.CompletedProcess]:
    cmd = [sys.executable, "-m", "perfdelta.cli", "compare", *pair["paths"],
           "--test", pair["test"], "--alpha", str(ALPHA)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc


def check(pair, returncode: int, stdout: str) -> None:
    what = f"compare --test {pair['test']} on the {'shifted' if pair['shifted'] else 'identical'} pair"
    want = EXIT_CHANGE if pair["shifted"] else 0
    require(returncode == want, f"{what}: exit {returncode}, expected {want}")
    printed = json.loads(stdout.strip().splitlines()[-1])
    require(printed["test"] == pair["test"] and printed["n_old"] == printed["n_new"] == 30,
            f"{what}: printed {printed}")
    check_outcome(printed, pair["expected"], pair["scale"], what)
