"""Check that the tests kill a fixed list of one-line mutants of the program.

    python3 tools/mutants.py

Each entry of MUTANTS names a file under ``src``, one of its lines as it
stands (stripped, and found exactly once), the line that replaces it and
the test files that must then fail.  The script copies ``src`` and
``tests`` to a temporary directory, checks that the unmutated copy passes
the union of those test files, and then applies the entries one at a time,
running ``pytest -x`` on each entry's test files.  The repository is never
edited and no mutation package is used.  It exits 1 unless every entry is
killed.  EQUIVALENT lists mutants that no test can kill, with the reason;
their lines are only checked to exist, so the list follows the code.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    why: str = ""


STATS = "src/perfdelta/stats.py"
TUNER = "src/perfdelta/tuner.py"
POWER = "src/perfdelta/power.py"
HARNESS = "src/perfdelta/harness.py"

MUTANTS = (
    # Kernels and models.
    Mutant(STATS, "below = size < c[k] * (1 - 1e-9)  # ten times t_quantile's tested error",
           "below = size < c[k - 1] * (1 - 1e-9)", ("tests/test_stats.py",),
           "the Welch screen's lower critical value taken at k, not k + 1"),
    Mutant(STATS, "k, size = df[rows].astype(np.intp), np.abs(t[rows])  # k = ⌊df⌋, as df >= 1",
           "k, size = np.ceil(df[rows]).astype(np.intp), np.abs(t[rows])",
           ("tests/test_stats.py",), "the Welch screen indexed by ⌈df⌉, not ⌊df⌋"),
    Mutant(STATS, "c = np.array([t_quantile(1.0 - alpha / 2.0, k) for k in range(1, n + 1)])",
           "c = np.array([t_quantile(1.0 - alpha / 2.0, k) for k in range(1, n)])",
           ("tests/test_stats.py",), "the critical values stopping at c(n1 + n2 - 1)"),
    Mutant(STATS, "@lru_cache(maxsize=64)", "@lru_cache(maxsize=0)", ("tests/test_stats.py",),
           "the critical values computed anew for every batch"),
    Mutant(STATS, "midrank_shift = np.where(is_old[rows], first + last - 2.0 * position, 0.0)",
           "midrank_shift = np.where(is_old[rows], 2.0 * first - 2.0 * position, 0.0)",
           ("tests/test_stats.py",), "a tied old value ranked first in its run, not at its midrank"),
    Mutant(STATS, "u1 = (twice - n1 * (n1 - 1)) / 2.0", "u1 = (twice - n1 * (n1 + 1)) / 2.0",
           ("tests/test_stats.py",), "U1 taken with the 1-based offset n1(n1 + 1)/2 on 0-based ranks"),
    Mutant(STATS,
           "rows = np.empty(0, np.intp) if differs.all() else np.flatnonzero(~differs.all(axis=1))",
           "rows = np.empty(0, np.intp)", ("tests/test_stats.py",),
           "every Mann-Whitney row taken as tie-free"),
    Mutant(STATS,
           "rows = np.empty(0, np.intp) if differs.all() else np.flatnonzero(~differs.all(axis=1))",
           "rows = np.empty(0, np.intp) if differs.any() else np.flatnonzero(~differs.all(axis=1))",
           ("tests/test_stats.py",), "a batch with any distinct neighbours taken as tie-free"),
    Mutant(STATS, "z = (u_max - n1 * n2 / 2.0 - 0.5) / np.sqrt(variance)",
           "z = (u_max - n1 * n2 / 2.0 + 0.5) / np.sqrt(variance)", ("tests/test_stats.py",),
           "the continuity correction's sign"),
    Mutant(STATS, "return mean, (d * d).sum(axis=-1) / (n - 1)",
           "return mean, (d * d).sum(axis=-1) / n", ("tests/test_stats.py",),
           "a variance over n, not n - 1"),
    Mutant(STATS, "EXACT_MANN_WHITNEY_LIMIT = 14", "EXACT_MANN_WHITNEY_LIMIT = 15",
           ("tests/test_stats.py",), "the exact Mann-Whitney limit raised by one"),
    Mutant(STATS, "EXACT_MANN_WHITNEY_LIMIT = 14", "EXACT_MANN_WHITNEY_LIMIT = 13",
           ("tests/test_stats.py",), "the exact Mann-Whitney limit lowered by one"),
    Mutant(STATS, "df = se_sq * se_sq / (a * a / (n1 - 1) + b * b / (n2 - 1))",
           "df = se_sq * se_sq / (a * a / n1 + b * b / (n2 - 1))", ("tests/test_stats.py",),
           "Welch-Satterthwaite df with n1 for n1 - 1"),
    Mutant(STATS, "return totals / (stop - start) / repetitions",
           "return totals / (stop - start)", ("tests/test_stats.py",),
           "a per-VM mean per window, not per repetition"),
    Mutant(POWER, "return normal_cdf(-normal_quantile(alpha / 2.0) - gamma * math.sqrt(vms / 2.0))",
           "return normal_cdf(-normal_quantile(alpha / 2.0) - gamma * math.sqrt(vms))",
           ("tests/test_power.py",), "the power model's sqrt(vms / 2) as sqrt(vms)"),
    Mutant(POWER, "while vms > 2 and type_ii_error(gamma, vms - 1, alpha) <= beta:",
           "while vms > 2 and type_ii_error(gamma, vms - 1, alpha) < beta:",
           ("tests/test_power.py",), "required_vms's downward step taken on <"),
    Mutant(HARNESS, "if executions != 0:", "if executions > 1:", ("tests/test_harness.py",),
           "the freshness check loosened"),
    # Selection rules.
    Mutant(TUNER, "return 2 * tp / denominator if denominator else 0.0",
           "return 2 * tp / denominator if denominator else 1.0", ("tests/test_tuner.py",),
           "an empty confusion matrix scored as perfect"),
    Mutant(TUNER, "and other.repetitions == cell.repetitions",
           "and other.repetitions >= cell.repetitions", ("tests/test_tuner.py",),
           "the monotonicity rule reading other repetitions counts"),
    Mutant(TUNER, "if other.vms == cell.vms", "if other.vms >= cell.vms",
           ("tests/test_tuner.py",), "the monotonicity rule reading other VM counts"),
    # The shared trial rows.
    Mutant(TUNER, "new_rows = np.concatenate((changed[:, :vms], base[resamples:, vms : 2 * vms]))",
           "new_rows = np.concatenate((changed[:, :vms], base[resamples:, vms - 1 : 2 * vms - 1]))",
           ("tests/test_tuner.py",), "same-version halves shifted by one column, so they overlap"),
    Mutant(TUNER,
           "changed = (rng.random((resamples, n_changed)).argsort(axis=1) + n_base).astype(dtype)",
           "changed = rng.random((resamples, n_changed)).argsort(axis=1).astype(dtype)",
           ("tests/test_tuner.py",), "changed rows indexing base VMs"),
    Mutant(TUNER, "base, changed = _trial_rows(seed, n_base, n_changed, resamples)",
           "base, changed = _trial_rows(seed + iterations, n_base, n_changed, resamples)",
           ("tests/test_tuner.py",), "a draw of its own for each iteration count"),
    Mutant(TUNER, "base.flags.writeable = changed.flags.writeable = False",
           "base.flags.writeable = False", ("tests/test_tuner.py",),
           "cached changed rows left writable"),
    Mutant(TUNER, "@lru_cache(maxsize=1)", "@lru_cache(maxsize=0)", ("tests/test_tuner.py",),
           "the rows drawn again for every cell"),
)

EQUIVALENT = (
    Mutant(STATS, "return t if p > 0.5 else -t", "return t if p >= 0.5 else -t", (),
           "p = 0.5 has returned 0.0 before this line"),
    Mutant(TUNER, "dtype = np.min_scalar_type(n_base + n_changed)",
           "dtype = np.min_scalar_type(n_base + n_changed - 1)", (),
           "the largest index stored is n_base + n_changed - 1"),
)


def apply(text: str, mutant: Mutant) -> str:
    """``text`` with the mutant's line replaced, indentation kept."""
    lines = text.splitlines(keepends=True)
    found = [i for i, line in enumerate(lines) if line.strip() == mutant.old]
    if len(found) != 1:
        raise ValueError(f"{mutant.path}: {len(found)} lines read {mutant.old!r}")
    line = lines[found[0]]
    indent = line[: len(line) - len(line.lstrip())]
    lines[found[0]] = indent + mutant.new + "\n"
    return "".join(lines)


def pytest(root: Path, tests, env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=root, env=env, capture_output=True, text=True,
                          timeout=900)


def main() -> int:
    for mutant in MUTANTS + EQUIVALENT:
        apply((REPO / mutant.path).read_text(), mutant)  # raises if a line is gone

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(REPO / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        origin = subprocess.run(
            [sys.executable, "-c", "import perfdelta; print(perfdelta.__file__)"],
            env=env, capture_output=True, text=True, check=True).stdout
        if not Path(origin.strip()).is_relative_to(root):
            print(f"perfdelta imports from {origin.strip()}, not the copy", file=sys.stderr)
            return 1
        tests = sorted({t for m in MUTANTS for t in m.tests})
        baseline = pytest(root, tests, env)
        if baseline.returncode != 0:
            print(baseline.stdout[-2000:], f"unmutated tests fail: {' '.join(tests)}",
                  sep="\n", file=sys.stderr)
            return 1

        survivors = []
        for mutant in MUTANTS:
            path = root / mutant.path
            original = path.read_text()
            path.write_text(apply(original, mutant))
            start = time.perf_counter()
            try:
                killed = pytest(root, mutant.tests, env).returncode != 0
            except subprocess.TimeoutExpired:
                killed = True  # a test that hangs under the mutant fails
            finally:
                path.write_text(original)
            verdict = "killed" if killed else "SURVIVED"
            print(f"{verdict:8} {time.perf_counter() - start:6.1f} s  {mutant.path}: {mutant.why}")
            if not killed:
                survivors.append(mutant)
    for mutant in EQUIVALENT:
        print(f"{'equiv':8} {'':8}  {mutant.path}: {mutant.new!r}: {mutant.why}")
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived", file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
