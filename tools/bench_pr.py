"""Paired benchmark runs of a change against its parent, written to BENCH_<pr>.json.

    python3 tools/bench_pr.py --pr N [--change REV] [--repo DIR]

The change (default ``HEAD``) and its first parent are checked out with
``git worktree`` under a temporary directory, and the benchmark that
``BENCHMARK.json`` declares (``perfbench/run.py``) runs in each checkout
unchanged.  For every workload, untraced and then traced, one pair of runs
per entry of ``SEEDS`` alternates parent and change, the parent first in
even pairs and the change first in odd ones; pair k runs both sides with
``SEEDS[k]`` for the file's ``run_seconds``.
``BENCH_<N>.json`` at the root of the repository holds the commits, the
host, every run's command and last line, and, per workload, trace mode and
metric, each side's median and quartiles and the number of pairs in which
the change was better.  The worktrees are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
#: One seed a pair, the same on both sides of it.
SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
TRACES = (0, 1)


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def host() -> dict:
    return {
        "cpus": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_once(checkout: Path, command: list[str], timeout: float) -> dict:
    """One benchmark run in ``checkout``: its exit code, wall time and last line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    start = time.perf_counter()
    try:
        proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True,
                              timeout=timeout)
        code, lines = proc.returncode, proc.stdout.splitlines()
    except subprocess.TimeoutExpired:
        code, lines = None, []
    result = {"exit_code": code, "seconds": round(time.perf_counter() - start, 3)}
    try:
        result["last_line"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        result["last_line"] = lines[-1] if lines else None
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = (float(v) for v in np.percentile(values, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3}


def metric_values(run: dict) -> dict:
    line = run["last_line"]
    return line.get("metrics", {}) if isinstance(line, dict) else {}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: unit, direction, each side's spread and the pairs the change won."""
    pairs: dict[int, dict[str, dict]] = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = metric_values(run)
    names = sorted({name for sides in pairs.values() for m in sides.values() for name in m})
    out = {}
    for name in names:
        both = [(s["parent"][name], s["change"][name]) for s in pairs.values()
                if name in s.get("parent", {}) and name in s.get("change", {})]
        if not both:
            continue
        direction = better.get(name, "lower")
        sign = 1 if direction == "lower" else -1
        out[name] = {
            "unit": both[0][0]["unit"],
            "better": direction,
            "parent": spread([p["value"] for p, _ in both]),
            "change": spread([c["value"] for _, c in both]),
            "pairs": len(both),
            "change_won": sum(sign * c["value"] < sign * p["value"] for p, c in both),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--repo", type=Path, default=REPO)
    args = parser.parse_args(argv)

    repo = args.repo.resolve()
    change = git(repo, "rev-parse", "--verify", f"{args.change}^{{commit}}")
    parent = git(repo, "rev-parse", "--verify", f"{change}~1^{{commit}}")
    bench = json.loads(git(repo, "show", f"{change}:BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench.get("per_layer", [])}
    seconds = bench["run_seconds"]

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pr-") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        try:
            for side, rev in (("parent", parent), ("change", change)):
                git(repo, "worktree", "add", "--detach", str(checkouts[side]), rev)
            for workload in workloads:
                for trace in TRACES:
                    for pair, seed in enumerate(SEEDS):
                        for side in ("parent", "change")[::1 if pair % 2 == 0 else -1]:
                            command = [*bench["command"], "--workload", workload,
                                       "--seed", str(seed), "--seconds", str(seconds),
                                       "--trace", str(trace)]
                            run = {"workload": workload, "trace": trace, "pair": pair,
                                   "seed": seed, "side": side, "command": command}
                            run.update(run_once(checkouts[side], command,
                                                timeout=10 * seconds + 600))
                            runs.append(run)
                            print(f"{workload} trace={trace} pair={pair} {side}: "
                                  f"exit {run['exit_code']} in {run['seconds']} s",
                                  file=sys.stderr)
        finally:
            for path in checkouts.values():
                if path.exists():
                    git(repo, "worktree", "remove", "--force", str(path))
            git(repo, "worktree", "prune")

    summary = {
        workload: {
            ("traced" if trace else "untraced"): summarize(
                [r for r in runs if r["workload"] == workload and r["trace"] == trace], better)
            for trace in TRACES
        }
        for workload in workloads
    }
    document = {
        "pr": args.pr,
        "commits": {"parent": parent, "change": change},
        "host": host(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "order": "per workload and trace mode, pairs of runs, the parent first in even pairs",
        "summary": summary,
        "runs": runs,
    }
    out = repo / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
