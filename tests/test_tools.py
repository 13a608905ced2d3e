"""The repository scripts under ``tools/``, on stand-ins that start no VM."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

STUB_RUN = """\
import argparse, json
p = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(name)
a = p.parse_args()
metrics = {{"op_ms": {{"value": {op_ms} + int(a.seed), "unit": "ms"}},
            "rss_mb": {{"value": 50.0, "unit": "MB"}}}}
if a.trace == "1":
    metrics = {{"tuner.decide_share": {{"value": 0.5, "unit": "1"}}}}
print("a line before the last")
print(json.dumps({{"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}}))
"""


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _commit(repo: Path, op_ms: float, message: str) -> str:
    (repo / "perfbench" / "run.py").write_text(STUB_RUN.format(op_ms=op_ms))
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", message], check=True)
    return subprocess.run([*git, "rev-parse", "HEAD"], check=True, capture_output=True,
                          text=True).stdout.strip()


def test_bench_pr_writes_paired_runs_and_their_summary(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 0.5,
        "workloads": [{"name": "one"}, {"name": "two"}],
        "end_to_end": [{"name": "op_ms", "better": "lower"},
                       {"name": "rss_mb", "better": "lower"}],
        "per_layer": [{"name": "tuner.decide_share", "better": "lower"}],
    }))
    parent = _commit(repo, 2.0, "parent")
    change = _commit(repo, 1.0, "change")

    bench_pr = _load("bench_pr")
    monkeypatch.setattr(bench_pr, "SEEDS", (1, 2, 3))
    assert bench_pr.main(["--pr", "7", "--repo", str(repo)]) == 0
    doc = json.loads((repo / "BENCH_7.json").read_text())

    assert doc["commits"] == {"parent": parent, "change": change}
    assert set(doc["host"]) == {"cpus", "affinity", "platform", "machine", "python", "numpy"}
    assert (doc["run_seconds"], doc["seeds"]) == (0.5, [1, 2, 3])
    # Workload by workload, untraced before traced; in each pair, which side
    # runs first alternates.
    assert [(r["workload"], r["trace"], r["pair"], r["side"]) for r in doc["runs"]] == [
        (workload, trace, pair, side) for workload in ("one", "two") for trace in (0, 1)
        for pair in range(3)
        for side in (("parent", "change") if pair % 2 == 0 else ("change", "parent"))]
    first = doc["runs"][0]
    assert first["command"] == [sys.executable, "perfbench/run.py", "--workload", "one",
                                "--seed", "1", "--seconds", "0.5", "--trace", "0"]
    assert first["exit_code"] == 0
    assert first["last_line"]["metrics"]["op_ms"] == {"value": 3.0, "unit": "ms"}

    untraced = doc["summary"]["two"]["untraced"]
    assert untraced["op_ms"] == {
        "unit": "ms", "better": "lower",
        "parent": {"median": 4.0, "q1": 3.5, "q3": 4.5},
        "change": {"median": 3.0, "q1": 2.5, "q3": 3.5},
        "pairs": 3, "change_won": 3}
    assert untraced["rss_mb"]["change_won"] == 0  # a tie is no win
    assert set(doc["summary"]["two"]["traced"]) == {"tuner.decide_share"}
    # The worktrees are gone.
    listed = subprocess.run(["git", "-C", str(repo), "worktree", "list"], check=True,
                            capture_output=True, text=True).stdout.splitlines()
    assert len(listed) == 1


def test_every_mutant_names_one_line_of_the_program_and_existing_tests():
    mutants = _load("mutants")
    root = TOOLS.parent
    for mutant in mutants.MUTANTS + mutants.EQUIVALENT:
        text = (root / mutant.path).read_text()
        mutated = mutants.apply(text, mutant)
        assert mutated != text and mutant.why, mutant
        assert all((root / test).is_file() for test in mutant.tests), mutant
    assert all(m.tests for m in mutants.MUTANTS)
