"""Self-test of the benchmark: every workload at toy size, against BENCHMARK.json.

    python3 perfbench/selftest.py

Each workload runs once untraced and once traced with tiny inputs.  The
test checks that every run exits 0 with correct outputs, that the
metric names and units match BENCHMARK.json (every end-to-end metric in
an untraced run, every per-layer metric in a traced run), that only
eval-stream counts failed operations, and that the benchmark refuses to
run, without printing a result, in a directory that holds only
BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess, label: str) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(doc) != RESULT_KEYS:
        problems.append(f"result keys {sorted(doc)}")
    if doc.get("correct") is not True:
        problems.append(f"incorrect outputs: {proc.stderr.strip()}")
    if not (isinstance(doc.get("attempted"), int) and doc["attempted"] >= 1
            and isinstance(doc.get("failed"), int)):
        problems.append("attempted/failed are not counts")
    if problems:
        raise SystemExit(f"{label}: " + "; ".join(problems))
    return doc


def units_match(metrics: dict, declared: dict, label: str) -> None:
    for name, entry in metrics.items():
        if name not in declared:
            raise SystemExit(f"{label}: metric {name} is not in BENCHMARK.json")
        if entry["unit"] != declared[name]:
            raise SystemExit(f"{label}: {name} in {entry['unit']}, declared {declared[name]}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        doc = result_of(run(workload, 0), f"{workload} untraced")
        units_match(doc["metrics"], end_to_end, workload)
        missing = set(end_to_end) - set(doc["metrics"])
        if missing:
            raise SystemExit(f"{workload}: missing {sorted(missing)}")
        if workload != "eval-stream" and doc["failed"]:
            raise SystemExit(f"{workload}: {doc['failed']} failed operations")
        traced = result_of(run(workload, 1), f"{workload} traced")
        units_match(traced["metrics"], per_layer, f"{workload} traced")
        if set(traced["metrics"]) != set(per_layer):
            raise SystemExit(f"{workload} traced: missing "
                             f"{sorted(set(per_layer) - set(traced['metrics']))}")
        print(f"ok {workload}: attempted={doc['attempted']} failed={doc['failed']}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("cli-cold", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit("the benchmark ran without the package sources")
    print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
