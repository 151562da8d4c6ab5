"""trigpoly benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src/`` directory.  With ``--trace 0`` the last line of standard
output carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics (the traced spans also go to ``perfbench/out/``).  See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBES = 5  # fresh-process set-ups per run; setup_s is their median
PROBE_TIMEOUT_S = 120


def probe_setup(workload: str, seed: int, toy: bool) -> tuple[float, float]:
    """Median CPU time of fresh processes doing the workload's set-up, and of their import."""
    from workloads import cpu_seconds

    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)] + (["--toy"] if toy else [])
    spent_s, imports = [], []
    for i in range(1 + (1 if toy else PROBES)):
        t0 = cpu_seconds()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
        spent = cpu_seconds() - t0
        if i > 0:  # the first one only writes the byte-code caches
            spent_s.append(spent)
            imports.append(float(proc.stdout.split()[-1]))
    return statistics.median(spent_s), statistics.median(imports)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-suite", "coeff-tables", "eval-stream", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the self-test only")
    args = parser.parse_args(argv)

    if not (SRC / "trigpoly" / "__init__.py").is_file():
        print(f"error: no trigpoly sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    import tracing
    from checks import CheckFailed
    from workloads import OUT_DIR, WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    setup_s, import_s = probe_setup(args.workload, args.seed, args.toy)

    tracer = tracing.Tracer().install() if args.trace else tracing.NullTracer()
    work = WORKLOADS[args.workload](args.seed, toy=args.toy, tracer=tracer)
    work.setup()
    after_setup = tracer.snapshot() if args.trace else None
    correct, attempted, failed, passes = True, 0, 0, 0
    try:
        with tracer.paused():
            work.prepare_checks()
        start = time.perf_counter()
        while True:
            outputs = work.run_pass()
            passes += 1
            with tracer.paused():
                done, bad = work.check_pass(outputs)
            attempted += done
            failed += bad
            if time.perf_counter() - start >= args.seconds:
                break
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
        attempted = max(attempted, 1)

    if passes:
        end_to_end = {name: {"value": value, "unit": unit}
                      for name, (value, unit) in work.metrics().items()}
    else:
        end_to_end = {}
    end_to_end["setup_s"] = {"value": setup_s, "unit": "s"}
    end_to_end["peak_rss_mb"] = {"value": peak_rss_mb(args.workload), "unit": "MB"}

    if args.trace:
        tracer.uninstall()
        values = tracing.per_pass(after_setup, tracer.snapshot(), max(passes, 1))
        values["cli.import_s"] = import_s
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.per_layer_metrics()}
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "passes": passes, "per_layer": values, "end_to_end_traced": end_to_end,
            "after_setup": after_setup, "at_end": tracer.snapshot(),
        }, indent=1, sort_keys=True), encoding="utf-8")
    else:
        metrics = end_to_end
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
