"""Run the benchmark over several seeds and summarize it in one JSON file.

Run from the repository root:

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload it makes one run per seed 1-10 with --trace 0 and one per
seed 1 and 2 with --trace 1, one after another, each for the run_seconds of
BENCHMARK.json.  It records the median, quartiles and spread
((q3 - q1) / median) of every end-to-end metric, the median of every
per-layer metric, the SHA-256 of every operation's output and the exact work
counts of every traced run, with the git SHA, Python version and CPU count.
Two such files written on the same machine, before and after a change, give
the before/after medians and show whether the output bytes changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, OUT, PER_LAYER, WORKLOADS, nproc  # noqa: E402

SEEDS = range(1, 11)  # seeds of the --trace 0 runs
TRACE_SEEDS = (1, 2)  # seeds of the --trace 1 runs


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its result line and its details file."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as fh:
        details = json.load(fh)
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
    return result, details


def summarize(values: list[float], unit: str) -> dict:
    median = statistics.median(values)
    q1, q3 = median, median
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "unit": unit, "values": values}


def git_sha() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    doc = {"git_sha": git_sha(), "python": platform.python_version(), "nproc": nproc(),
           "run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        timed = {s: run_once(workload, s, seconds, 0) for s in SEEDS}
        traced = {s: run_once(workload, s, seconds, 1) for s in TRACE_SEEDS}
        runs = list(timed.values()) + list(traced.values())
        doc["workloads"][workload] = {
            "correct": all(result["correct"] for result, _ in runs),
            "failed": sum(result["failed"] for result, _ in runs),
            "end_to_end": {
                name: summarize([r["metrics"][name]["value"] for r, _ in timed.values()], unit)
                for name, unit in END_TO_END.items()
            },
            "per_layer": {
                name: {"median": statistics.median(r["metrics"][name]["value"] for r, _ in traced.values()),
                       "unit": unit}
                for name, unit in PER_LAYER.items()
            },
            "output_sha256": {
                str(seed): {op["label"]: op["sha256"] for op in details["ops"]}
                for seed, (_, details) in timed.items()
            },
            "work_counts": {str(seed): details["work_counts"] for seed, (_, details) in traced.items()},
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
