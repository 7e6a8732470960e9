"""Benchmark for beamforge: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload solve-search --seed 1 --seconds 25 --trace 0

Workloads: solve-search, solve-construct, bench-design, model-lp (see
workloads.py and BENCHMARK.json for why each exists).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.

--trace 0 sets up the workload SETUP_REPEATS times, then runs operations in a
closed loop for --seconds (at least the workload's min_ops), checks every
output outside the timed region and reports the end-to-end metrics, with
times scaled to a reference machine speed (see CALIBRATION_S).

--trace 1 runs min_ops operations without tracing, then the same set-up and
operations again with timing wrappers on each layer's functions, then the
first operation once more.  Output digests must match between the passes and
work counts between the repeats.  It reports the per-layer metrics and the
tracing overhead.

Per-operation digests, times and work counts are written to
perfbench/out/<workload>-seed<seed>-trace<trace>.json, and the spans of a
traced run to perfbench/out/<workload>-seed<seed>-spans.csv.gz.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CALIBRATE = os.path.join(HERE, "calibrate.py")
WORKLOADS = ("solve-search", "solve-construct", "bench-design", "model-lp")
SETUP_REPEATS = 5
# The machine the benchmark runs on may be shared, and its speed can drift by
# 20-40% from one minute to the next.  Timed runs therefore make a short
# calibration (`calibrate.py`) before and after every set-up and operation,
# in as many worker processes at once as an operation keeps busy
# (`Calibration`), and report each time scaled to a machine on which the
# calibration takes CALIBRATION_S seconds, a typical figure on the 2-vCPU
# machine the baseline was measured on.  A change to the program moves a
# scaled time as much as an unscaled one; the drift of the machine moves it
# 2-4 times less.  Unscaled times are in the details file.
CALIBRATION_S = 0.03

END_TO_END = {"setup_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"ga.{layer}.{m}": u for layer in ("construct", "vary", "mutate") for m, u in (
        ("calls", "count"), ("us_per_call", "us"), ("self_s", "s"), ("yield", "ratio"))},
    "ga.polish.calls": "count",
    "ga.polish.self_s": "s",
    "ga.polish.improved": "count",
    "ga.run.self_s": "s",
    **{f"evaluation.{layer}.{m}": u for layer in ("classify", "decode") for m, u in (
        ("calls", "count"), ("us_per_call", "us"), ("self_s", "s"))},
    "evaluation.evaluate.calls": "count",
    "ilp.build_model.s": "s",
    "ilp.emit_lp.s": "s",
    "ilp.emit_lp.mb": "MB",
    "ilp.rows": "count",
    "ilp.check_assignment.s": "s",
    "patterns.generate.ms": "ms",
    "bound.lower_bound.us": "us",
    "instance.load.ms": "ms",
    "cli.overhead_s": "s",
    "harness.cells": "count",
    "harness.parallel_efficiency": "ratio",
    "quality.lbd_mean": "ratio",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any worker it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def safe_op(workload, index):
    """Run one operation; an exception becomes a failed operation."""
    start = time.perf_counter()
    try:
        return workload.op(index)
    except Exception:
        from workloads import Op

        return Op(label=f"op {index}", wall_s=time.perf_counter() - start, output=b"",
                  error=traceback.format_exc())


def check(workload, ops) -> int:
    """Check each operation's output; return how many failed."""
    failed = 0
    for op in ops:
        if op.error is None:
            try:
                errors = workload.check(op)
            except Exception:
                errors = [traceback.format_exc()]
        else:
            errors = [op.error]
        op.info["errors"] = errors
        if errors:
            failed += 1
            print(f"perfbench: {workload.name}: {op.label}: {'; '.join(errors)}", file=sys.stderr)
    return failed


def lbd(op) -> float:
    """Mean lower-bound deviation of an operation's plans, set by its check
    (0 for operations without plans)."""
    return op.info.get("lbd", 0.0)


def op_record(op) -> dict:
    return {"label": op.label, "wall_s": op.wall_s, "sha256": op.sha256,
            "lbd": lbd(op), "errors": op.info.get("errors", [])}


class Calibration:
    """Runs `calibrate.calibration_s` at once in as many worker interpreters
    as an operation keeps busy (or in fewer, when asked), and gives the mean
    of their times.  The workers are plain child processes talking over
    pipes; `close` ends them and waits for each."""

    def __init__(self, processes: int):
        self.workers = []
        try:
            for _ in range(processes):
                self.workers.append(subprocess.Popen(
                    [sys.executable, CALIBRATE], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
            for _ in range(3):  # the first calls warm the workers up
                self()
        except BaseException:
            self.close()
            raise

    def __call__(self, processes: int | None = None) -> float:
        workers = self.workers[:processes or len(self.workers)]
        for worker in workers:
            worker.stdin.write("\n")
            worker.stdin.flush()
        return statistics.fmean(float(worker.stdout.readline()) for worker in workers)

    def close(self) -> None:
        for worker in self.workers:
            try:
                worker.stdin.close()
            except OSError:
                pass
        for worker in self.workers:
            try:
                worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
            worker.stdout.close()


def scaled(times, calibrations):
    """Scale each time to the reference speed, by the mean of the
    calibrations made just before and just after it."""
    return [t * CALIBRATION_S / ((a + b) / 2) for t, a, b in zip(times, calibrations, calibrations[1:])]


def fresh_import_s() -> float:
    """Time to import beamforge's command-line module in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
            "import beamforge.cli; print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(proc.stdout)


def timed_run(workload, args, work_dir):
    calibrate = Calibration(workload.processes)
    try:
        # Set-ups keep one process busy; operations may keep more.  Each
        # set-up is the import in a fresh interpreter plus the workload's own.
        setup_calibrations = [calibrate(1)]
        setups = []
        for _ in range(SETUP_REPEATS):
            imported = fresh_import_s()
            start = time.perf_counter()
            workload.setup(work_dir, args.seed)
            setups.append(imported + time.perf_counter() - start)
            setup_calibrations.append(calibrate(1))
        op_calibrations = [calibrate()]
        ops = []
        start = time.perf_counter()
        # Start another operation while it would end, on a median estimate,
        # no more than half an operation past the window.
        while len(ops) < workload.min_ops or (
            time.perf_counter() - start + statistics.median(op.wall_s for op in ops) / 2 < args.seconds
        ):
            ops.append(safe_op(workload, len(ops)))
            op_calibrations.append(calibrate())
    finally:
        calibrate.close()
    failed = check(workload, ops)
    op_scaled = scaled([op.wall_s for op in ops], op_calibrations)
    metrics = {
        "setup_s": statistics.median(scaled(setups, setup_calibrations)),
        "op_s_p50": statistics.median(op_scaled),
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "setup_s": setups, "setup_calibration_s": setup_calibrations,
        "op_calibration_s": op_calibrations, "calibration_processes": workload.processes,
        "unscaled": {"setup_s": statistics.median(setups),
                     "op_s_p50": statistics.median(op.wall_s for op in ops)},
        "ops": [dict(op_record(op), scaled_s=t) for op, t in zip(ops, op_scaled)],
    }
    return metrics, len(ops), failed, details


def traced_run(workload, args, work_dir, jobs):
    from spans import NONE, SAME, Profile, Tracer

    count = workload.min_ops
    start = time.perf_counter()
    workload.setup(work_dir, args.seed)
    plain = [safe_op(workload, i) for i in range(count)]
    plain_wall = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        with tracer.span("setup"):
            workload.setup(work_dir, args.seed)
        traced = []
        for i in range(count):
            with tracer.span(f"op{i}"):
                traced.append(safe_op(workload, i))
        traced_wall = time.perf_counter() - start
        with tracer.span("repeat"):
            repeat = safe_op(workload, 0)
    finally:
        tracer.uninstall()

    ops = plain + traced + [repeat]
    failed = check(workload, ops)
    problems = []
    for a, b in zip(plain, traced):
        if a.sha256 != b.sha256:
            problems.append(f"{a.label}: traced output differs from untraced output")
    if repeat.sha256 != traced[0].sha256:
        problems.append(f"{repeat.label}: repeated output differs")
    op_names = {f"op{i}" for i in range(count)}
    first, again = Profile(tracer, {"op0"}), Profile(tracer, {"repeat"})
    if first.work_counts() != again.work_counts():
        problems.append(f"{repeat.label}: work counts differ between repeats")

    attempted = len(ops)
    cells, harness_wall = [], 0.0
    if hasattr(workload, "run_harness"):
        attempted += 1
        try:
            cells, harness_wall, output = workload.run_harness(jobs)
        except Exception:
            problems.append(f"run_trials raised: {traceback.format_exc()}")
        else:
            if any(cell.failed for cell in cells):
                problems.append("run_trials: a cell failed")
            if output != traced[0].output:
                problems.append(f"run_trials with {jobs} jobs differs from the bench output")
    for problem in problems:
        print(f"perfbench: {workload.name}: {problem}", file=sys.stderr)

    prof = Profile(tracer, op_names)
    everything = Profile(tracer, op_names | {"setup"})
    metrics = {}
    for layer in ("construct", "vary", "mutate"):
        name = f"ga.{layer}"
        calls = prof.count(name)
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.us_per_call"] = prof.per_call(name, 1e6)
        metrics[f"{name}.self_s"] = prof.self_s(name)
        if layer == "construct":
            metrics[f"{name}.yield"] = 1 - prof.rejected_constructions / calls if calls else 0.0
        else:
            metrics[f"{name}.yield"] = 1 - prof.count(name, NONE) / calls if calls else 0.0
    metrics["ga.polish.calls"] = prof.count("ga.polish")
    metrics["ga.polish.self_s"] = prof.self_s("ga.polish")
    metrics["ga.polish.improved"] = prof.count("ga.polish") - prof.count("ga.polish", SAME)
    metrics["ga.run.self_s"] = prof.self_s("ga.run")
    for layer in ("classify", "decode"):
        name = f"evaluation.{layer}"
        metrics[f"{name}.calls"] = prof.count(name)
        metrics[f"{name}.us_per_call"] = prof.per_call(name, 1e6)
        metrics[f"{name}.self_s"] = prof.self_s(name)
    metrics["evaluation.evaluate.calls"] = prof.count("evaluation.evaluate")
    metrics["ilp.build_model.s"] = prof.total_s("ilp.build_model")
    metrics["ilp.emit_lp.s"] = prof.total_s("ilp.emit_lp")
    metrics["ilp.emit_lp.mb"] = sum(sum(op.info.get("lp_bytes", [])) for op in traced) / count / 1e6
    metrics["ilp.rows"] = sum(sum(op.info.get("lp_rows", [])) for op in traced) // count
    metrics["ilp.check_assignment.s"] = prof.total_s("ilp.check_assignment")
    metrics["patterns.generate.ms"] = everything.per_call("patterns.generate", 1e3)
    metrics["bound.lower_bound.us"] = everything.per_call("bound.lower_bound", 1e6)
    metrics["instance.load.ms"] = everything.per_call("instance.load", 1e3)
    metrics["cli.overhead_s"] = prof.cli_overhead_s
    metrics["harness.cells"] = len(cells)
    metrics["harness.parallel_efficiency"] = (
        sum(cell.time_s for cell in cells) / (jobs * harness_wall) if cells else 0.0
    )
    metrics["quality.lbd_mean"] = statistics.fmean(lbd(op) for op in traced)
    metrics["trace.overhead_s"] = traced_wall - plain_wall

    spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.csv.gz")
    tracer.write(spans_path)
    details = {
        "untraced_s": plain_wall, "traced_s": traced_wall, "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT), "problems": problems,
        "work_counts": prof.work_counts(), "repeat_work_counts": again.work_counts(),
        "ops": [op_record(op) for op in plain + traced + [repeat]],
    }
    return metrics, attempted, min(attempted, failed + len(problems)), details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "beamforge", "__init__.py")):
        print(f"perfbench: no beamforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import beamforge.cli

    if not os.path.abspath(beamforge.cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported beamforge from {beamforge.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import make_workloads

    jobs = min(2, nproc())
    # Wrappers do not follow work into worker processes, so traced runs solve
    # with one job and measure the pool separately.
    workload = make_workloads(1 if args.trace else jobs)[args.workload]
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.trace:
            values, attempted, failed, details = traced_run(workload, args, work_dir, jobs)
            units = PER_LAYER
        else:
            values, attempted, failed, details = timed_run(workload, args, work_dir)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    details.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": nproc(), "jobs": jobs,
        "metrics": values, "attempted": attempted, "failed": failed,
    })
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    for op in details["ops"]:
        print(f"{op['label']}: {op['wall_s']:.3f} s sha256={op['sha256']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
