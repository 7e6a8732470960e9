"""The four benchmark workloads: set-up, one timed operation, and its check.

Every instance comes from `generate_instance` with a fixed (seed, C, M), so
instance sizes never change; the benchmark's own `--seed` only derives the
solver, bench and construction seeds.  Operations go through `cli.dispatch`
in-process, one at a time (a closed loop with one client).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import re
import time
from dataclasses import dataclass, field

from beamforge import cli, evaluation, ga, harness, ilp, instance, patterns
from beamforge.bound import lower_bound
from beamforge.errors import HorizonError

# Solves, bench calls and checks with a plan must agree with the model and the
# bound to within this much (objectives are sums of floats in meters).
TOLERANCE = 1e-9


@dataclass
class Op:
    """One timed operation and what its check needs."""

    label: str
    wall_s: float
    output: bytes
    error: str | None = None
    info: dict = field(default_factory=dict)
    digest: str | None = None  # SHA-256 of the output, when `output` is not kept

    @property
    def sha256(self) -> str:
        return self.digest or hashlib.sha256(self.output).hexdigest()


def op_seed(seed: int, index: int) -> int:
    """The solver, bench or construction seed of a run's index-th item."""
    return 1000 * seed + index


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one subcommand in-process; return its exit code and standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.dispatch(argv)
    return code, buf.getvalue()


def write_instance(path: str, seed: int, types: int, molds: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance.serialize_instance(instance.generate_instance(seed, types, molds)))


def bound_total(path: str) -> float:
    """The `bound` subcommand's total for an instance file."""
    code, out = run_cli(["bound", "--instance", path])
    if code != 0:
        raise RuntimeError(f"bound exited {code} on {path}")
    return json.loads(out)["total"]


def warm_up(path: str) -> None:
    """A tiny solve through the full code path, the same in every run;
    --rst 2 rules out restarts."""
    argv = ["solve", "--instance", path, "--seed", "0", "--ng-mult", "1", "--as-mult", "3", "--rst", "2"]
    code, _ = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"warm-up solve exited {code}")


class Workload:
    name = ""
    min_ops = 1  # operations every run makes; traced runs make exactly these
    processes = 1  # processes an operation keeps busy

    def setup(self, work_dir: str, seed: int) -> None:
        raise NotImplementedError

    def op(self, index: int) -> Op:
        raise NotImplementedError

    def check(self, op: Op) -> list[str]:
        """Errors in an operation's output; empty when it is correct."""
        raise NotImplementedError


class SolveWorkload(Workload):
    """`beamforge solve` on one generated instance."""

    def __init__(self, name, instance_args, extra_argv, min_ops):
        self.name = name
        self.instance_args = instance_args
        self.extra_argv = extra_argv
        self.min_ops = min_ops
        self._reference = None

    def setup(self, work_dir, seed):
        self.seed = seed
        self.path = os.path.join(work_dir, f"{self.name}.json")
        write_instance(self.path, *self.instance_args)
        bound_total(self.path)
        warm_up(self.path)

    def op(self, index):
        seed = op_seed(self.seed, index)
        argv = ["solve", "--instance", self.path, "--seed", str(seed), *self.extra_argv]
        start = time.perf_counter()
        code, out = run_cli(argv)
        wall = time.perf_counter() - start
        error = None if code == 0 else f"solve exited {code}"
        return Op(label=f"solve --seed {seed}", wall_s=wall, output=out.encode(), error=error)

    def _model(self):
        if self._reference is None:
            inst = instance.load_instance(self.path)
            pats = patterns.generate_patterns(inst)
            self._reference = (inst, pats, lower_bound(inst, pats).total, ilp.build_model(inst, pats))
        return self._reference

    def check(self, op):
        inst, pats, lb_total, model = self._model()
        doc = json.loads(op.output)
        plan = evaluation.Chromosome([(pid, freq) for pid, freq in doc["genes"]])
        assignment = ilp.induced_assignment(model, plan)
        errors = [str(v) for v in ilp.check_assignment(model, assignment)[:3]]
        model_objective = ilp.assignment_objective(model, assignment)
        if abs(model_objective - doc["objective"]) > TOLERANCE:
            errors.append(f"objective {doc['objective']!r} but the model gives {model_objective!r}")
        if doc["objective"] < lb_total - TOLERANCE:
            errors.append(f"objective {doc['objective']!r} below the lower bound {lb_total!r}")
        op.info["lbd"] = harness.lbd(doc["objective"], lb_total)
        return errors


class BenchWorkload(Workload):
    """`beamforge bench --no-timing` with trials 4 and 8 on the search instance."""

    name = "bench-design"
    min_ops = 2
    trials = (4, 8)

    def __init__(self, jobs: int):
        self.processes = jobs

    def setup(self, work_dir, seed):
        self.seed = seed
        self.dir = os.path.join(work_dir, "bench")
        os.makedirs(self.dir, exist_ok=True)
        self.path = os.path.join(self.dir, "search.json")
        write_instance(self.path, *SEARCH_INSTANCE)
        self.lb_total = bound_total(self.path)
        warm_up(self.path)

    def op(self, index):
        seed = op_seed(self.seed, index)
        argv = [
            "bench", "--instances", self.dir, "--reps", "1", "--seed", str(seed),
            "--no-timing", "--trials", ",".join(map(str, self.trials)), "--jobs", str(self.processes),
        ]
        start = time.perf_counter()
        code, out = run_cli(argv)
        wall = time.perf_counter() - start
        error = None if code == 0 else f"bench exited {code}"
        return Op(label=f"bench --seed {seed}", wall_s=wall, output=out.encode(), error=error)

    def check(self, op):
        text = op.output.decode()
        header = "trial,lbd_mean,snr,avg_time_s"
        if header not in text:
            return ["no trials table in the bench output"]
        cells_part, trials_part = text.split(header)
        cells = list(csv.DictReader(io.StringIO(cells_part)))
        errors = []
        if sorted(int(c["trial"]) for c in cells) != list(self.trials):
            errors.append(f"cells for trials {[c['trial'] for c in cells]}")
        lbds = []
        for c in cells:
            if not c["fitness"]:
                errors.append(f"trial {c['trial']} failed")
                continue
            fit = float(c["fitness"])
            if fit < self.lb_total - TOLERANCE:
                errors.append(f"trial {c['trial']}: fitness {fit!r} below the bound {self.lb_total!r}")
            if abs(float(c["lbd"]) - harness.lbd(fit, self.lb_total)) > TOLERANCE:
                errors.append(f"trial {c['trial']}: lbd {c['lbd']} does not match its fitness")
            if c["time_s"] != "0":
                errors.append(f"trial {c['trial']}: time column {c['time_s']} under --no-timing")
            lbds.append(float(c["lbd"]))
        rows = list(csv.DictReader(io.StringIO(header + trials_part)))
        if len(rows) != len(self.trials) or any(r["avg_time_s"] != "0" for r in rows):
            errors.append("trials table does not match the cells")
        op.info["lbd"] = sum(lbds) / len(lbds) if lbds else 0.0
        return errors

    def run_harness(self, jobs: int) -> tuple[list, float, bytes]:
        """The first bench operation through `run_trials`, for its cell times."""
        design = harness.TrialDesign(rows=tuple(harness.DESIGN_ROWS[t - 1] for t in self.trials))
        instances = [("search", instance.load_instance(self.path))]
        start = time.perf_counter()
        results = harness.run_trials(
            design, instances, 1, op_seed(self.seed, 0), jobs=jobs, trial_numbers=list(self.trials)
        )
        wall = time.perf_counter() - start
        output = harness.results_csv(results, False) + harness.trials_csv(results, False)
        return [cell for trial in results for cell in trial.replications], wall, output.encode()


class ModelLpWorkload(Workload):
    """`beamforge emit-lp` on three large instances, then `check_assignment`
    of a constructed plan against a freshly built model of each."""

    name = "model-lp"
    min_ops = 2
    instance_args = ((23, 2, 15), (23, 3, 15), (23, 4, 30))

    def setup(self, work_dir, seed):
        # The plans come from fixed seeds: how many draws a construction takes
        # varies with the seed, and it would make the set-up time vary too.
        self.paths, self.cases = [], []
        for k, args in enumerate(self.instance_args):
            path = os.path.join(work_dir, "lp_{}_{}_{}.json".format(*args))
            write_instance(path, *args)
            bound_total(path)
            inst = instance.load_instance(path)
            pats = patterns.generate_patterns(inst)
            plan, value = constructed_plan(inst, pats, random.Random(k))
            self.paths.append(path)
            self.cases.append((inst, pats, plan, value))
        self._expected = None

    def op(self, index):
        # Only the emit-lp calls and the plan checks are timed; hashing and
        # measuring the LP text is not, and the text is dropped right away.
        digest, lp_bytes, lp_rows, wall = hashlib.sha256(), [], [], 0.0
        for path in self.paths:
            start = time.perf_counter()
            code, out = run_cli(["emit-lp", "--instance", path])
            wall += time.perf_counter() - start
            if code != 0:
                return Op(label="emit-lp pass", wall_s=wall, output=b"",
                          error=f"emit-lp exited {code} on {os.path.basename(path)}")
            lp = out.encode()
            del out
            digest.update(lp)
            lp_bytes.append(len(lp))
            lp_rows.append(lp_row_count(lp))
            del lp
        start = time.perf_counter()
        plan_checks = [plan_check(*case) for case in self.cases]
        wall += time.perf_counter() - start
        info = {"lp_bytes": lp_bytes, "lp_rows": lp_rows, "plan_checks": plan_checks}
        return Op(label="emit-lp pass", wall_s=wall, output=b"", info=info, digest=digest.hexdigest())

    def check(self, op):
        info = op.info
        errors = []
        for k, (violations, gap, _) in enumerate(info["plan_checks"]):
            if violations or gap > TOLERANCE:
                errors.append(f"instance {k}: {violations} violations, objective off by {gap}")
        model_rows = [rows for _, _, rows in info["plan_checks"]]
        if model_rows != info["lp_rows"]:
            errors.append(f"LP files have {info['lp_rows']} rows, the models {model_rows}")
        shape = (info["lp_rows"], info["lp_bytes"], op.sha256)
        if self._expected is None:
            self._expected = shape
        elif shape != self._expected:
            errors.append(f"emission not deterministic: {shape[:2]} vs {self._expected[:2]}")
        return errors


def plan_check(inst, pats, plan, value):
    """Violations of a plan in a fresh model, its objective's distance from
    the plan's fitness, and the model's row count."""
    model = ilp.build_model(inst, pats)
    assignment = ilp.induced_assignment(model, plan)
    violations = len(ilp.check_assignment(model, assignment))
    gap = abs(ilp.assignment_objective(model, assignment) - value)
    return violations, gap, len(model.rows)


def constructed_plan(inst, pats, rng):
    """The first construction that `evaluate` accepts, with its fitness."""
    while True:
        plan = ga.random_solution(inst, pats, rng)
        if plan is None:
            continue
        try:
            value, _ = evaluation.evaluate(plan, inst, pats)
        except HorizonError:
            continue
        return plan, value


def lp_row_count(lp: bytes) -> int:
    """Constraint rows of an LP file: the lines after 'Subject To' that
    start with a space."""
    start = lp.index(b"\nSubject To\n") + len(b"\nSubject To\n")
    end = re.compile(rb"^(?! )", re.M).search(lp, start).start()
    return lp.count(b"\n", start, end)


SEARCH_INSTANCE = (7, 1, 5)  # r=14 packing patterns, T=14


def make_workloads(jobs: int) -> dict[str, Workload]:
    return {
        w.name: w
        for w in (
            # Generations and construction draws at 0.4x the tuned defaults:
            # 2.5x shorter solves with the same split of self time between
            # layers, so that a run holds several solves.
            SolveWorkload("solve-search", SEARCH_INSTANCE, ["--ng-mult", "400", "--as-mult", "40"], min_ops=4),
            # Few generations, so that drawing the population (8,200
            # random_solution calls plus the evaluation of each one) carries
            # the solve.  --rst 2 rules out restarts: their number depends on
            # the seed and would make the work per solve vary by 25% or more.
            SolveWorkload("solve-construct", (7, 2, 15), ["--ng-mult", "10", "--rst", "2"], min_ops=3),
            BenchWorkload(jobs),
            ModelLpWorkload(),
        )
    }
