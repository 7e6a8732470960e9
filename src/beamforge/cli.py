"""Command-line entry point: gen / patterns / bound / emit-lp / solve / bench.

Subcommands are thin adapters over the library; every number crossing the
boundary is in decimal meters.  Exit codes: 0 success, 1 validation error,
2 infeasibility or rejection, 3 I/O error.
"""

from __future__ import annotations

import argparse
import errno
import inspect
import json
import os
import sys

from .bound import lower_bound
from .errors import (
    BeamforgeError,
    InfeasibleInstanceError,
    InstanceFormatError,
    ValidationError,
    naming,
)
from .ga import GaParams, run
from .instance import cm_to_m, generate_instance, load_instance, serialize_instance
from .patterns import PatternSet, generate_patterns

_B36 = "0123456789abcdefghijklmnopqrstuvwxyz"

# The solver flags of `solve` and their defaults: the keywords of
# `GaParams.scaled`, whose defaults are the tuned configuration.
_TUNED = {
    name: param.default
    for name, param in inspect.signature(GaParams.scaled).parameters.items()
    if param.default is not param.empty
}


def _check_writable(*paths: str | None) -> None:
    """Raise the OSError that writing would raise, for every path given, so
    that a run fails before any work and with nothing written: its folder is
    missing or read-only, or the path is a folder or a read-only file."""
    for path in paths:
        if path is None:
            continue
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(folder):
            code = errno.ENOENT
        elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise OSError(code, os.strerror(code), path)


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _patterns_doc(pats: PatternSet) -> dict:
    return {
        "packing": [
            {
                "id": p.id,
                "beam_type": p.beam_type,
                "counts": list(p.counts),
                "mold_class": p.mold_class,
                "used_capacity": cm_to_m(p.used_capacity),
                "duration": p.duration,
            }
            for p in pats.packing
        ],
        "cutting": [
            {
                "id": p.id,
                "source_bar": p.source_bar,
                "item_counts": list(p.item_counts),
                "leftover_counts": list(p.leftover_counts),
                "waste": cm_to_m(p.waste),
            }
            for p in pats.cutting
        ],
        "overlapping": [
            {
                "id": p.id,
                "produced_class": p.produced_class,
                "leftover_counts": list(p.leftover_counts),
                "waste": cm_to_m(p.waste),
            }
            for p in pats.overlapping
        ],
    }


def render_gantt(schedule, pats, horizon: int) -> str:
    """One text row per mold: '.' when idle, a base-36 digit of the pattern id
    for every occupied period."""
    lines = []
    for starts in schedule.assignments:
        row = ["."] * horizon
        for pid, start in starts:
            for t in range(start - 1, start - 1 + pats.casts[pid].duration):
                row[t] = _B36[pid % 36]
        lines.append("".join(row))
    return "\n".join(lines) + "\n"


def _cmd_gen(args) -> int:
    inst = generate_instance(args.seed, args.types, args.molds)
    _write(serialize_instance(inst), args.out)
    return 0


def _cmd_patterns(args) -> int:
    _check_writable(args.out)
    inst = load_instance(args.instance)
    pats = generate_patterns(inst)
    _write(json.dumps(_patterns_doc(pats)) + "\n", args.out)
    return 0


def _cmd_bound(args) -> int:
    _check_writable(args.out)
    inst = load_instance(args.instance)
    pats = generate_patterns(inst)
    breakdown = lower_bound(inst, pats)
    doc = {
        "makespan_lb": breakdown.makespan_lb,
        "waste_lb": breakdown.waste_lb,
        "total": breakdown.total,
    }
    _write(json.dumps(doc, separators=(",", ":")) + "\n", args.out)
    return 0


def _cmd_emit_lp(args) -> int:
    from .ilp import build_model, emit_lp

    _check_writable(args.out)
    inst = load_instance(args.instance)
    model = build_model(inst, generate_patterns(inst))
    if args.out is None:
        emit_lp(model, sys.stdout.write)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            emit_lp(model, fh.write)
    return 0


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    pats = generate_patterns(inst)
    params = GaParams.scaled(pats.num_packing, **{name: getattr(args, name) for name in _TUNED})
    if args.trace is not None and args.out is not None:
        if os.path.realpath(args.trace) == os.path.realpath(args.out):
            raise ValueError(f"--trace {args.trace} and --out {args.out} are one file")
    _check_writable(args.trace, args.out)
    result = run(inst, pats, params)
    schedule = result.schedule
    doc = {
        "genes": [[pid, freq] for pid, freq in result.chromosome.genes],
        "makespan": schedule.makespan,
        "objective": result.fitness,
        "breakdown": list(schedule.objective_breakdown),
        "gantt": [
            [
                {"pattern": pid, "start": start, "duration": pats.casts[pid].duration}
                for pid, start in starts
            ]
            for starts in schedule.assignments
        ],
    }
    if args.trace is not None:
        lines = ["generation,best_fitness,mean_fitness"]
        lines += [
            f"{s.generation},{s.best_fitness!r},{s.mean_fitness!r}" for s in result.trace
        ]
        _write("\n".join(lines) + "\n", args.trace)
    _write(json.dumps(doc) + "\n", args.out)
    if args.gantt:
        sys.stdout.write(render_gantt(schedule, pats, inst.horizon))
    return 0


def _trial_numbers(text: str, count: int) -> list[int]:
    """The trial numbers a --trials list names, each in 1..count; run_trials
    rejects a repeated one."""
    try:
        numbers = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"--trials takes comma-separated trial numbers, not {text!r}") from None
    if any(t < 1 or t > count for t in numbers):
        raise ValueError(f"trial numbers must be in 1..{count}")
    return numbers


def _cmd_bench(args) -> int:
    from .harness import TrialDesign, results_csv, run_trials, trials_csv

    design = TrialDesign()
    trial_numbers = None
    if args.trials is not None:
        trial_numbers = _trial_numbers(args.trials, len(design.rows))
        design = TrialDesign(rows=tuple(design.rows[t - 1] for t in trial_numbers))
    names = sorted(n for n in os.listdir(args.instances) if n.endswith(".json"))
    if not names:
        raise InfeasibleInstanceError(f"no instance files in {args.instances}")
    instances = []
    for name in names:
        stem = name[: -len(".json")]
        with naming(f"instance {stem}"):
            instances.append((stem, load_instance(os.path.join(args.instances, name))))
    aggregate = None
    if args.out is not None:
        aggregate = os.path.join(os.path.dirname(args.out) or ".", "trials.csv")
        if os.path.realpath(args.out) == os.path.realpath(aggregate):
            raise ValueError(f"--out {args.out} is where the per-trial aggregate goes")
        _check_writable(args.out, aggregate)
    results = run_trials(
        design, instances, args.reps, args.seed, jobs=args.jobs, trial_numbers=trial_numbers
    )
    include_time = not args.no_timing
    if args.out is None:
        sys.stdout.write(results_csv(results, include_time))
        sys.stdout.write(trials_csv(results, include_time))
    else:
        _write(results_csv(results, include_time), args.out)
        _write(trials_csv(results, include_time), aggregate)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line, subcommands too, as a validation error."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="beamforge")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random benchmark instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--types", type=int, required=True)
    p.add_argument("--molds", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("patterns", help="enumerate all patterns of an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_patterns)

    p = sub.add_parser("bound", help="evaluate the objective lower bound")
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("emit-lp", help="write the integer model in LP format")
    p.add_argument("--instance", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_emit_lp)

    p = sub.add_parser("solve", help="run the genetic solver")
    p.add_argument("--instance", required=True)
    for name, default in _TUNED.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    p.add_argument("--out")
    p.add_argument("--gantt", action="store_true")
    p.add_argument("--trace")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="run the trial plan over an instance batch")
    p.add_argument("--instances", required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--trials", help="comma-separated subset of trial numbers")
    p.add_argument("--no-timing", action="store_true", help="write zeros in time columns")
    p.set_defaults(func=_cmd_bench)
    return parser


def dispatch(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return exc.code
    except (InstanceFormatError, ValidationError, ValueError) as exc:
        print(f"beamforge: {exc}", file=sys.stderr)
        return 1
    except BeamforgeError as exc:
        print(f"beamforge: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"beamforge: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
