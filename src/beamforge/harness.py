"""Nine-trial experiment harness: robustness metrics over instance batches.

The trial plan is a fixed fractional-factorial table over the seven solver
control factors; replications are independent solver runs whose results feed
the lower-bound deviation and signal-to-noise aggregates.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

from .bound import lower_bound
from .errors import BeamforgeError, naming
from .ga import GaParams, run
from .instance import Instance
from .patterns import PatternSet, generate_patterns

# Level tables for the seven control factors.  NG, RST, AS and TER scale with
# the packing pattern count r (and the horizon T for TER).
TP_LEVELS = (25, 50)
NG_MULT_LEVELS = (500, 1000)
MUT_LEVELS = (0.01, 0.025, 0.05)
RST_FRAC_LEVELS = (0.1, 0.2)
AS_MULT_LEVELS = (100, 500)
CRS_LEVELS = (1, 2)
TER_FRAC_LEVELS = (0.1, 0.2)

# The 9-trial design over level indices (TP, NG, MUT, RST, AS, CRS, TER).
DESIGN_ROWS = (
    (1, 1, 1, 2, 2, 1, 1),
    (1, 2, 3, 1, 1, 2, 1),
    (1, 2, 2, 1, 2, 1, 2),
    (1, 1, 2, 2, 1, 2, 2),
    (2, 2, 2, 2, 1, 1, 1),
    (2, 1, 2, 1, 2, 2, 1),
    (2, 1, 3, 1, 1, 1, 2),
    (2, 2, 1, 1, 1, 2, 2),
    (2, 2, 3, 2, 2, 2, 2),
)


@dataclass(frozen=True)
class TrialDesign:
    rows: tuple[tuple[int, ...], ...] = DESIGN_ROWS

    def params_for(self, trial: int, num_packing: int, horizon: int, seed: int) -> GaParams:
        """Resolve the 1-based trial row into concrete solver parameters."""
        tp_i, ng_i, mut_i, rst_i, as_i, crs_i, ter_i = self.rows[trial - 1]
        tp = TP_LEVELS[tp_i - 1]
        ter = math.ceil(TER_FRAC_LEVELS[ter_i - 1] * horizon * num_packing)
        return GaParams.scaled(
            num_packing,
            seed,
            tp=tp,
            ng_mult=NG_MULT_LEVELS[ng_i - 1],
            mut=MUT_LEVELS[mut_i - 1],
            rst=RST_FRAC_LEVELS[rst_i - 1],
            as_mult=AS_MULT_LEVELS[as_i - 1],
            crs=CRS_LEVELS[crs_i - 1],
            ter=min(ter, tp - 1),  # elites must leave room in the population
        )


@dataclass
class ReplicationResult:
    trial: int
    instance: str
    rep: int
    seed: int
    fitness: float | None
    makespan: int | None
    lbd: float | None
    time_s: float
    failed: bool = False


@dataclass
class TrialResult:
    trial: int
    replications: list[ReplicationResult] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return sum(r.failed for r in self.replications)

    @property
    def fitnesses(self) -> list[float]:
        return [r.fitness for r in self.replications if not r.failed]

    @property
    def lbd_mean(self) -> float:
        values = [r.lbd for r in self.replications if not r.failed]
        return sum(values) / len(values)

    @property
    def snr(self) -> float:
        return snr(self.fitnesses)

    @property
    def avg_time_s(self) -> float:
        times = [r.time_s for r in self.replications if not r.failed]
        return sum(times) / len(times)


def lbd(fit: float, lb: float) -> float:
    """Relative deviation of a fitness value from a positive lower bound."""
    if lb <= 0:
        raise ValueError("lower bound must be positive")
    return (fit - lb) / lb


def snr(fits: list[float]) -> float:
    """Robustness statistic -10*ln(mean squared fitness); larger is better."""
    if not fits:
        raise ValueError("need at least one fitness value")
    mean_sq = sum(f * f for f in fits) / len(fits)
    if mean_sq <= 0:
        raise ValueError("mean squared fitness must be positive")
    return -10.0 * math.log(mean_sq)


def _replication_seed(seed: int, trial: int, instance_index: int, rep: int) -> int:
    """The solver seed of one cell: the first 8 bytes of the SHA-256 of the
    tuple's text, so distinct cells share a seed only by a 64-bit chance."""
    digest = hashlib.sha256(repr((seed, trial, instance_index, rep)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _run_cell(payload):
    trial, name, index, rep, seed, inst, pats, lb_total, params = payload
    start = time.perf_counter()
    try:
        result = run(inst, pats, params)
    except BeamforgeError:
        fitness = makespan = None
    else:
        fitness, makespan = result.fitness, result.makespan
    elapsed = time.perf_counter() - start
    return ReplicationResult(
        trial=trial,
        instance=name,
        rep=rep,
        seed=seed,
        fitness=fitness,
        makespan=makespan,
        lbd=None if fitness is None else lbd(fitness, lb_total),
        time_s=elapsed,
        failed=fitness is None,
    )


def run_trials(
    design: TrialDesign,
    instances: list[tuple[str, Instance]],
    replications: int,
    seed: int,
    jobs: int = 1,
    trial_numbers: list[int] | None = None,
) -> list[TrialResult]:
    """Run every trial on every instance; deterministic apart from wall times.

    Cells are listed in (trial, instance, replication) order and come back
    in it (`pool.map` keeps its input order), so the output does not depend
    on worker scheduling.  Explicit trial_numbers label (and seed) the
    design rows, letting a subset run reproduce the matching cells of a
    full one.
    """
    if not instances:
        raise ValueError("need at least one instance")
    if replications < 1:
        raise ValueError(f"replications must be >= 1, not {replications}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, not {jobs}")
    if trial_numbers is None:
        trial_numbers = list(range(1, len(design.rows) + 1))
    if len(trial_numbers) != len(design.rows):
        raise ValueError("trial_numbers must label every design row")
    if len(set(trial_numbers)) != len(trial_numbers):
        raise ValueError(f"trial numbers must not repeat: {trial_numbers}")
    prepared: list[tuple[str, Instance, PatternSet, float]] = []
    for name, inst in instances:
        pats = generate_patterns(inst)
        with naming(f"instance {name}"):
            lb_total = lower_bound(inst, pats).total
            if lb_total <= 0:
                raise ValueError("lower bound must be positive")
        prepared.append((name, inst, pats, lb_total))

    payloads = []
    for row, trial in enumerate(trial_numbers, start=1):
        for index, (name, inst, pats, lb_total) in enumerate(prepared):
            for rep in range(1, replications + 1):
                cell_seed = _replication_seed(seed, trial, index, rep)
                params = design.params_for(row, pats.num_packing, inst.horizon, cell_seed)
                payloads.append(
                    (trial, name, index, rep, cell_seed, inst, pats, lb_total, params)
                )

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(_run_cell, payloads))
    else:
        cells = [_run_cell(p) for p in payloads]

    results = {t: TrialResult(trial=t) for t in trial_numbers}
    for cell in cells:
        results[cell.trial].replications.append(cell)
    return [results[t] for t in trial_numbers]


def results_csv(results: list[TrialResult], include_time: bool = True) -> str:
    lines = ["trial,instance,rep,seed,fitness,makespan,lbd,time_s"]
    for trial in results:
        for r in trial.replications:
            fitness = "" if r.fitness is None else repr(r.fitness)
            makespan = "" if r.makespan is None else str(r.makespan)
            deviation = "" if r.lbd is None else repr(r.lbd)
            time_s = repr(round(r.time_s, 6)) if include_time else "0"
            lines.append(
                f"{r.trial},{r.instance},{r.rep},{r.seed},{fitness},{makespan},{deviation},{time_s}"
            )
    return "\n".join(lines) + "\n"


def trials_csv(results: list[TrialResult], include_time: bool = True) -> str:
    lines = ["trial,lbd_mean,snr,avg_time_s"]
    for trial in results:
        if trial.fitnesses:
            avg_time = repr(round(trial.avg_time_s, 6)) if include_time else "0"
            lines.append(f"{trial.trial},{repr(trial.lbd_mean)},{repr(trial.snr)},{avg_time}")
        else:
            lines.append(f"{trial.trial},,,")
    return "\n".join(lines) + "\n"
