"""Chromosome encoding, schedule decoding, the objective and the exhaustive oracle."""

from __future__ import annotations

import itertools
from operator import gt, lt, mul, sub
from dataclasses import dataclass, field
from fractions import Fraction

from .bound import candidate_ratios
from .errors import (
    BudgetExceededError,
    HorizonError,
    InfeasibleChromosomeError,
    UnknownPatternError,
)
from .instance import Instance
from .patterns import PatternSet

Gene = tuple[int, int]  # (pattern id, frequency >= 1)


@dataclass
class Chromosome:
    """Ordered list of (pattern id, frequency) genes encoding a production plan."""

    genes: list[Gene]

    def key(self) -> tuple[Gene, ...]:
        """Order-insensitive identity used for population distinctness."""
        return tuple(sorted(self.genes))

    def pattern_ids(self) -> set[int]:
        return {pid for pid, _ in self.genes}


@dataclass
class Schedule:
    """Decoded mold-by-period plan with its objective ingredients."""

    assignments: list[list[tuple[int, int]]]  # per mold: (pattern id, start period)
    makespan: int  # periods 1..makespan are in use
    new_bar_waste_cm: int
    new_leftover_waste_cm: int
    reuse_waste_cm: int
    weights: tuple[float, float, float, float]

    @property
    def objective_breakdown(self) -> tuple[float, float, float, float]:
        return self._weighted()[1]

    @property
    def objective(self) -> float:
        return self._weighted()[0]

    def _weighted(self):
        return weighted_objective(
            self.weights,
            self.makespan,
            self.new_bar_waste_cm,
            self.new_leftover_waste_cm,
            self.reuse_waste_cm,
        )

    @property
    def objective_cm(self) -> Fraction:
        """The exact objective in centi-units, each lambda taken as the
        `Fraction` of its float: the arithmetic of `BoundBreakdown.total_cm`,
        so a plan and the bound compare exactly.  `objective` rounds each
        term and the sum, so equal plans may differ there: cwp000's two
        optimal plans are both exactly 230, but 2.3 and 2.3000000000000003
        as floats."""
        l1, l2, l3, l4 = (Fraction(w) for w in self.weights)
        return (
            100 * l1 * self.makespan
            + l2 * self.new_bar_waste_cm
            + l3 * self.new_leftover_waste_cm
            + l4 * self.reuse_waste_cm
        )


@dataclass
class InfeasibilityReport:
    """Which feasibility conditions a chromosome violates, with diagnostics."""

    demand_shortfall: dict[tuple[int, int], int] = field(default_factory=dict)
    stock_excess: dict[int, int] = field(default_factory=dict)
    balance_mismatch: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return not (self.demand_shortfall or self.stock_excess or self.balance_mismatch)

    def summary(self) -> str:
        parts = []
        if self.demand_shortfall:
            parts.append(f"demand shortfall {self.demand_shortfall}")
        if self.stock_excess:
            parts.append(f"stock excess {self.stock_excess}")
        if self.balance_mismatch:
            parts.append(f"bar balance {self.balance_mismatch}")
        return "; ".join(parts) if parts else "feasible"


def weighted_objective(weights, makespan, new_bar_waste_cm, new_leftover_waste_cm, reuse_waste_cm):
    """The float objective and its four weighted terms (makespan, then the
    new-bar, leftover-making and reuse waste in meters), summed left to
    right: the one float rule for ranking, reporting and model checking."""
    l1, l2, l3, l4 = weights
    t0 = l1 * makespan
    t1 = l2 * (new_bar_waste_cm / 100.0)
    t2 = l3 * (new_leftover_waste_cm / 100.0)
    t3 = l4 * (reuse_waste_cm / 100.0)
    return t0 + t1 + t2 + t3, (t0, t1, t2, t3)


def waste_cm(uses, pats: PatternSet) -> tuple[int, int, int]:
    """Total waste (cm) per objective bucket over (pattern id, uses) pairs:
    new-bar cuts, leftover-making cuts, leftover reuse (`PatternSet.wastes`;
    packing patterns add nothing)."""
    totals = [0, 0, 0, 0]
    wastes = pats.wastes
    for pid, used in uses:
        bucket, waste = wastes[pid]
        totals[bucket] += waste * used
    return totals[1], totals[2], totals[3]


class Tally:
    """Demand, stock and bar-balance totals of a gene list, kept current.

    `counts` is one int list over the slots of a `PatternSet`, started as a
    copy of its `zero`; `demand` and `stock`, the limits of the beam and
    stock slots, are the instance's, so one pattern set serves any instance
    of its shape.  `add` applies one change of a pattern's frequency through
    the pattern set's `delta`, so a caller that edits genes through it never
    has to rescan them; `short`, `over` and `unbalanced` test the three
    feasibility conditions, and `report` details them.
    """

    __slots__ = ("pats", "demand", "stock", "counts")

    def __init__(self, inst: Instance, pats: PatternSet, genes=()):
        pats.check_shape(inst)
        self.pats = pats
        self.demand, self.stock = inst.demand, inst.stock
        self.counts = counts = pats.zero[:]
        delta = pats.delta
        try:
            for pid, freq in genes:
                for slot, coefficient in delta[pid]:
                    counts[slot] += coefficient * freq
        except KeyError:
            raise UnknownPatternError(f"unknown pattern id {pid}") from None

    def add(self, pid: int, freq: int) -> None:
        """Count `freq` more uses of a pattern; a negative `freq` removes uses."""
        counts = self.counts
        for slot, coefficient in self.pats.delta[pid]:
            counts[slot] += coefficient * freq

    def short(self) -> bool:
        """Some demanded length has fewer beams than its demand (type 1)."""
        return any(map(lt, self.counts, self.demand))

    def over(self) -> bool:
        """Some bar kind is drawn beyond its stock (type 2)."""
        return any(map(gt, self.counts[self.pats.used_at :], self.stock))

    def unbalanced(self) -> bool:
        """Some class has made bars other than its required bars (type 3)."""
        pats, counts = self.pats, self.counts
        return counts[pats.required_at : pats.made_at] != counts[pats.made_at : pats.used_at]

    def room(self, pid: int) -> int:
        """Most uses of a cut or splice that overshoot no class's required
        bars and no stock kind (0 when one is already over): a used slot is
        held to its kind's stock, a made slot to its class's required slot."""
        pats, counts, stock = self.pats, self.counts, self.stock
        used_at, classes = pats.used_at, pats.classes
        most = None
        for s, n in pats.delta[pid]:
            cap = stock[s - used_at] if s >= used_at else counts[s - classes]
            limit = (cap - counts[s]) // n
            if most is None or limit < most:
                most = limit
        return max(0, most)

    def report(self) -> InfeasibilityReport:
        pats, counts = self.pats, self.counts
        report = InfeasibilityReport()
        for key, made, demand in zip(pats.keys, counts, self.demand):
            if made < demand:
                report.demand_shortfall[key] = demand - made
        for w, (used, stock) in enumerate(zip(counts[pats.used_at :], self.stock), start=1):
            if used > stock:
                report.stock_excess[w] = used - stock
        required = counts[pats.required_at : pats.made_at]
        made = counts[pats.made_at : pats.used_at]
        for g, (m, r) in enumerate(zip(made, required), start=1):
            if m != r:
                report.balance_mismatch[g] = (m, r)
        return report


def classify_infeasibility(ch: Chromosome, inst: Instance, pats: PatternSet) -> InfeasibilityReport:
    """Check demand coverage, stock limits and bar balance for a chromosome."""
    return Tally(inst, pats, ch.genes).report()


class MoldLevels:
    """The molds of one class grouped by load: `levels[load]` lists the molds
    at that load in ascending index order, for loads 0..horizon; `low` and
    `high` are the lowest and highest load of any mold."""

    __slots__ = ("molds", "levels", "low", "high")

    def __init__(self, molds, horizon: int):
        self.molds = molds
        self.levels = [list(molds)] + [[] for _ in range(horizon)]
        self.low = self.high = 0

    def clear(self) -> None:
        """Empty every mold again, as a fresh table: only the loads from
        `low` to `high` can hold molds."""
        levels = self.levels
        for load in range(self.low, self.high + 1):
            levels[load] = []
        levels[0] = list(self.molds)
        self.low = self.high = 0


def mold_levels(inst: Instance) -> list[MoldLevels]:
    """One level table per mold class, every mold still empty."""
    return [MoldLevels(molds, inst.horizon) for molds in inst.class_molds]


def place(table: MoldLevels, duration: int, uses: int, horizon: int, starts=None) -> int:
    """Cast up to `uses` times for `duration` periods on the molds of one class.

    Each cast goes to the least-loaded mold, ties to the lowest mold index,
    so occupied periods form a prefix per mold.  The molds of the lowest
    load therefore take their casts in index order and move to
    `load + duration` in one step.  Placing stops at the first cast that
    would end after `horizon` (no other mold could take it either).
    Returns the number of casts placed; appends each one's (mold index,
    start period) to `starts` when given.
    """
    levels = table.levels
    placed = 0
    while placed < uses:
        low = table.low
        end = low + duration
        if end > horizon:
            break
        level = levels[low]
        if uses - placed < len(level):
            moved = level[: uses - placed]
            del level[: uses - placed]
        else:
            moved = level
            levels[low] = []
        if starts is not None:
            starts.extend([(mold, low + 1) for mold in moved])
        placed += len(moved)
        target = levels[end]
        if target:
            target += moved
            target.sort()
        else:
            levels[end] = moved
        if end > table.high:
            table.high = end
        while not levels[low]:
            low += 1
        table.low = low
    return placed


def _place_genes(ch: Chromosome, inst: Instance, pats: PatternSet, assignments=None):
    """Place every packing use of the genes, in order; the per-class level
    tables.

    Appends (pattern id, start period) per use to `assignments[mold]` when
    given; raises HorizonError at the first use that does not fit.
    """
    tables = mold_levels(inst)
    casts, horizon = pats.casts, inst.horizon
    for pid, freq in ch.genes:
        if pid not in pats:
            raise UnknownPatternError(f"unknown pattern id {pid}")
        cast = casts[pid]
        if cast is None:
            continue
        table, duration = tables[cast.mold_class], cast.duration
        starts = None if assignments is None else []
        if place(table, duration, freq, horizon, starts) < freq:
            raise HorizonError(
                f"pattern {pid} cannot finish within the horizon (mold "
                f"{table.levels[table.low][0] + 1} load {table.low}, duration {duration})"
            )
        for mold, start in starts or ():
            assignments[mold].append((pid, start))
    return tables


def plan_makespan(ch: Chromosome, inst: Instance, pats: PatternSet) -> int:
    """The decoded plan's makespan, without building its Schedule."""
    return max(table.high for table in _place_genes(ch, inst, pats))


def makespan_floor(ch: Chromosome, inst: Instance, pats: PatternSet) -> int:
    """A makespan the decoder never goes below, whatever the gene order,
    found without placing: per class, the larger of its curing load spread
    over its molds and its shortest curing time times its casts spread over
    its molds (the decoded makespan itself when the class has one curing
    time).  Finite even when the casts do not fit the horizon."""
    classes = inst.num_mold_classes
    load, count, shortest = [0] * classes, [0] * classes, [inst.horizon] * classes
    casts = pats.casts
    for pid, freq in ch.genes:
        cast = casts[pid]
        if cast is not None:
            g, duration = cast.mold_class, cast.duration
            load[g] += duration * freq
            count[g] += freq
            if duration < shortest[g]:
                shortest[g] = duration
    floor = 0
    for g, molds in enumerate(inst.class_molds):
        if count[g]:
            n = len(molds)
            floor = max(floor, -(-load[g] // n), shortest[g] * -(-count[g] // n))
    return floor


def decode_schedule(ch: Chromosome, inst: Instance, pats: PatternSet) -> Schedule:
    """Turn gene frequencies into a mold/period plan.

    Genes are scanned in order; every use of a packing gene goes, one at a
    time, to the currently least-loaded mold of its length class (`place`).
    """
    assignments: list[list[tuple[int, int]]] = [[] for _ in range(inst.num_molds)]
    tables = _place_genes(ch, inst, pats, assignments)
    w2, w3, w4 = waste_cm(ch.genes, pats)
    return Schedule(
        assignments=assignments,
        makespan=max(table.high for table in tables),
        new_bar_waste_cm=w2,
        new_leftover_waste_cm=w3,
        reuse_waste_cm=w4,
        weights=inst.weights,
    )


def score_at_makespan(ch: Chromosome, inst: Instance, pats: PatternSet, makespan: int) -> float:
    """The float objective of the plan's genes at a given makespan."""
    return weighted_objective(inst.weights, makespan, *waste_cm(ch.genes, pats))[0]


def score(ch: Chromosome, inst: Instance, pats: PatternSet) -> float:
    """The objective `evaluate` would give, without classifying the plan or
    building its Schedule: for plans already known to be feasible.  Raises
    HorizonError like the decoder."""
    return score_at_makespan(ch, inst, pats, plan_makespan(ch, inst, pats))


def score_floor(ch: Chromosome, inst: Instance, pats: PatternSet) -> float:
    """The objective with the makespan replaced by `makespan_floor`: never
    above `score` (float products by weights >= 0 and float sums are
    monotone), equal when each class has one curing time, and computed
    without placing anything."""
    return score_at_makespan(ch, inst, pats, makespan_floor(ch, inst, pats))


def evaluate(ch: Chromosome, inst: Instance, pats: PatternSet) -> tuple[float, Schedule]:
    """The float objective plus the decoded schedule; raises on any
    infeasibility."""
    report = classify_infeasibility(ch, inst, pats)
    if not report.feasible:
        raise InfeasibleChromosomeError(report)
    schedule = decode_schedule(ch, inst, pats)
    return schedule.objective, schedule


# -- exhaustive oracle ------------------------------------------------------


def _min_makespan_order(genes: list[Gene], inst: Instance, pats: PatternSet, tick):
    """The least decoded makespan of the packing genes and the order that
    gives it, or None if no order fits the horizon.

    Classes are independent under the decoder, so the genes of each class
    are ordered separately, each permutation placed on one fresh level
    table of its class: the first permutation with the least makespan,
    which is the first to reach `makespan_floor` when one does (no order
    decodes below it).
    """
    ordered: list[Gene] = []
    worst = 0
    casts, horizon = pats.casts, inst.horizon
    for g, molds in enumerate(inst.class_molds):
        class_genes = [gene for gene in genes if casts[gene[0]].mold_class == g]
        if not class_genes:
            continue
        floor = makespan_floor(Chromosome(class_genes), inst, pats)
        best = None
        for perm in itertools.permutations(class_genes):
            tick()
            table = MoldLevels(molds, horizon)
            for pid, freq in perm:
                if place(table, casts[pid].duration, freq, horizon) < freq:
                    break  # a cast ends after the horizon: skip the order
            else:
                makespan = table.high
                if best is None or makespan < best[0]:
                    best = (makespan, perm)
                    if makespan == floor:
                        break
        if best is None:
            return None
        ordered.extend(best[1])
        worst = max(worst, best[0])
    return worst, ordered


def _min_waste_plan(
    tally: Tally, weights, max_freq: int, max_genes: int, tick, cache: dict, ratios: list
) -> tuple[float, tuple[Gene, ...]] | None:
    """The cheapest cut and splice genes, as (weighted waste, genes), that
    make exactly the bars `tally` requires within stock and `max_genes`, or
    None.  Each use is added to `tally` and taken back."""
    pats, counts = tally.pats, tally.counts
    required, made, used = pats.required_at, pats.made_at, pats.used_at
    key = (tuple(counts[required:made]), max_genes)
    if key in cache:
        return cache[key]
    producers = pats.producers
    genes: list[Gene] = []
    best: tuple[float, tuple[Gene, ...]] | None = None

    def rec(idx: int, waste: float):
        nonlocal best
        tick()
        if not tally.unbalanced():
            if best is None or waste < best[0]:
                best = (waste, tuple(genes))
            return
        if idx == len(producers) or len(genes) >= max_genes:
            return
        if best is not None:
            deficit = map(sub, counts[required:made], counts[made:used])
            if waste + sum(map(mul, deficit, ratios)) >= best[0]:
                return
        p = producers[idx]
        cost = p.cost(weights)
        # Frequencies high-to-low so complete plans appear early.
        for freq in range(min(max_freq, tally.room(p.id)), 0, -1):
            tally.add(p.id, freq)
            genes.append((p.id, freq))
            rec(idx + 1, waste + cost * freq)
            genes.pop()
            tally.add(p.id, -freq)
        rec(idx + 1, waste)

    rec(0, 0.0)
    cache[key] = best
    return best


def exhaustive_optimum(
    inst: Instance,
    pats: PatternSet,
    max_freq: int = 10,
    max_genes: int = 8,
    budget: int = 20_000_000,
) -> tuple[Chromosome, float] | None:
    """Exact minimum objective over all feasible chromosomes within the caps.

    Pure enumeration with pruning, independent of the genetic solver but on
    its evaluation core: one `Tally`, the decoder, `makespan_floor` and the
    bound's least waste ratios.  Returns the plan with its `evaluate` value,
    or None when no feasible chromosome exists within the caps.
    """
    nodes = itertools.count(1)

    def tick():
        if next(nodes) > budget:
            raise BudgetExceededError(f"search exceeded {budget} nodes")

    tally = Tally(inst, pats)
    counts = tally.counts
    ratios = [  # least weighted waste per bar made (m), per class; 0 if none is made
        float(min(candidate_ratios(inst, pats, g), default=0) / 100)
        for g in range(1, inst.num_mold_classes + 1)
    ]
    packing, l1 = pats.casts[1 : pats.num_packing + 1], inst.weights[0]
    capacity = [len(molds) * inst.horizon for molds in inst.class_molds]
    load = [0] * inst.num_mold_classes
    genes: list[Gene] = []
    cache: dict = {}
    best_value: float | None = None
    best_genes: list[Gene] | None = None

    def rec(idx: int):
        nonlocal best_value, best_genes
        tick()
        waste_floor = sum(map(mul, counts[pats.required_at : pats.made_at], ratios))
        if best_value is not None and (
            l1 * makespan_floor(Chromosome(genes), inst, pats) + waste_floor >= best_value
        ):
            return
        order = None if tally.short() else _min_makespan_order(genes, inst, pats, tick)
        if order is not None and (best_value is None or l1 * order[0] + waste_floor < best_value):
            makespan, packing_genes = order
            plan = _min_waste_plan(
                tally, inst.weights, max_freq, max_genes - len(genes), tick, cache, ratios
            )
            if plan is not None and (best_value is None or l1 * makespan + plan[0] < best_value):
                best_value = l1 * makespan + plan[0]
                best_genes = packing_genes + list(plan[1])
        if idx == len(packing) or len(genes) >= max_genes:
            return
        p = packing[idx]
        g = p.mold_class
        for freq in range(1, min(max_freq, (capacity[g] - load[g]) // p.duration) + 1):
            tally.add(p.id, freq)
            load[g] += p.duration * freq
            genes.append((p.id, freq))
            rec(idx + 1)
            genes.pop()
            load[g] -= p.duration * freq
            tally.add(p.id, -freq)
        rec(idx + 1)

    rec(0)
    if best_genes is None:
        return None
    plan = Chromosome(best_genes)
    return plan, evaluate(plan, inst, pats)[0]
