"""Steady-state genetic algorithm with infeasibility repair.

One offspring per generation: two random distinct parents, one of two
crossovers, optional mutation, repair, and replace-worst insertion.  Once
the population is full, an offspring whose `score_floor` is no better than
the worst member is dropped without placing its casts: its score could not
beat the worst member either.  The population restarts from its elite after
a stagnation streak, and every member of the final population gets an
insert-move local search, which stops once the member's makespan reaches
its `makespan_floor`.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .errors import HorizonError, InfeasibleInstanceError
from .evaluation import (
    Chromosome,
    Gene,
    Schedule,
    Tally,
    evaluate,
    makespan_floor,
    mold_levels,
    place,
    plan_makespan,
    score,
    score_at_makespan,
    score_floor,
)
from .instance import Instance
from .patterns import PatternSet, require_castable


@dataclass
class GaParams:
    population_size: int = 25  # TP
    generations: int = 1000  # NG
    mutation_rate: float = 0.05  # MUT
    restart_patience: int = 200  # RST, stagnant generations before a restart
    construction_pool: int = 100  # AS, pseudo-random draws per (re)initialization
    crossover_kind: int = 1  # CRS
    restart_elites: int = 5  # TER
    rng_seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 0 <= self.restart_elites < self.population_size:
            raise ValueError("restart_elites must be in [0, population_size)")
        if self.generations < 0:
            raise ValueError("generations must be nonnegative")
        if self.restart_patience < 0:
            raise ValueError("restart_patience must be nonnegative")
        if self.construction_pool < 1:
            raise ValueError("construction_pool must be >= 1")
        if self.crossover_kind not in (1, 2):
            raise ValueError(f"crossover_kind must be 1 or 2, not {self.crossover_kind!r}")

    @classmethod
    def scaled(
        cls,
        num_packing: int,
        seed: int = 0,
        tp: int = 25,
        ng_mult: int = 1000,
        mut: float = 0.05,
        rst: float = 0.2,
        as_mult: int = 100,
        crs: int = 1,
        ter: int = 5,
    ) -> "GaParams":
        """Parameters scaled by the packing pattern count r: NG = ng_mult·r,
        RST = ⌈rst·NG⌉ and AS = as_mult·r.  The defaults are the tuned
        configuration.  An instance with no packing pattern scales as r = 1,
        so that `run` reaches its structural checks."""
        num_packing = max(num_packing, 1)
        ng = ng_mult * num_packing
        if not (rst >= 0 and math.isfinite(rst * ng)):
            raise ValueError(f"restart fraction {rst!r} must be >= 0 and finite times NG = {ng}")
        return cls(
            population_size=tp,
            generations=ng,
            mutation_rate=mut,
            restart_patience=math.ceil(rst * ng),
            construction_pool=as_mult * num_packing,
            crossover_kind=crs,
            restart_elites=ter,
            rng_seed=seed,
        )


@dataclass
class Population:
    """Members sorted by score, ties in arrival order; no two share a key."""

    members: list[Chromosome]
    fitnesses: list[float]
    rejected_constructions: int = 0
    keys: set = field(init=False, repr=False)

    def __post_init__(self):
        self.keys = {m.key() for m in self.members}

    def insert(self, ch: Chromosome, value: float, key) -> None:
        """Add a member whose key is new, after every member scoring `value`."""
        idx = bisect_right(self.fitnesses, value)
        self.members.insert(idx, ch)
        self.fitnesses.insert(idx, value)
        self.keys.add(key)


@dataclass
class GenerationStat:
    generation: int
    best_fitness: float
    mean_fitness: float


@dataclass
class GaResult:
    chromosome: Chromosome
    fitness: float
    schedule: Schedule  # the decoded chromosome
    trace: list[GenerationStat]
    rejected_constructions: int
    population: Population | None = None

    @property
    def makespan(self) -> int:
        return self.schedule.makespan


# -- pseudo-random construction --------------------------------------------

# _BYTE_SELECT[b][k]: the position of the k-th lowest set bit of the byte b.
_BYTE_SELECT = [[i for i in range(8) if b >> i & 1] for b in range(256)]


def _select_bit(mask: int, k: int) -> int:
    """The position of the k-th lowest set bit (k from 0) of `mask`, which
    has more than k set bits: whole 32-bit words and then whole bytes are
    skipped by their bit counts, and a table picks the bit in its byte."""
    shift = 0
    word = mask & 0xFFFFFFFF
    n = word.bit_count()
    while k >= n:
        k -= n
        shift += 32
        word = mask >> shift & 0xFFFFFFFF
        n = word.bit_count()
    byte = word & 0xFF
    n = byte.bit_count()
    while k >= n:
        k -= n
        shift += 8
        word >>= 8
        byte = word & 0xFF
        n = byte.bit_count()
    return shift + _BYTE_SELECT[byte][k]


def random_solution(
    inst: Instance, pats: PatternSet, rng: random.Random, tables=None
) -> Chromosome | None:
    """Build a feasible chromosome or reject.

    Packing patterns are drawn at random from those still live (see below);
    each selected pattern is used as often as needed to cover the demand of
    the lengths it contains, capped so every use still fits inside the
    horizon.  Bars are then supplied class by class (`_supply_bars`).

    Casts go on `tables`, empty per-class level tables (`mold_levels`),
    fresh ones when none are given.  Construction places them as the
    decoder would, gene by gene on empty molds, so the tables of an accepted
    plan are its decoded tables.
    """
    genes: list[tuple[int, int]] = []
    tally = Tally(inst, pats)
    counts, demand, cover, delta = tally.counts, inst.demand, pats.cover, pats.delta
    short = {s for s, d in enumerate(demand) if d > 0}  # beam slots
    if tables is None:
        tables = mold_levels(inst)
    casts, horizon = pats.casts, inst.horizon
    # The patterns whose class can still place them: mold loads only grow,
    # so once a pattern places fewer uses than wanted, every pattern of its
    # class that cures as long or longer would place 0.
    allowed = (1 << pats.num_packing) - 1
    while short:
        # A pattern is live while it is allowed and packs a short length.
        # A pick covers every short length it packs or blocks its class, so
        # it is never live again: a uniform pick among the live patterns is
        # a uniform pick among the unpicked ones that are live.
        live = 0
        for s in short:
            reach = cover[s] & allowed
            if not reach:
                return None  # no pattern left can cover this length
            live |= reach
        # Bit i stands for pattern id i + 1.
        cast = casts[_select_bit(live, rng.randrange(live.bit_count())) + 1]
        wanted = 0
        for s, count in cast.packs:
            if s in short:
                uses = -(-(demand[s] - counts[s]) // count)
                if uses > wanted:
                    wanted = uses
        # Cap the uses so each one still finishes within the horizon.
        freq = place(tables[cast.mold_class], cast.duration, wanted, horizon)
        if freq < wanted:
            allowed &= ~cast.blocks
        if freq == 0:
            continue
        genes.append((cast.id, freq))
        for slot, coefficient in delta[cast.id]:
            counts[slot] += coefficient * freq
        for s, _ in cast.packs:
            if counts[s] >= demand[s]:
                short.discard(s)
    return _supply_bars(genes, tally, rng)


def _supply_bars(genes, tally, rng) -> Chromosome | None:
    """Add bar producers to packing genes: per class, random cuts and then,
    if still short, random splices, each used as often as it has room."""
    pats, counts = tally.pats, tally.counts
    chosen: set[int] = set()
    for g in range(pats.classes):
        needed, made = pats.required_at + g, pats.made_at + g
        # The producers that make class g, in id order: cuts, then splices.
        ids = [pid for pid in pats.column[made] if pid not in chosen]
        split = bisect_left(ids, pats.first_splice)
        for candidates in (ids[:split], ids[split:]):
            while counts[made] < counts[needed] and candidates:
                pid = candidates.pop(rng.randrange(len(candidates)))
                chosen.add(pid)
                freq = tally.room(pid)
                if freq == 0:
                    continue
                genes.append((pid, freq))
                tally.add(pid, freq)
        if counts[made] < counts[needed]:
            return None
    if tally.over() or tally.unbalanced():
        return None
    return Chromosome(genes)


# -- repair -----------------------------------------------------------------
#
# Every fixer changes a gene's frequency only through _set_frequency, so the
# tally built once by repair stays equal to a fresh tally of the genes.  The
# fixers read and edit the tally's slots (`PatternSet`).


def _set_frequency(genes, tally, i, pid, freq):
    tally.add(pid, freq - genes[i][1])
    genes[i] = (pid, freq)


def _trim_packing_surplus(genes, tally):
    """Lower each packing gene, in order, to the least frequency that keeps
    the demand covered given every other gene: by the whole uses that every
    length it packs has to spare."""
    counts, demand, pats = tally.counts, tally.demand, tally.pats
    casts, num_packing = pats.casts, pats.num_packing
    for i, (pid, freq) in enumerate(genes):
        if pid > num_packing or freq == 0:
            continue
        spare = freq
        for s, count in casts[pid].packs:
            uses = (counts[s] - demand[s]) // count
            if uses < spare:
                spare = uses
                if spare <= 0:
                    break
        if spare > 0:
            _set_frequency(genes, tally, i, pid, freq - spare)


def _fix_demand(genes, tally):
    """Raise the first covering packing gene of each short length, in one pass.

    Each raise covers its length and frequencies only rise, so one pass
    settles every covered length.  Returns False at the first short length
    that no gene covers.
    """
    counts, column = tally.counts, tally.pats.column
    for s, demand in enumerate(tally.demand):
        missing = demand - counts[s]
        if missing <= 0:
            continue
        packers = column[s]
        for i, (pid, freq) in enumerate(genes):
            count = packers.get(pid)
            if count:
                _set_frequency(genes, tally, i, pid, freq + -(-missing // count))
                break
        else:
            return False
    return True


def _lower(genes, tally, takes, slot, limit):
    """Lower the genes whose pattern is a key of `takes` ({id: coefficient
    at `slot`}), cuts before splices, each in gene order, by the fewest
    whole uses that bring the slot down to `limit`.  Returns the indices of
    those genes in that order."""
    counts, first_splice = tally.counts, tally.pats.first_splice
    found = [i for i, (pid, _) in enumerate(genes) if pid in takes]
    found.sort(key=lambda i: genes[i][0] >= first_splice)
    for i in found:
        excess = counts[slot] - limit
        if excess <= 0:
            break
        pid, freq = genes[i]
        _set_frequency(genes, tally, i, pid, freq - min(freq, -(-excess // takes[pid])))
    return found


def _fix_stock(genes, tally):
    """Lower the genes that draw each overrun kind (`_lower`) until the
    stock holds."""
    pats, counts = tally.pats, tally.counts
    for w, stock in enumerate(tally.stock):
        used = pats.used_at + w
        if counts[used] > stock:
            _lower(genes, tally, pats.column[used], used, stock)


def _fix_balance(genes, tally):
    """Align produced bars with required bars class by class.

    Only genes already present that make class g alone are adjusted, cuts
    before splices: surplus is cut in whole uses, then a deficit is filled
    with each gene's room (`Tally.room`).
    """
    pats, counts = tally.pats, tally.counts
    for g, makers in enumerate(pats.makers):
        made, required = pats.made_at + g, counts[pats.required_at + g]
        if counts[made] == required:
            continue
        candidates = _lower(genes, tally, makers, made, required)
        for i in candidates:
            if counts[made] >= required:
                break
            pid, freq = genes[i]
            _set_frequency(genes, tally, i, pid, freq + tally.room(pid))


def repair(ch: Chromosome, inst: Instance, pats: PatternSet) -> Chromosome | None:
    """Dispatch the three fixing procedures; feasible chromosome or None.

    Unmet demand is fixed first, surplus packing is trimmed (always, so that
    repairing a repaired chromosome is a no-op), then stock overruns, then the
    bar balance; the tally decides.  Demand stays covered after its fix:
    trimming keeps every length covered, and the later fixers edit producers
    only.
    """
    genes = list(ch.genes)
    tally = Tally(inst, pats, genes)
    if tally.short() and not _fix_demand(genes, tally):
        return None
    _trim_packing_surplus(genes, tally)
    if tally.over():
        _fix_stock(genes, tally)
    if tally.unbalanced():
        _fix_balance(genes, tally)
    if tally.over() or tally.unbalanced():
        return None
    return Chromosome([g for g in genes if g[1] > 0])


# -- variation operators ------------------------------------------------------


def mean_union_genes(a: Chromosome, b: Chromosome, mut: float, rng: random.Random) -> list[Gene]:
    """Gene union with rounded-up mean frequencies and per-gene zeroing.

    The union is a's genes in order, then b's new ones in order; a parent
    that lacks a gene counts 0 for it.
    """
    fb = dict(b.genes)
    genes = []
    for pid, fa in a.genes:
        freq = -(-(fa + fb.pop(pid, 0)) // 2)
        if mut > 0 and rng.random() < mut:
            freq = 0
        if freq > 0:
            genes.append((pid, freq))
    for pid, freq in fb.items():
        freq = -(-freq // 2)
        if mut > 0 and rng.random() < mut:
            freq = 0
        if freq > 0:
            genes.append((pid, freq))
    return genes


def coin_union_genes(a: Chromosome, b: Chromosome, rng: random.Random) -> list[Gene]:
    """Shared genes get the rounded-up mean; single-parent genes flip a coin.
    The union is ordered as in `mean_union_genes`."""
    fb = dict(b.genes)
    genes = []
    for pid, fa in a.genes:
        other = fb.pop(pid, 0)
        if fa and other:
            freq = -(-(fa + other) // 2)
        else:
            freq = (fa or other) if rng.random() < 0.5 else 0
        if freq > 0:
            genes.append((pid, freq))
    for pid, freq in fb.items():
        if rng.random() < 0.5 and freq > 0:
            genes.append((pid, freq))
    return genes


def crossover1(
    a: Chromosome,
    b: Chromosome,
    inst: Instance,
    pats: PatternSet,
    mut: float,
    rng: random.Random,
) -> Chromosome | None:
    return repair(Chromosome(mean_union_genes(a, b, mut, rng)), inst, pats)


def crossover2(
    a: Chromosome,
    b: Chromosome,
    inst: Instance,
    pats: PatternSet,
    rng: random.Random,
) -> Chromosome | None:
    return repair(Chromosome(coin_union_genes(a, b, rng)), inst, pats)


def mutate(
    ch: Chromosome,
    inst: Instance,
    pats: PatternSet,
    rng: random.Random,
) -> Chromosome | None:
    """Swap a present pattern for an absent one, keeping the frequency."""
    if not ch.genes:
        return None
    present = ch.pattern_ids()
    absent = [pid for pid in range(1, pats.total + 1) if pid not in present]
    if not absent:
        raise ValueError("every pattern is already in the chromosome")
    i = rng.randrange(len(ch.genes))
    replacement = absent[rng.randrange(len(absent))]
    genes = list(ch.genes)
    genes[i] = (replacement, genes[i][1])
    return repair(Chromosome(genes), inst, pats)


def local_search_insert(ch: Chromosome, inst: Instance, pats: PatternSet) -> Chromosome:
    """One pass of insert moves, keeping the best strict makespan improvement.

    No gene order decodes below `makespan_floor`, so the pass stops once the
    best makespan reaches it.
    """
    best = ch
    try:
        best_makespan = plan_makespan(ch, inst, pats)
    except HorizonError:
        return ch
    floor = makespan_floor(ch, inst, pats)
    n = len(ch.genes)
    for i in range(n - 1):
        for k in range(i + 1, n):
            if best_makespan == floor:
                return best
            genes = list(ch.genes)
            gene = genes.pop(i)
            genes.insert(k, gene)
            neighbor = Chromosome(genes)
            try:
                makespan = plan_makespan(neighbor, inst, pats)
            except HorizonError:
                continue
            if makespan < best_makespan:
                best, best_makespan = neighbor, makespan
    return best


# -- main loop ----------------------------------------------------------------


def init_population(
    params: GaParams, inst: Instance, pats: PatternSet, rng: random.Random
) -> Population:
    require_castable(inst, pats)
    pop = _draw_population(params, [], [], inst, pats, rng)
    if not pop.members:
        raise InfeasibleInstanceError(
            f"no feasible solution in {params.construction_pool} construction attempts"
        )
    return pop


def _ranked(candidates, size: int, rejected: int) -> Population:
    """The best `size` (plan, score) candidates by score, then key; one per key."""
    pop = Population([], [], rejected)
    for value, key, ch in sorted(((v, ch.key(), ch) for ch, v in candidates), key=lambda c: c[:2]):
        if len(pop.members) == size:
            break
        if key not in pop.keys:
            pop.insert(ch, value, key)
    return pop


def _draw_population(params, members, fitnesses, inst, pats, rng) -> Population:
    """Rank the given members and `construction_pool` fresh draws (`_ranked`).
    The draws share one set of level tables, emptied before each draw."""
    candidates = list(zip(members, fitnesses))
    rejected = 0
    tables = mold_levels(inst)
    for _ in range(params.construction_pool):
        for table in tables:
            table.clear()
        ch = random_solution(inst, pats, rng, tables)
        if ch is None:
            rejected += 1
            continue
        # The tables hold the decoded placements, so the plan scores from
        # them without placing its casts again.
        makespan = max(table.high for table in tables)
        candidates.append((ch, score_at_makespan(ch, inst, pats, makespan)))
    return _ranked(candidates, params.population_size, rejected)


def run(inst: Instance, pats: PatternSet, params: GaParams) -> GaResult:
    """Run the full solver; deterministic for a fixed seed."""
    rng = random.Random(params.rng_seed)
    pop = init_population(params, inst, pats, rng)
    rejected = pop.rejected_constructions
    trace: list[GenerationStat] = []
    stagnation = 0
    prev_best = pop.fitnesses[0]
    for generation in range(1, params.generations + 1):
        offspring = _make_offspring(pop, inst, pats, params, rng)
        # A duplicate is never inserted, so it is not scored.  Once the
        # population is full, an offspring must beat the worst member; its
        # score is never below its floor, so one whose floor cannot is not
        # placed.  One whose casts overrun the horizon is not admitted.
        if offspring is not None and (key := offspring.key()) not in pop.keys:
            full = len(pop.members) == params.population_size
            worst = pop.fitnesses[-1] if full else math.inf
            value = math.inf
            if not full or score_floor(offspring, inst, pats) < worst:
                try:
                    value = score(offspring, inst, pats)
                except HorizonError:
                    pass
            if value < worst:
                if full:
                    pop.keys.discard(pop.members.pop().key())
                    pop.fitnesses.pop()
                pop.insert(offspring, value, key)
        best = pop.fitnesses[0]
        if best < prev_best:
            stagnation = 0
            prev_best = best
        else:
            stagnation += 1
        trace.append(GenerationStat(generation, best, sum(pop.fitnesses) / len(pop.fitnesses)))
        if stagnation >= params.restart_patience:
            n = params.restart_elites
            drawn = _draw_population(params, pop.members[:n], pop.fitnesses[:n], inst, pats, rng)
            rejected += drawn.rejected_constructions
            # A restart without elites may draw no feasible plan: keep the
            # population it would have replaced.
            if drawn.members:
                pop = drawn
            stagnation = 0
            prev_best = pop.fitnesses[0]
    # Final polish: reorder genes of every member for a shorter makespan.
    # The key ignores gene order, so the polished members stay distinct.
    # Only the plan that is returned is classified and decoded in full.
    polished = (local_search_insert(member, inst, pats) for member in pop.members)
    pop = _ranked([(ch, score(ch, inst, pats)) for ch in polished], len(pop.members), rejected)
    best_member = pop.members[0]
    best_value, best_schedule = evaluate(best_member, inst, pats)
    return GaResult(
        chromosome=best_member,
        fitness=best_value,
        schedule=best_schedule,
        trace=trace,
        rejected_constructions=rejected,
        population=pop,
    )


def _make_offspring(pop, inst, pats, params, rng) -> Chromosome | None:
    if len(pop.members) < 2:
        return random_solution(inst, pats, rng)
    i, j = rng.sample(range(len(pop.members)), 2)
    a, b = pop.members[i], pop.members[j]
    if params.crossover_kind == 1:
        child = crossover1(a, b, inst, pats, params.mutation_rate, rng)
    else:
        child = crossover2(a, b, inst, pats, rng)
    if (
        child is not None
        and 0 < len(child.genes) < pats.total  # a pattern must be left to swap in
        and rng.random() < params.mutation_rate
    ):
        child = mutate(child, inst, pats, rng)
    return child
