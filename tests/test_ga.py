import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamforge import ga
from beamforge.evaluation import (
    Chromosome,
    Tally,
    _place_genes,
    classify_infeasibility,
    decode_schedule,
    evaluate,
    exhaustive_optimum,
    mold_levels,
    place,
    score,
)
from beamforge.errors import HorizonError, InfeasibleInstanceError
from beamforge.ga import (
    GaParams,
    coin_union_genes,
    crossover1,
    crossover2,
    init_population,
    local_search_insert,
    mean_union_genes,
    mutate,
    random_solution,
    repair,
    run,
)
from beamforge.instance import generate_instance, parse_instance
from beamforge.patterns import CuttingPattern, generate_patterns

from conftest import (
    beam_type,
    cwp000_optimal_genes,
    find_cutting,
    find_packing,
    make_instance,
    pattern_by_id,
)


def multi_class_instance():
    """Molds of 8.0 and 12.5 m and one 23.3 m bar kind, so one cut can make
    bars of both classes."""
    return make_instance(
        beam_types=[beam_type([688, 749], [3, 2])],
        mold_lengths=[800, 1250],
        horizon=6,
        bar_lengths=(2330,),
        num_bar_kinds=1,
        stock=(8,),
    )


class FakeRng:
    """Scripted random() values for coin-flip tests."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def feasible_and_schedulable(ch, inst, pats):
    if not classify_infeasibility(ch, inst, pats).feasible:
        return False
    try:
        decode_schedule(ch, inst, pats)
    except HorizonError:
        return False
    return True


# Masks of up to 696 bits from bytes that are often empty, full or a single
# edge bit, so that set bits fill and skip whole bytes and 32-bit words.
BYTE_MASKS = (
    st.lists(st.sampled_from([0, 1, 0x80, 0xFF]) | st.integers(0, 255), min_size=1, max_size=87)
    .map(lambda octets: int.from_bytes(bytes(octets), "little"))
    .filter(bool)
)


@pytest.fixture(scope="module", params=["cwp000", "two-class"])
def instance_pair(request, cwp000, cwp000_patterns):
    if request.param == "cwp000":
        return cwp000, cwp000_patterns
    # Two mold classes (11 and 4 molds), curing 1 and 2 periods, horizon 7.
    inst = generate_instance(7, 2, 15)
    return inst, generate_patterns(inst)


class TestConstruction:
    def test_always_feasible_or_rejected(self, cwp000, cwp000_patterns):
        rng = random.Random(0)
        produced = 0
        for _ in range(300):
            ch = random_solution(cwp000, cwp000_patterns, rng)
            if ch is None:
                continue
            produced += 1
            assert feasible_and_schedulable(ch, cwp000, cwp000_patterns)
            assert all(freq >= 1 for _, freq in ch.genes)
            assert len({pid for pid, _ in ch.genes}) == len(ch.genes)
        assert produced > 0

    def test_zero_demand_gives_empty(self):
        inst = make_instance(
            beam_types=[beam_type([330], [0])], mold_lengths=[595], horizon=1
        )
        pats = generate_patterns(inst)
        ch = random_solution(inst, pats, random.Random(1))
        assert ch is not None and ch.genes == []
        assert evaluate(ch, inst, pats)[0] == 0

    def test_curing_as_long_as_the_horizon(self):
        # Each mold takes exactly one cast that cures for the whole horizon.
        inst = make_instance(
            beam_types=[beam_type([330], [2], curing=3)], mold_lengths=[595, 595], horizon=3
        )
        pats = generate_patterns(inst)
        ch = random_solution(inst, pats, random.Random(0))
        assert ch is not None and feasible_and_schedulable(ch, inst, pats)
        assert decode_schedule(ch, inst, pats).makespan == 3

    def test_multi_class_cuts_selected_once(self):
        # A bar spanning both mold lengths shows up in both made-slot
        # columns; it must still end up as at most one gene.
        inst = multi_class_instance()
        pats = generate_patterns(inst)
        rng = random.Random(0)
        produced = 0
        for _ in range(200):
            ch = random_solution(inst, pats, rng)
            if ch is None:
                continue
            produced += 1
            ids = [pid for pid, _ in ch.genes]
            assert len(set(ids)) == len(ids)
            assert feasible_and_schedulable(ch, inst, pats)
        assert produced > 0

    def test_long_bars_only_from_splices_when_stock_forces_it(self, cwp000_text):
        inst = parse_instance(cwp000_text)
        inst.stock = [0, 0, 0, 28, 29]
        pats = generate_patterns(inst)
        rng = random.Random(3)
        produced = 0
        for _ in range(120):
            ch = random_solution(inst, pats, rng)
            if ch is None:
                continue
            produced += 1
            assert feasible_and_schedulable(ch, inst, pats)
            for pid, _ in ch.genes:
                pattern = pattern_by_id(pats, pid)
                if isinstance(pattern, CuttingPattern):
                    assert pattern.item_counts[1] == 0  # no long bars from cuts
        assert produced > 0

    def test_pinned_construction_bytes(self, cwp000, cwp000_patterns):
        # Plans, rejections and the generator state after each batch.
        batches = []
        for inst, draws in (
            (cwp000, 1000),
            (generate_instance(7, 1, 5), 2000),
            (generate_instance(7, 2, 15), 3000),
            (generate_instance(23, 2, 15), 500),
        ):
            pats = cwp000_patterns if inst is cwp000 else generate_patterns(inst)
            rng = random.Random(11)
            plans = [random_solution(inst, pats, rng) for _ in range(draws)]
            batches.append(([None if ch is None else ch.genes for ch in plans], rng.getstate()))
        digest = hashlib.sha256(repr(batches).encode()).hexdigest()
        assert digest == "03ef6290072c7e32482c855cd51e7fa1580cc6526b56d66f18caa07b9a114d6e"
        # One cut of the only bar makes bars of both classes.
        inst = multi_class_instance()
        pats = generate_patterns(inst)
        rng = random.Random(3)
        plans = [random_solution(inst, pats, rng) for _ in range(2000)]
        batch = ([None if ch is None else ch.genes for ch in plans], rng.getstate())
        digest = hashlib.sha256(repr([batch]).encode()).hexdigest()
        assert digest == "fc7eec71c9d9d910a71ebace779a6189ebc475530be15b54cd9327f4c61e2d99"


    @settings(max_examples=300, deadline=None)
    @given(mask=st.integers(1, (1 << 700) - 1) | BYTE_MASKS)
    @example(mask=(1 << 700) - 1)
    @example(mask=(1 << 64) | (1 << 40) | (1 << 32) | (1 << 31) | (1 << 8) | (1 << 7))
    def test_select_bit_is_the_kth_lowest_set_bit(self, mask):
        # Every k, on masks of 1-700 bits, so k meets byte and word
        # boundaries; the select must pick the bit that clearing the
        # lowest set bit k times leaves lowest.
        rest = mask
        for k in range(mask.bit_count()):
            assert ga._select_bit(mask, k) == (rest & -rest).bit_length() - 1, k
            rest &= rest - 1

    def test_every_construction_scores(self, instance_pair):
        # Population draws score accepted plans without a HorizonError guard.
        inst, pats = instance_pair
        rng = random.Random(8)
        plans = [ch for ch in (random_solution(inst, pats, rng) for _ in range(1500)) if ch]
        assert len(plans) > 300
        for ch in plans:
            assert score(ch, inst, pats) == evaluate(ch, inst, pats)[0]

    def test_caller_tables_change_no_draw(self, instance_pair):
        # Draws on caller tables give the plans and leave the generator state
        # of draws on their own tables, and an accepted plan's tables are the
        # ones the decoder builds.
        inst, pats = instance_pair
        own, theirs = random.Random(31), random.Random(31)
        for _ in range(600):
            tables = mold_levels(inst)
            ch = random_solution(inst, pats, own)
            assert random_solution(inst, pats, theirs, tables) == ch
            assert own.getstate() == theirs.getstate()
            if ch is not None:
                decoded = _place_genes(ch, inst, pats)
                assert [(t.levels, t.low, t.high) for t in tables] == [
                    (t.levels, t.low, t.high) for t in decoded
                ]

    def test_live_draws_match_pop_and_skip(self, instance_pair):
        # Drawing uniformly among the live packing patterns must give the
        # plans that popping random unpicked patterns and skipping the dead
        # ones gives.  Yield and each pattern's share of draws whose plan
        # holds it must agree within 4.5 standard errors (two-proportion z).
        inst, pats = instance_pair
        n = 4000
        rng_live, rng_ref = random.Random(21), random.Random(22)
        live = [random_solution(inst, pats, rng_live) for _ in range(n)]
        ref = [pop_and_skip_solution(inst, pats, rng_ref) for _ in range(n)]

        def z(a, b):
            pooled = (a + b) / (2 * n)
            if pooled in (0, 1):
                return 0.0
            return (a - b) / math.sqrt(2 * n * pooled * (1 - pooled))

        def holding(plans, pid):
            return sum(1 for ch in plans if ch is not None and pid in ch.pattern_ids())

        accepted = sum(ch is not None for ch in live), sum(ch is not None for ch in ref)
        assert 0.2 * n < accepted[0] and abs(z(*accepted)) < 4.5
        for pid in range(1, pats.total + 1):
            assert abs(z(holding(live, pid), holding(ref, pid))) < 4.5, pid


def pop_and_skip_solution(inst, pats, rng):
    """Reference construction: the packing loop as it drew before live-pattern
    draws, then the shared bar supply.  Random unpicked patterns are popped
    and skipped while they pack no short length or their class can no longer
    place them; running out of patterns rejects the plan."""
    genes = []
    tally = Tally(inst, pats)
    deficits = list(inst.demand)  # per beam slot
    short = {s for s, d in enumerate(deficits) if d > 0}
    tables = mold_levels(inst)
    blocked = [inst.horizon + 1] * len(tables)
    unpicked = list(pats.packing)
    while short:
        if not unpicked:
            return None
        pattern = unpicked.pop(rng.randrange(len(unpicked)))
        lengths = dict(pats.casts[pattern.id].packs)
        g = pattern.mold_class - 1
        if short.isdisjoint(lengths) or pattern.duration >= blocked[g]:
            continue
        wanted = max(-(-deficits[s] // count) for s, count in lengths.items() if s in short)
        freq = place(tables[g], pattern.duration, wanted, inst.horizon)
        if freq < wanted:
            blocked[g] = pattern.duration
        if freq == 0:
            continue
        genes.append((pattern.id, freq))
        tally.add(pattern.id, freq)
        for s, count in lengths.items():
            deficits[s] = max(0, deficits[s] - count * freq)
            if not deficits[s]:
                short.discard(s)
    return ga._supply_bars(genes, tally, rng)


class TestCrossoverArithmetic:
    def test_mean_shared_gene(self):
        genes = mean_union_genes(Chromosome([(2, 4)]), Chromosome([(2, 2)]), 0.0, FakeRng([]))
        assert genes == [(2, 3)]

    def test_mean_absent_counts_as_zero(self):
        genes = mean_union_genes(Chromosome([(2, 4)]), Chromosome([(6, 2)]), 0.0, FakeRng([]))
        assert genes == [(2, 2), (6, 1)]

    def test_full_mutation_empties(self):
        genes = mean_union_genes(
            Chromosome([(2, 4)]), Chromosome([(6, 2)]), 1.0, FakeRng([0.0, 0.0])
        )
        assert genes == []

    def test_coin_union_shared_always_kept(self):
        a, b = Chromosome([(2, 4), (11, 2)]), Chromosome([(2, 2)])
        kept = coin_union_genes(a, b, FakeRng([0.4]))
        dropped = coin_union_genes(a, b, FakeRng([0.6]))
        assert kept == [(2, 3), (11, 2)]
        assert dropped == [(2, 3)]

    def test_coin_union_identical_parents(self):
        a = Chromosome([(2, 4), (11, 2)])
        assert coin_union_genes(a, a, FakeRng([])) == [(2, 4), (11, 2)]

    def test_coin_union_disjoint_all_zero(self):
        genes = coin_union_genes(
            Chromosome([(2, 4)]), Chromosome([(6, 2)]), FakeRng([0.9, 0.9])
        )
        assert genes == []

    def test_crossover1_empty_offspring_rejected(self, cwp000, cwp000_patterns):
        a = Chromosome(cwp000_optimal_genes(cwp000_patterns))
        assert crossover1(a, a, cwp000, cwp000_patterns, 1.0, FakeRng([0.0] * 10)) is None


class TestRepair:
    def test_surplus_trim(self, cwp000, cwp000_patterns):
        pats = cwp000_patterns
        genes = cwp000_optimal_genes(pats)
        surplus = [(genes[0][0], 9)] + genes[1:]
        repaired = repair(Chromosome(surplus), cwp000, pats)
        assert repaired is not None
        assert repaired.genes[0] == (genes[0][0], 4)
        assert repaired.genes[1:] == genes[1:]
        assert feasible_and_schedulable(repaired, cwp000, pats)

    def test_cannot_add_absent_patterns(self, cwp000, cwp000_patterns):
        genes = cwp000_optimal_genes(cwp000_patterns)[:2]  # packing only
        assert repair(Chromosome(genes), cwp000, cwp000_patterns) is None

    def test_feasible_input_only_trimmed(self, cwp000, cwp000_patterns):
        genes = cwp000_optimal_genes(cwp000_patterns)
        repaired = repair(Chromosome(genes), cwp000, cwp000_patterns)
        assert repaired.genes == genes

    def test_swap_to_leftover_making_cut(self, cwp000, cwp000_patterns):
        # Replace the double-item cut by the cut that sets a 6 m piece aside;
        # the bar balance is restored on the remaining single-class cut gene.
        pats = cwp000_patterns
        genes = cwp000_optimal_genes(pats)
        double_cut = find_cutting(pats, 1, (2, 0), (0, 0, 0, 0)).id
        with_leftover = find_cutting(pats, 1, (1, 0), (0, 0, 1, 0)).id
        swapped = [(with_leftover, f) if pid == double_cut else (pid, f) for pid, f in genes]
        repaired = repair(Chromosome(swapped), cwp000, pats)
        assert repaired is not None
        assert feasible_and_schedulable(repaired, cwp000, pats)

    def test_stock_excess_reduced(self, cwp000, cwp000_patterns):
        pats = cwp000_patterns
        genes = cwp000_optimal_genes(pats)
        reuse = find_cutting(pats, 4, (1, 0), (0, 0, 0, 0)).id
        blown = [(pid, 99 if pid == reuse else f) for pid, f in genes]
        repaired = repair(Chromosome(blown), cwp000, pats)
        assert repaired is not None
        assert feasible_and_schedulable(repaired, cwp000, pats)

    def test_odd_overrun_on_a_two_leftover_splice(self, cwp000, cwp000_patterns):
        # Each use splices two 8 m leftovers (kind 5, 29 in stock): 15 uses
        # draw 30, and one use less clears the excess of 1.
        splice = next(p for p in cwp000_patterns.overlapping if p.stock_use == ((5, 2),))
        genes = [(splice.id, 15)]
        tally = Tally(cwp000, cwp000_patterns, genes)
        ga._fix_stock(genes, tally)
        assert genes == [(splice.id, 14)]
        assert tally.counts[cwp000_patterns.used_at + 4] == 28 <= cwp000.stock[4]

    def test_idempotent_on_corruptions(self, cwp000, cwp000_patterns):
        pats = cwp000_patterns
        rng = random.Random(11)
        base = random_solution(cwp000, pats, rng)
        assert base is not None
        for _ in range(200):
            genes = [
                (pid, max(1, freq + rng.randint(-3, 3)))
                for pid, freq in base.genes
                if rng.random() > 0.2
            ]
            repaired = repair(Chromosome(genes), cwp000, pats)
            if repaired is None:
                continue
            assert classify_infeasibility(repaired, cwp000, pats).feasible
            again = repair(repaired, cwp000, pats)
            assert again is not None and again.genes == repaired.genes

    @pytest.mark.parametrize(
        "which, digest",
        [
            ("cwp000", "4e63765d403611ab58011534d712ef0cb41128c85149b2527e6064ea625e6bb4"),
            ("two-class", "22867fb6c81cafc098b2dc18711643e683c18a74747c69e4efc506f855d34763"),
            ("multi-class", "1eb8ad2b412fa93b988262a1d504a97d40069d78466d3e1a91233b75b7a5e2b1"),
        ],
        ids=["cwp000", "two-class", "multi-class"],
    )
    def test_pinned_repair_bytes(self, cwp000, cwp000_patterns, which, digest):
        # 300 rounds on each instance reach every line of the three fixers;
        # on the multi-class instance a repaired plan may keep a cut that
        # makes bars of both classes.
        if which == "cwp000":
            inst, pats = cwp000, cwp000_patterns
        else:
            inst = generate_instance(7, 2, 15) if which == "two-class" else multi_class_instance()
            pats = generate_patterns(inst)
        results = repair_batch(inst, pats, random.Random(5), 300)
        assert hashlib.sha256(repr(results).encode()).hexdigest() == digest


def repair_batch(inst, pats, rng, rounds):
    """Gene lists of repair and variation results, None for a rejection.

    Each round repairs a random gene list, a jittered random_solution plan
    with extra producer genes, and a plan with scaled frequencies plus one
    large producer gene; a second set of rounds makes crossover1, crossover2
    and mutate children of random_solution parents.
    """
    ids = list(range(1, pats.total + 1))
    producer_ids = [p.id for p in pats.producers]
    parents = [ch for ch in (random_solution(inst, pats, rng) for _ in range(40)) if ch]
    out = []
    for _ in range(rounds):
        genes = [(rng.choice(ids), rng.randint(1, 6)) for _ in range(rng.randint(1, 10))]
        out.append(repair(Chromosome(genes), inst, pats))
        base = rng.choice(parents)
        genes = [(pid, max(1, f + rng.randint(-3, 3))) for pid, f in base.genes if rng.random() > 0.2]
        genes += [(rng.choice(producer_ids), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
        out.append(repair(Chromosome(genes), inst, pats))
        base = rng.choice(parents)
        genes = [(pid, f * rng.randint(1, 5)) for pid, f in base.genes]
        genes.insert(rng.randint(0, len(genes)), (rng.choice(producer_ids), rng.randint(1, 30)))
        out.append(repair(Chromosome(genes), inst, pats))
    for _ in range(rounds):
        a, b = rng.sample(parents, 2)
        out.append(crossover1(a, b, inst, pats, 0.05, rng))
        out.append(crossover2(a, b, inst, pats, rng))
        out.append(mutate(a, inst, pats, rng))
    return [None if ch is None else ch.genes for ch in out]


class TestMutate:
    def test_contract(self, cwp000, cwp000_patterns):
        rng = random.Random(2)
        base = Chromosome(cwp000_optimal_genes(cwp000_patterns))
        outcomes = {"ok": 0, "rejected": 0}
        for _ in range(100):
            child = mutate(base, cwp000, cwp000_patterns, rng)
            if child is None:
                outcomes["rejected"] += 1
                continue
            outcomes["ok"] += 1
            assert classify_infeasibility(child, cwp000, cwp000_patterns).feasible
        assert outcomes["ok"] > 0

    def test_all_patterns_present_fails(self):
        inst = make_instance(
            beam_types=[beam_type([330], [1])],
            mold_lengths=[595],
            horizon=2,
            bar_lengths=(600,),
            num_bar_kinds=1,
            stock=(5,),
        )
        pats = generate_patterns(inst)
        genes = [(p.id, 1) for p in pats.packing] + [(p.id, 1) for p in pats.cutting]
        with pytest.raises(ValueError):
            mutate(Chromosome(genes), inst, pats, random.Random(0))


class TestLocalSearch:
    def test_never_worse_and_single_gene_fixed(self, cwp000, cwp000_patterns):
        ch = Chromosome(cwp000_optimal_genes(cwp000_patterns))
        before = decode_schedule(ch, cwp000, cwp000_patterns).makespan
        after = local_search_insert(ch, cwp000, cwp000_patterns)
        assert decode_schedule(after, cwp000, cwp000_patterns).makespan <= before
        single = Chromosome([ch.genes[0]])
        assert local_search_insert(single, cwp000, cwp000_patterns).genes == single.genes

    def test_strict_improvement_found(self):
        # Two equal molds; short casts scheduled first leave the long cast to
        # stack on top, while the reversed order runs it in parallel.
        inst = make_instance(
            beam_types=[
                beam_type([330], [2], curing=1, bars=0),
                beam_type([330], [1], curing=2, bars=0),
            ],
            mold_lengths=[595, 595],
            horizon=3,
        )
        pats = generate_patterns(inst)
        short = find_packing(pats, 1, (1,)).id
        long = find_packing(pats, 2, (1,)).id
        ch = Chromosome([(short, 2), (long, 1)])
        assert decode_schedule(ch, inst, pats).makespan == 3
        improved = local_search_insert(ch, inst, pats)
        assert decode_schedule(improved, inst, pats).makespan == 2
        oracle = exhaustive_optimum(inst, pats, max_freq=3, max_genes=4)
        assert oracle is not None and oracle[1] == 2.0


class TestInitPopulation:
    def test_sorted_distinct_bounded(self, cwp000, cwp000_patterns):
        params = GaParams(population_size=10, generations=1, construction_pool=80, rng_seed=4)
        pop = init_population(params, cwp000, cwp000_patterns, random.Random(4))
        assert len(pop.members) <= 10
        assert pop.fitnesses == sorted(pop.fitnesses)
        keys = {m.key() for m in pop.members}
        assert len(keys) == len(pop.members)

    def test_every_draw_goes_through_the_module_function(self, monkeypatch):
        # perfbench's ga.construct span wraps ga.random_solution; a draw that
        # bypassed the module global would not be counted.
        inst = generate_instance(7, 2, 15)
        pats = generate_patterns(inst)
        outcomes = []

        def counting(*args):
            outcomes.append(real(*args))
            return outcomes[-1]

        real = ga.random_solution
        monkeypatch.setattr(ga, "random_solution", counting)
        params = GaParams(population_size=10, generations=1, construction_pool=300, rng_seed=2)
        pop = init_population(params, inst, pats, random.Random(2))
        assert len(outcomes) == 300
        assert 0 < pop.rejected_constructions == outcomes.count(None) < 300

    @pytest.mark.parametrize(
        "args, pool",
        [(None, 400), ((7, 1, 5), 400), ((7, 2, 15), 1200), ((23, 2, 15), 300)],
        ids=["cwp000", "7-1-5", "7-2-15", "23-2-15"],
    )
    def test_population_values_are_scores(self, monkeypatch, cwp000, cwp000_patterns, args, pool):
        # Each accepted draw is valued from its construction's tables; the
        # value must be score's, bit for bit.
        inst = cwp000 if args is None else generate_instance(*args)
        pats = cwp000_patterns if args is None else generate_patterns(inst)
        valued = []

        def recording(ch, *rest):
            valued.append((ch, real(ch, *rest)))
            return valued[-1][1]

        real = ga.score_at_makespan
        monkeypatch.setattr(ga, "score_at_makespan", recording)
        params = GaParams(population_size=25, construction_pool=pool)
        pop = ga._draw_population(params, [], [], inst, pats, random.Random(6))
        assert pop.members and len(valued) == pool - pop.rejected_constructions > 0
        for ch, value in valued:
            assert value.hex() == score(ch, inst, pats).hex()

    @pytest.mark.parametrize(
        "args, pool", [((7, 2, 15), 1200), ((23, 2, 15), 300)], ids=["7-2-15", "23-2-15"]
    )
    def test_reused_tables_change_no_draw(self, monkeypatch, args, pool):
        # One set of level tables, emptied between draws, must give the
        # draws, values and generator state of fresh tables for every draw.
        inst = generate_instance(*args)
        pats = generate_patterns(inst)
        rng = random.Random(9)
        plans, values, rejected = [], [], 0
        for _ in range(pool):
            tables = mold_levels(inst)
            ch = random_solution(inst, pats, rng, tables)
            plans.append(ch)
            if ch is None:
                rejected += 1
            else:
                makespan = max(table.high for table in tables)
                values.append(ga.score_at_makespan(ch, inst, pats, makespan))
        drawn, valued = [], []

        def drawing(*args):
            drawn.append(real_draw(*args))
            return drawn[-1]

        def valuing(*args):
            valued.append(real_value(*args))
            return valued[-1]

        real_draw, real_value = ga.random_solution, ga.score_at_makespan
        monkeypatch.setattr(ga, "random_solution", drawing)
        monkeypatch.setattr(ga, "score_at_makespan", valuing)
        reused = random.Random(9)
        params = GaParams(population_size=25, construction_pool=pool)
        pop = ga._draw_population(params, [], [], inst, pats, reused)
        assert drawn == plans
        assert [v.hex() for v in valued] == [v.hex() for v in values]
        assert pop.rejected_constructions == rejected < pool
        assert reused.getstate() == rng.getstate()

    def test_infeasible_instance_raises(self):
        inst = make_instance(
            beam_types=[beam_type([330], [5])],
            mold_lengths=[595],
            horizon=9,
            bar_lengths=(600,),
            num_bar_kinds=1,
            stock=(1,),
        )
        pats = generate_patterns(inst)
        params = GaParams(
            population_size=5, generations=1, construction_pool=20, restart_elites=2
        )
        with pytest.raises(InfeasibleInstanceError):
            init_population(params, inst, pats, random.Random(0))


class TestRun:
    def test_reaches_reference_optimum(self, cwp000, cwp000_patterns):
        params = GaParams.scaled(cwp000_patterns.num_packing, seed=123)
        result = run(cwp000, cwp000_patterns, params)
        assert result.fitness == pytest.approx(2.3, abs=1e-9)
        assert result.makespan == 2

    def test_zero_generations(self, cwp000, cwp000_patterns):
        params = GaParams(
            population_size=5,
            generations=0,
            construction_pool=50,
            restart_elites=2,
            rng_seed=9,
        )
        result = run(cwp000, cwp000_patterns, params)
        assert result.trace == []
        value, _ = evaluate(result.chromosome, cwp000, cwp000_patterns)
        assert value == result.fitness

    def test_deterministic(self, cwp000, cwp000_patterns):
        params = GaParams(
            population_size=8,
            generations=400,
            construction_pool=60,
            restart_patience=100,
            rng_seed=77,
        )
        a = run(cwp000, cwp000_patterns, params)
        b = run(cwp000, cwp000_patterns, params)
        assert a.fitness == b.fitness
        assert a.chromosome.genes == b.chromosome.genes
        assert a.trace == b.trace

    def test_trace_nonincreasing(self, cwp000, cwp000_patterns):
        params = GaParams(
            population_size=8,
            generations=600,
            construction_pool=60,
            restart_patience=80,
            restart_elites=2,
            rng_seed=5,
        )
        result = run(cwp000, cwp000_patterns, params)
        bests = [s.best_fitness for s in result.trace]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bests, bests[1:]))

    def test_restart_that_draws_nothing_keeps_the_population(self, monkeypatch):
        # With no elites and one draw per packing pattern, some restarts on
        # this instance draw no feasible plan; their rejections still count.
        draws = []

        def recorded(*args):
            drawn = draw_population(*args)
            draws.append((len(drawn.members), drawn.rejected_constructions))
            return drawn

        draw_population = ga._draw_population
        monkeypatch.setattr(ga, "_draw_population", recorded)
        inst = generate_instance(7, 1, 5)
        pats = generate_patterns(inst)
        params = GaParams.scaled(pats.num_packing, seed=1, ng_mult=1, rst=0, as_mult=1, ter=0)
        result = run(inst, pats, params)
        assert any(members == 0 for members, _ in draws[1:])
        assert result.rejected_constructions == sum(rejected for _, rejected in draws)
        assert classify_infeasibility(result.chromosome, inst, pats).feasible

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GaParams(population_size=1)
        with pytest.raises(ValueError):
            GaParams(population_size=5, restart_elites=5)
        with pytest.raises(ValueError):
            GaParams(mutation_rate=1.5)
        for change in ({"restart_elites": -1}, {"construction_pool": 0}, {"restart_patience": -1}):
            with pytest.raises(ValueError):
                GaParams(**change)

    @pytest.mark.parametrize(
        "make",
        [lambda: GaParams(crossover_kind=0), lambda: GaParams(crossover_kind=3),
         lambda: GaParams.scaled(14, crs=3)],
        ids=["kind-zero", "kind-three", "scaled-crs-three"],
    )
    def test_crossover_kind_is_one_or_two(self, make):
        with pytest.raises(ValueError, match="crossover_kind must be 1 or 2"):
            make()

    def test_scaled_rule(self):
        # NG = ng_mult * r, RST = ceil(rst * NG), AS = as_mult * r; the
        # keyword defaults are the tuned configuration.
        assert GaParams.scaled(6, seed=9) == GaParams(
            population_size=25,
            generations=6000,
            mutation_rate=0.05,
            restart_patience=1200,
            construction_pool=600,
            crossover_kind=1,
            restart_elites=5,
            rng_seed=9,
        )
        params = GaParams.scaled(7, ng_mult=3, rst=0.3, as_mult=2, ter=0)
        assert (params.generations, params.restart_patience, params.construction_pool) == (21, 7, 14)
        assert params.restart_elites == 0

    def test_final_population_invariants(self, cwp000, cwp000_patterns):
        params = GaParams(
            population_size=10,
            generations=300,
            construction_pool=80,
            restart_patience=60,
            restart_elites=3,
            rng_seed=21,
        )
        result = run(cwp000, cwp000_patterns, params)
        pop = result.population
        assert pop.fitnesses == sorted(pop.fitnesses)
        keys = [m.key() for m in pop.members]
        assert len(set(keys)) == len(keys)  # no duplicate gene multisets
        for member in pop.members:
            assert feasible_and_schedulable(member, cwp000, cwp000_patterns)

    def test_single_candidate_population(self, cwp000, cwp000_patterns):
        params = GaParams(
            population_size=4,
            generations=0,
            construction_pool=1,
            restart_elites=1,
            rng_seed=3,
        )
        pop = init_population(params, cwp000, cwp000_patterns, random.Random(3))
        assert len(pop.members) == 1
