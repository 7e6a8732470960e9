import dataclasses
import hashlib
import json
import math
import pickle
import random
from heapq import heapreplace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamforge.errors import (
    DimensionMismatchError,
    HorizonError,
    InfeasibleChromosomeError,
    UnknownPatternError,
)
from beamforge.evaluation import (
    Chromosome,
    MoldLevels,
    Tally,
    classify_infeasibility,
    decode_schedule,
    evaluate,
    exhaustive_optimum,
    mold_levels,
    place,
    plan_makespan,
    score,
    score_floor,
)
from beamforge.ga import crossover1, random_solution, repair
from beamforge.instance import generate_instance, parse_instance
from beamforge.ilp import build_model
from beamforge.patterns import PackingPattern, PatternSet, generate_patterns, require_castable

from conftest import (
    CWP000_DOC,
    beam_type,
    check_oracle_result,
    cwp000_optimal_genes,
    find_cutting,
    find_packing,
    make_instance,
    pattern_by_id,
)
from test_acceptance import tiny_instance


class TestDecode:
    def test_reference_packing_layout(self, cwp000, cwp000_patterns):
        genes = [(find_packing(cwp000_patterns, 1, (2, 1)).id, 4),
                 (find_packing(cwp000_patterns, 1, (1, 3)).id, 2)]
        schedule = decode_schedule(Chromosome(genes), cwp000, cwp000_patterns)
        assert mold_loads(schedule, cwp000_patterns) == [1, 1, 1, 1, 2]
        assert schedule.makespan == 2
        pats = cwp000_patterns
        assert Tally(cwp000, pats, genes).counts[pats.required_at : pats.made_at] == [4, 2]

    def test_empty_chromosome(self, cwp000, cwp000_patterns):
        schedule = decode_schedule(Chromosome([]), cwp000, cwp000_patterns)
        assert schedule.makespan == 0

    def test_horizon_overflow(self, cwp000, cwp000_patterns):
        genes = [(find_packing(cwp000_patterns, 1, (1, 3)).id, 4)]
        with pytest.raises(HorizonError):
            decode_schedule(Chromosome(genes), cwp000, cwp000_patterns)

    def test_unknown_id(self, cwp000, cwp000_patterns):
        with pytest.raises(UnknownPatternError):
            decode_schedule(Chromosome([(999, 1)]), cwp000, cwp000_patterns)

    def test_prefix_occupancy(self, cwp000, cwp000_patterns):
        # Occupied periods of every mold form a contiguous prefix.
        genes = [(find_packing(cwp000_patterns, 1, (5, 0)).id, 3),
                 (find_packing(cwp000_patterns, 1, (2, 1)).id, 5)]
        schedule = decode_schedule(Chromosome(genes), cwp000, cwp000_patterns)
        for m, starts in enumerate(schedule.assignments):
            periods = sorted(t for _, t in starts)
            assert periods == list(range(1, len(periods) + 1))


def mold_loads(schedule, pats):
    """Occupied periods per mold, summed from the decoded assignments."""
    return [
        sum(pattern_by_id(pats, pid).duration for pid, _ in starts)
        for starts in schedule.assignments
    ]


def min_scan_decode(genes, inst, pats):
    """Reference placement: the least-loaded mold by a scan over the class,
    ties to the lowest mold index.  Returns (loads, assignments)."""
    loads = [0] * inst.num_molds
    assignments = [[] for _ in range(inst.num_molds)]
    for pid, freq in genes:
        pattern = pattern_by_id(pats, pid)
        if not isinstance(pattern, PackingPattern):
            continue
        molds = inst.class_molds[pattern.mold_class - 1]
        for _ in range(freq):
            target = min(molds, key=lambda m: loads[m])
            if loads[target] + pattern.duration > inst.horizon:
                raise HorizonError(
                    f"pattern {pid} cannot finish within the horizon "
                    f"(mold {target + 1} load {loads[target]}, duration {pattern.duration})"
                )
            assignments[target].append((pid, loads[target] + 1))
            loads[target] += pattern.duration
    return loads, assignments


def heap_place(heap, duration, uses, horizon):
    """Reference placement on a heap of (load, mold index): one cast at a
    time on its top, stopping at the first that would pass the horizon.
    Returns the (mold index, start period) of each cast, in order."""
    starts = []
    for _ in range(uses):
        load, mold = heap[0]
        if load + duration > horizon:
            break
        heapreplace(heap, (load + duration, mold))
        starts.append((mold, load + 1))
    return starts


def levels_of(table):
    """The (load, mold index) pairs a level table holds, sorted."""
    return sorted((load, m) for load, molds in enumerate(table.levels) for m in molds)


@pytest.fixture(scope="module")
def two_class():
    # Two mold classes (11 and 4 molds), curing 1 and 2 periods, horizon 7.
    inst = generate_instance(7, 2, 15)
    return inst, generate_patterns(inst)


@pytest.fixture(scope="module", params=["cwp000", "two-class"])
def instance_pair(request, cwp000, cwp000_patterns, two_class):
    return (cwp000, cwp000_patterns) if request.param == "cwp000" else two_class


class TestPlacement:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_heap_matches_min_scan(self, instance_pair, data):
        inst, pats = instance_pair
        ids = [p.id for p in pats.packing] + [pats.producers[0].id]
        genes = data.draw(
            st.lists(st.tuples(st.sampled_from(ids), st.integers(1, 40)), max_size=12)
        )
        ch = Chromosome(genes)
        try:
            loads, assignments = min_scan_decode(genes, inst, pats)
        except HorizonError as expected:
            for decoder in (decode_schedule, plan_makespan, score):
                with pytest.raises(HorizonError) as err:
                    decoder(ch, inst, pats)
                assert str(err.value) == str(expected)
            return
        schedule = decode_schedule(ch, inst, pats)
        assert mold_loads(schedule, pats) == loads
        assert schedule.assignments == assignments
        assert schedule.makespan == plan_makespan(ch, inst, pats) == max(loads)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_place_matches_a_heap(self, two_class, data):
        # The 11-mold class of (7, 2, 15): one call may cross several levels.
        inst, _ = two_class
        calls = data.draw(
            st.lists(st.tuples(st.integers(1, 3), st.integers(0, 40)), min_size=1, max_size=8)
        )
        table = mold_levels(inst)[0]
        heap = [(0, m) for m in inst.class_molds[0]]
        for duration, uses in calls:
            starts = []
            placed = place(table, duration, uses, inst.horizon, starts)
            assert starts == heap_place(heap, duration, uses, inst.horizon)
            assert placed == len(starts)
        assert levels_of(table) == sorted(heap)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_clear_restores_a_fresh_table(self, two_class, data):
        # Construction reuses one table per class across draws; after any
        # placements, clear() must leave what a fresh table holds.
        inst, _ = two_class
        g = data.draw(st.sampled_from(range(inst.num_mold_classes)))
        molds, horizon = inst.class_molds[g], inst.horizon
        table = MoldLevels(molds, horizon)
        for _ in range(data.draw(st.integers(1, 3))):
            calls = data.draw(
                st.lists(st.tuples(st.integers(1, horizon), st.integers(0, 40)), max_size=8)
            )
            for duration, uses in calls:
                place(table, duration, uses, horizon)
            table.clear()
            fresh = MoldLevels(molds, horizon)
            assert (table.levels, table.low, table.high) == (fresh.levels, fresh.low, fresh.high)

    def test_horizon_stop_after_crossing_levels(self):
        # Five molds, horizon 4.  Three casts of 2 periods take part of level
        # 0 (molds 0-2); one of 1 period lifts mold 3.  Ten casts of 3
        # periods then take mold 4 from level 0 and mold 3 from level 1, and
        # stop at level 2, where a cast would end at 5.
        table = mold_levels(make_instance(
            beam_types=[beam_type([330], [1])], mold_lengths=[595] * 5, horizon=4
        ))[0]
        heap = [(0, m) for m in range(5)]
        for duration, uses, expected in ((2, 3, 3), (1, 1, 1), (3, 10, 2)):
            starts = []
            assert place(table, duration, uses, 4, starts) == expected
            assert starts == heap_place(heap, duration, uses, 4)
        assert starts == [(4, 1), (3, 2)]
        assert (table.low, table.high) == (2, 4)
        assert levels_of(table) == sorted(heap) == [(2, 0), (2, 1), (2, 2), (3, 4), (4, 3)]

    def test_score_is_the_evaluated_objective(self, instance_pair):
        inst, pats = instance_pair
        rng = random.Random(3)
        plans = [ch for ch in (random_solution(inst, pats, rng) for _ in range(200)) if ch]
        ids = list(range(1, pats.total + 1))
        for a, b in zip(plans[:100], plans[1:101]):
            plans.append(crossover1(a, b, inst, pats, 0.05, rng))
        for _ in range(200):
            genes = [(rng.choice(ids), rng.randint(1, 6)) for _ in range(rng.randint(1, 10))]
            plans.append(repair(Chromosome(genes), inst, pats))
        plans = [ch for ch in plans if ch is not None]
        assert len(plans) > 100
        scored = 0
        for ch in plans:
            try:
                value = evaluate(ch, inst, pats)[0]
            except HorizonError:
                with pytest.raises(HorizonError):
                    score(ch, inst, pats)
                continue
            assert score(ch, inst, pats).hex() == value.hex()
            scored += 1
        assert scored > 100


class TestScoreFloor:
    @staticmethod
    def plans(inst, pats, rng):
        """Constructions, crossover children and repaired random gene lists."""
        plans = [ch for ch in (random_solution(inst, pats, rng) for _ in range(150)) if ch]
        for a, b in zip(plans[:60], plans[1:61]):
            plans.append(crossover1(a, b, inst, pats, 0.05, rng))
        ids = list(range(1, pats.total + 1))
        for _ in range(150):
            genes = [(rng.choice(ids), rng.randint(1, 8)) for _ in range(rng.randint(1, 10))]
            plans.append(repair(Chromosome(genes), inst, pats))
        return [ch for ch in plans if ch is not None]

    @staticmethod
    def one_curing_time_per_class(ch, pats):
        durations = {}
        for pid, _ in ch.genes:
            p = pattern_by_id(pats, pid)
            if isinstance(p, PackingPattern):
                durations.setdefault(p.mold_class, set()).add(p.duration)
        return all(len(d) == 1 for d in durations.values())

    @pytest.mark.parametrize(
        "which", ["cwp000", (7, 1, 5), (7, 2, 15)], ids=["cwp000", "7-1-5", "7-2-15"]
    )
    def test_floor_never_above_the_score(self, cwp000, cwp000_patterns, which):
        if which == "cwp000":
            base, pats = cwp000, cwp000_patterns
        else:
            base = generate_instance(*which)
            pats = generate_patterns(base)
        rng = random.Random(29)
        plans = self.plans(base, pats, rng)
        # Unit weights, then random weights with some set to zero.
        weightings = [base.weights] + [
            tuple(rng.choice((0.0, rng.uniform(0, 2))) for _ in range(4)) for _ in range(6)
        ]
        assert any(0.0 in w for w in weightings)
        compared = equal = overflowed = 0
        for weights in weightings:
            inst = dataclasses.replace(base, weights=weights)
            for ch in plans:
                floor = score_floor(ch, inst, pats)
                try:
                    value = score(ch, inst, pats)
                except HorizonError:
                    assert math.isfinite(floor)
                    overflowed += 1
                    continue
                assert floor <= value
                compared += 1
                if self.one_curing_time_per_class(ch, pats):
                    assert floor.hex() == value.hex()
                    equal += 1
        assert compared > 500 and equal > 30
        # The same plan set on the generated instances includes repaired
        # plans whose casts do not fit the horizon.
        assert overflowed > 0 or which == "cwp000"

    def test_floor_below_a_mixed_class(self):
        # One mold class: two casts of 1 period and one of 3 on two molds.
        # The decoder places 1, 1 then 3 on mold 0 (makespan 4); the floor
        # is ceil(5 / 2) = 3.
        inst = make_instance(
            beam_types=[beam_type([330], [2]), beam_type([300], [1], curing=3)],
            mold_lengths=[595, 595],
            horizon=9,
            weights=(1.0, 0.0, 0.0, 0.0),
        )
        pats = generate_patterns(inst)
        genes = [(find_packing(pats, 1, (1,)).id, 2), (find_packing(pats, 2, (1,)).id, 1)]
        ch = Chromosome(genes)
        assert (score_floor(ch, inst, pats), score(ch, inst, pats)) == (3.0, 4.0)


class TestFitness:
    def test_reference_optimum_value(self, cwp000, cwp000_patterns):
        ch = Chromosome(cwp000_optimal_genes(cwp000_patterns))
        value, schedule = evaluate(ch, cwp000, cwp000_patterns)
        assert value == pytest.approx(2.3, abs=1e-12)
        assert schedule.objective_cm == 230

    def test_both_optima_are_exactly_230(self, cwp000, cwp000_patterns):
        # The GA's optimum and the oracle's: equal exactly, but not as floats.
        ga_plan = Chromosome([(2, 4), (7, 2), (9, 1), (13, 2), (6, 2), (15, 1)])
        oracle_plan, _ = exhaustive_optimum(cwp000, cwp000_patterns, max_freq=10, max_genes=8)
        results = [evaluate(ch, cwp000, cwp000_patterns) for ch in (ga_plan, oracle_plan)]
        assert [value for value, _ in results] == [2.3, 2.3000000000000003]
        assert [schedule.objective_cm for _, schedule in results] == [230, 230]

    def test_breakdown_terms(self, cwp000, cwp000_patterns):
        ch = Chromosome(cwp000_optimal_genes(cwp000_patterns))
        schedule = decode_schedule(ch, cwp000, cwp000_patterns)
        assert schedule.new_bar_waste_cm == 20  # 0.1 + 2 * 0.05 on new bars
        assert schedule.new_leftover_waste_cm == 0
        assert schedule.reuse_waste_cm == 10  # 2 * 0.05 on leftover bars
        assert schedule.objective_breakdown == (2.0, 0.2, 0.0, 0.1)

    def test_weight_scaling(self, cwp000_text, cwp000_patterns):
        from beamforge.instance import parse_instance

        inst = parse_instance(cwp000_text)
        inst.weights = (2.0, 1.0, 1.0, 1.0)
        ch = Chromosome(cwp000_optimal_genes(cwp000_patterns))
        schedule = decode_schedule(ch, inst, cwp000_patterns)
        assert schedule.objective_breakdown[0] == 4.0
        assert schedule.objective_breakdown[1:] == (0.2, 0.0, 0.1)

    def test_infeasible_raises_with_report(self, cwp000, cwp000_patterns):
        genes = cwp000_optimal_genes(cwp000_patterns)[:1]
        with pytest.raises(InfeasibleChromosomeError) as err:
            evaluate(Chromosome(genes), cwp000, cwp000_patterns)
        assert err.value.report.demand_shortfall

    def test_gene_order_does_not_change_waste(self, cwp000, cwp000_patterns):
        genes = cwp000_optimal_genes(cwp000_patterns)
        rng = random.Random(5)
        base = decode_schedule(Chromosome(genes), cwp000, cwp000_patterns)
        for _ in range(10):
            shuffled = list(genes)
            rng.shuffle(shuffled)
            schedule = decode_schedule(Chromosome(shuffled), cwp000, cwp000_patterns)
            assert schedule.new_bar_waste_cm == base.new_bar_waste_cm
            assert schedule.new_leftover_waste_cm == base.new_leftover_waste_cm
            assert schedule.reuse_waste_cm == base.reuse_waste_cm


class TestClassify:
    def test_optimal_genes_clean(self, cwp000, cwp000_patterns):
        report = classify_infeasibility(
            Chromosome(cwp000_optimal_genes(cwp000_patterns)), cwp000, cwp000_patterns
        )
        assert report.feasible

    def test_missing_long_casts(self, cwp000, cwp000_patterns):
        genes = [g for g in cwp000_optimal_genes(cwp000_patterns)
                 if g != (find_packing(cwp000_patterns, 1, (1, 3)).id, 2)]
        report = classify_infeasibility(Chromosome(genes), cwp000, cwp000_patterns)
        assert report.demand_shortfall  # the 3.3 m demand is short
        assert report.stock_excess == {}
        assert report.balance_mismatch == {2: (2, 0)}  # long bars are overproduced

    def test_stock_blowout(self, cwp000, cwp000_patterns):
        genes = cwp000_optimal_genes(cwp000_patterns)
        reuse = find_cutting(cwp000_patterns, 4, (1, 0), (0, 0, 0, 0)).id
        genes = [(pid, 99 if pid == reuse else freq) for pid, freq in genes]
        report = classify_infeasibility(Chromosome(genes), cwp000, cwp000_patterns)
        assert report.stock_excess == {4: 99 - 25}

    def test_unknown_id(self, cwp000, cwp000_patterns):
        with pytest.raises(UnknownPatternError):
            classify_infeasibility(Chromosome([(999, 1)]), cwp000, cwp000_patterns)


class TestTally:
    @pytest.mark.parametrize("which", ["cwp000", "generated"])
    def test_updates_match_a_fresh_tally(self, cwp000, cwp000_patterns, which):
        if which == "cwp000":
            inst, pats = cwp000, cwp000_patterns
        else:
            inst = generate_instance(7, 2, 15)
            pats = generate_patterns(inst)
        rng = random.Random(11)
        ids = list(range(1, pats.total + 1))
        freqs = dict.fromkeys(ids, 0)
        tally = Tally(inst, pats)
        for _ in range(400):
            pid = rng.choice(ids)
            delta = rng.randint(-freqs[pid], 6)
            tally.add(pid, delta)
            freqs[pid] += delta
            report = tally.report()
            assert (tally.short(), tally.over(), tally.unbalanced()) == (
                bool(report.demand_shortfall),
                bool(report.stock_excess),
                bool(report.balance_mismatch),
            )
        fresh = Tally(inst, pats, [(pid, f) for pid, f in freqs.items() if f > 0])
        assert tally.counts == fresh.counts
        assert any(tally.counts[: pats.required_at]) and any(tally.counts[pats.used_at :])

    @pytest.mark.parametrize("which", ["cwp000", "generated"])
    def test_room_fills_to_the_nearest_bound(self, cwp000, cwp000_patterns, which):
        if which == "cwp000":
            inst, pats = cwp000, cwp000_patterns
        else:
            inst = generate_instance(7, 2, 15)
            pats = generate_patterns(inst)
        rng = random.Random(5)
        ids = list(range(1, pats.total + 1))
        filled = 0
        for _ in range(60):
            genes = [(rng.choice(ids), rng.randint(1, 6)) for _ in range(rng.randint(1, 12))]
            tally = Tally(inst, pats, genes)
            for p in pats.producers:
                classes = [g for g, n in enumerate(p.item_counts, start=1) if n]
                kinds = [w for w, _ in p.stock_use]

                def holding():
                    counts = tally.counts
                    return (
                        [
                            g
                            for g in classes
                            if counts[pats.made_at + g - 1] <= counts[pats.required_at + g - 1]
                        ],
                        [w for w in kinds if counts[pats.used_at + w - 1] <= inst.stock[w - 1]],
                    )

                before = holding()
                room = tally.room(p.id)
                tally.add(p.id, room)
                assert holding() == before
                tally.add(p.id, 1)
                if before == (classes, kinds):
                    assert holding() != before
                else:
                    assert room == 0
                tally.add(p.id, -room - 1)
                filled += room > 0
        assert filled > 100


    @pytest.mark.parametrize("which", ["cwp000", "generated"])
    def test_a_pickled_pattern_set_tallies_and_draws_alike(self, cwp000, cwp000_patterns, which):
        # `bench --jobs 2` ships each pattern set to its workers by pickle.
        if which == "cwp000":
            inst, pats = cwp000, cwp000_patterns
        else:
            inst = generate_instance(7, 2, 15)
            pats = generate_patterns(inst)
        copy = pickle.loads(pickle.dumps(pats))
        assert copy is not pats
        rng = random.Random(9)
        ids = list(range(1, pats.total + 1))
        for _ in range(60):
            genes = [(rng.choice(ids), rng.randint(1, 6)) for _ in range(rng.randint(1, 12))]
            ours, theirs = Tally(inst, pats, genes), Tally(inst, copy, genes)
            assert ours.counts == theirs.counts
            assert [ours.room(p.id) for p in pats.producers] == [
                theirs.room(p.id) for p in pats.producers
            ]

        def draws(patterns):
            rng = random.Random(17)
            plans = [random_solution(inst, patterns, rng) for _ in range(300)]
            return [None if ch is None else ch.genes for ch in plans], rng.getstate()

        ours = draws(pats)
        assert ours == draws(copy)
        assert any(ours[0])

    def test_one_pattern_set_serves_two_instances(self, cwp000, cwp000_patterns):
        # The same molds, bars and beam lengths, so the same patterns, but
        # demands [2, 3] for [5, 10] and one new bar for 30.
        beam = dict(CWP000_DOC["beam_types"][0], demands=[2, 3])
        doc = dict(CWP000_DOC, beam_types=[beam], stock=[1, 16, 28, 25, 29])
        other, pats = parse_instance(json.dumps(doc)), cwp000_patterns
        genes = cwp000_optimal_genes(pats)  # draws three new bars
        double = find_cutting(pats, 1, (2, 0), (0, 0, 0, 0)).id
        for _ in range(2):  # the second pass reads the kept layouts
            # Four (2, 1) casts: 8 short and 4 long beams, 4 short-mold bars.
            ours, theirs = Tally(cwp000, pats, genes[:1]), Tally(other, pats, genes[:1])
            assert (ours.short(), theirs.short()) == (True, False)
            assert ours.report().demand_shortfall == {(1, 2): 6}
            assert theirs.report().demand_shortfall == {}
            assert (ours.room(double), theirs.room(double)) == (2, 1)
            ours, theirs = Tally(cwp000, pats, genes), Tally(other, pats, genes)
            assert (ours.over(), theirs.over()) == (False, True)
            assert (ours.report().feasible, theirs.report().stock_excess) == (True, {1: 2})
        other.stock = list(cwp000.stock)
        assert not Tally(other, pats, genes).over()

    def test_demanded_length_no_pattern_packs_stays_short(self):
        # 13 m fits neither mold: no pattern packs it, whatever the genes.
        inst = make_instance(
            beam_types=[beam_type([330, 1300], [2, 1])], mold_lengths=[595, 1195], horizon=3
        )
        pats = generate_patterns(inst)
        assert all(p.counts[1] == 0 for p in pats.packing)
        tally = Tally(inst, pats, [(p.id, 5) for p in pats.packing])
        assert tally.short()
        assert tally.report().demand_shortfall == {(1, 2): 1}
        assert random_solution(inst, pats, random.Random(0)) is None

    def test_a_pattern_set_of_another_shape_is_rejected(self, cwp000, cwp000_patterns):
        # cwp000 has 2 demanded lengths, 2 mold classes and 5 bar kinds;
        # (7, 1, 5) demands 132 beams of 4 lengths and has one mold class.
        # A set built without its shape would tally no slots at all.
        with pytest.raises(TypeError):
            PatternSet(packing=[], cutting=[], overlapping=[])
        other = generate_instance(7, 1, 5)
        with pytest.raises(DimensionMismatchError):
            Tally(other, cwp000_patterns)
        with pytest.raises(DimensionMismatchError):
            require_castable(other, cwp000_patterns)
        with pytest.raises(DimensionMismatchError):
            build_model(other, cwp000_patterns)
        with pytest.raises(DimensionMismatchError):
            Tally(cwp000, generate_patterns(other))
        for field, value in (("keys", ((1, 1),)), ("classes", 1), ("kinds", 4)):
            shape = {"keys": cwp000.demand_keys, "classes": 2, "kinds": 5, field: value}
            pats = PatternSet(packing=[], cutting=[], overlapping=[], **shape)
            with pytest.raises(DimensionMismatchError):
                Tally(cwp000, pats)


class TestOracle:
    def test_reference_optimum(self, cwp000, cwp000_patterns):
        result = exhaustive_optimum(cwp000, cwp000_patterns, max_freq=10, max_genes=8)
        assert result is not None
        schedule = check_oracle_result(cwp000, cwp000_patterns, result)
        assert schedule.objective_cm == 230
        assert schedule.makespan == 2

    def test_zero_demand(self):
        inst = make_instance(
            beam_types=[beam_type([330], [0])], mold_lengths=[595], horizon=1
        )
        pats = generate_patterns(inst)
        result = exhaustive_optimum(inst, pats, max_freq=4, max_genes=4)
        check_oracle_result(inst, pats, result)
        assert result[0].genes == []
        assert result[1] == 0

    def test_unfillable_demand(self):
        inst = make_instance(
            beam_types=[beam_type([330], [5])],
            mold_lengths=[595],
            horizon=9,
            bar_lengths=(600,),
            num_bar_kinds=1,
            stock=(1,),  # one bar cannot cover five casts
        )
        pats = generate_patterns(inst)
        assert exhaustive_optimum(inst, pats, max_freq=9, max_genes=4) is None

    def test_budget_exceeded(self, cwp000, cwp000_patterns):
        from beamforge.errors import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            exhaustive_optimum(cwp000, cwp000_patterns, max_freq=10, max_genes=8, budget=50)

    def test_multi_class_cut_found(self):
        # A 20 m bar yields one short and one long item in a single cut
        # (waste 2.1 m), far cheaper than two single-item cuts (22.1 m).
        inst = make_instance(
            beam_types=[beam_type([330, 1100], [1, 1])],
            mold_lengths=[595, 1195],
            horizon=2,
            bar_lengths=(2000,),
            num_bar_kinds=1,
            stock=(5,),
        )
        pats = generate_patterns(inst)
        assert any(p.item_counts == (1, 1) for p in pats.cutting)
        result = exhaustive_optimum(inst, pats, max_freq=5, max_genes=6)
        assert check_oracle_result(inst, pats, result).objective_cm == 310
        ch = result[0]
        used = {pattern_by_id(pats, pid).item_counts for pid, _ in ch.genes if pid in
                {p.id for p in pats.cutting}}
        assert (1, 1) in used

    def test_search_floor_admissible_for_multi_class_cuts(self):
        # Regression: spreading a cut's waste over the items of one class only
        # overestimates the remaining-waste floor and prunes the true optimum
        # on instances whose bars span both mold lengths.  Value frozen from a
        # prune-free exhaustive run.
        inst = make_instance(
            beam_types=[beam_type([688, 749], [3, 2])],
            mold_lengths=[800, 1250],
            horizon=6,
            bar_lengths=(2330,),
            num_bar_kinds=1,
            stock=(8,),
        )
        pats = generate_patterns(inst)
        result = exhaustive_optimum(inst, pats, max_freq=6, max_genes=6)
        assert check_oracle_result(inst, pats, result).objective_cm == 1140

    def test_plans_are_pinned(self, cwp000, cwp000_patterns):
        # The plans, genes in order, on cwp000 and on the first 12 of
        # criterion 5's tiny instances with maximal and with all packing
        # patterns; the search order decides which of equal optima is kept.
        plans = [exhaustive_optimum(cwp000, cwp000_patterns, max_freq=10, max_genes=8)[0].genes]
        rng = random.Random(20260810)
        for _ in range(12):
            inst = tiny_instance(rng)
            for maximal in (True, False):
                pats = generate_patterns(inst, maximal_only=maximal)
                result = exhaustive_optimum(inst, pats, max_freq=12, max_genes=8)
                plans.append(None if result is None else result[0].genes)
        digest = hashlib.sha256(repr(plans).encode()).hexdigest()
        assert digest == "c3bbf79be67a4e8ae4b8e91f98efe5b16d765c2fd086a79bd0f442d8f51f5b8c"
