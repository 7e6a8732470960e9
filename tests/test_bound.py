import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beamforge.bound import candidate_ratios, lower_bound
from beamforge.errors import InfeasibleInstanceError
from beamforge.evaluation import decode_schedule, exhaustive_optimum
from beamforge.instance import generate_instance
from beamforge.patterns import generate_patterns, require_castable

from conftest import beam_type, check_oracle_result, make_instance


def ratio_oracle(pats, mold_class):
    """Independent recomputation of the waste-per-bar candidates from the
    enumerated pattern data."""
    out = set()
    for p in pats.cutting:
        items = p.item_counts[mold_class - 1]
        if items:
            out.add(Fraction(p.waste, items))
    for p in pats.overlapping:
        if p.produced_class == mold_class:
            out.add(Fraction(p.waste))
    return out


class TestCandidateRatios:
    def test_reference_minima(self, cwp000, cwp000_patterns):
        short = candidate_ratios(cwp000, cwp000_patterns, 1)
        long = candidate_ratios(cwp000, cwp000_patterns, 2)
        assert min(short) == Fraction(5)  # 0.05 m per short bar
        assert min(long) == Fraction(5)  # 0.05 m per long bar
        assert short == ratio_oracle(cwp000_patterns, 1)
        assert long == ratio_oracle(cwp000_patterns, 2)

    def test_half_waste_ratio_present(self, cwp000, cwp000_patterns):
        # The two-item cut contributes waste/2, exactly.
        assert Fraction(10, 2) in candidate_ratios(cwp000, cwp000_patterns, 1)

    def test_zero_waste_single_item(self):
        inst = make_instance(
            beam_types=[beam_type([330], [1])],
            mold_lengths=[600],
            horizon=1,
            bar_lengths=(600,),
            num_bar_kinds=1,
            stock=(10,),
        )
        pats = generate_patterns(inst)
        assert candidate_ratios(inst, pats, 1) == {Fraction(0)}

    def test_unproducible_class_raises(self):
        inst = make_instance(
            beam_types=[beam_type([330], [1])],
            mold_lengths=[595],
            horizon=1,
            bar_lengths=(500,),
            num_bar_kinds=1,
            stock=(10,),
        )
        pats = generate_patterns(inst)
        assert candidate_ratios(inst, pats, 1) == set()


class TestLowerBound:
    def test_reference_values(self, cwp000, cwp000_patterns):
        # Hand evaluation: work 38.6 m over 35.75 m of molds -> 2 periods;
        # 38.6 m of bars is 7 short or 4 long bars at 0.05 m each -> 0.2 m.
        b = lower_bound(cwp000, cwp000_patterns)
        assert b.makespan_lb == 2
        assert b.waste_lb_cm == Fraction(20)
        assert b.waste_lb == 0.2
        assert b.total == 2.2
        assert b.per_gamma == [(1, 7, Fraction(5)), (2, 4, Fraction(5))]

    def test_zero_demand(self):
        inst = make_instance(
            beam_types=[beam_type([330], [0])], mold_lengths=[595], horizon=1
        )
        pats = generate_patterns(inst)
        b = lower_bound(inst, pats)
        assert b.makespan_lb == 0
        assert b.waste_lb_cm == 0
        assert b.total == 0

    def test_zero_bars_per_beam(self, cwp000):
        inst = make_instance(
            beam_types=[beam_type([112, 330], [5, 10], bars=0)],
            mold_lengths=list(cwp000.mold_lengths),
            horizon=3,
        )
        pats = generate_patterns(inst)
        b = lower_bound(inst, pats)
        assert b.waste_lb_cm == 0
        assert b.total == b.makespan_lb == 2

    def test_monotone_in_demand(self, cwp000, cwp000_patterns):
        base = lower_bound(cwp000, cwp000_patterns).total_cm
        for bump in ((1, 0), (0, 1), (5, 7)):
            inst = make_instance(
                beam_types=[
                    beam_type([112, 330], [5 + bump[0], 10 + bump[1]])
                ],
                mold_lengths=list(cwp000.mold_lengths),
                horizon=3,
                stock=list(cwp000.stock),
            )
            pats = generate_patterns(inst)
            assert lower_bound(inst, pats).total_cm >= base

    def test_pinned_breakdowns(self, cwp000):
        # Every field of the bound on cwp000 and 40 generated instances, each
        # under unit lambda and under one drawn lambda: a change to
        # `lower_bound` or the ratios it reads changes this digest.
        rng = random.Random(0)
        instances = [cwp000] + [
            generate_instance(seed, c, m)
            for seed in range(1, 11)
            for c, m in ((1, 5), (2, 15), (3, 15), (4, 30))
        ]
        rows = []
        for inst in instances:
            pats = generate_patterns(inst)
            weights = tuple(rng.uniform(0.1, 1.0) for _ in range(4))
            for variant in (inst, dataclasses.replace(inst, weights=weights)):
                b = lower_bound(variant, pats)
                rows.append((b.makespan_lb, b.waste_lb_cm, b.per_gamma, b.makespan_weight))
        assert len(rows) == 82
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "34d03cea89e9b51c6df0f72cfaa7c570a0a6e45934c01a9b93c002a37ea6b02f"


class TestWeightedBound:
    def test_weights_scale_each_term(self, cwp000, cwp000_patterns):
        # cwp000's cheapest bars waste 0.05 m each.  Long bars get it only
        # from a plain new-bar cut (lambda2), short bars also from a cut that
        # sets a leftover aside (lambda3), which is the cheaper one here.
        inst = make_instance(
            beam_types=list(cwp000.beam_types),
            mold_lengths=list(cwp000.mold_lengths),
            horizon=3,
            bar_lengths=tuple(cwp000.bar_lengths),
            stock=list(cwp000.stock),
            weights=(0.5, 1.0, 0.25, 1.0),
        )
        b = lower_bound(inst, cwp000_patterns)
        assert b.makespan_lb == 2
        assert b.per_gamma == [(1, 7, Fraction(5, 4)), (2, 4, Fraction(5))]
        # The length count (38.6 m at 1.25 cm per 5.95 m) exceeds the bar
        # count (4 bars at 1.25 cm each).
        assert b.waste_lb_cm == Fraction(3860, 595) * Fraction(5, 4)
        assert b.total_cm == 100 * Fraction(1, 2) * 2 + b.waste_lb_cm
        assert b.total == 1.0 + float(b.waste_lb_cm) / 100

    def test_multi_class_cut_spreads_its_waste(self):
        # An 18 m bar cut into a short and a long item wastes 0.1 m for two
        # bars; no other cut makes a long bar for less than 6.05 m.  The plan
        # of that one cut meets the bound.
        inst = make_instance(
            beam_types=[beam_type([330, 1100], [1, 1])],
            mold_lengths=[595, 1195],
            horizon=2,
            bar_lengths=(1800,),
            num_bar_kinds=1,
            stock=(5,),
        )
        pats = generate_patterns(inst)
        b = lower_bound(inst, pats)
        ch, _ = exhaustive_optimum(inst, pats, max_freq=5, max_genes=6)
        assert b.per_gamma == [(1, 3, Fraction(5)), (2, 2, Fraction(5))]
        assert b.total_cm == 110 == decode_schedule(ch, inst, pats).objective_cm

    def test_oracle_floor_is_the_bound_ratio(self, cwp000, cwp000_patterns):
        # The oracle prunes on the bound's least ratio per class, in m per
        # bar; it is the least per-producer share.
        inst = make_instance(
            beam_types=list(cwp000.beam_types),
            mold_lengths=list(cwp000.mold_lengths),
            horizon=3,
            bar_lengths=tuple(cwp000.bar_lengths),
            stock=list(cwp000.stock),
            weights=(0.5, 0.7, 0.25, 0.9),
        )
        floors = {}
        for g in (1, 2):
            ratio = min(candidate_ratios(inst, cwp000_patterns, g))
            floors[g] = float(ratio / 100)
            assert ratio == min(
                p.weighted_waste_per_bar(inst.weights)
                for p in cwp000_patterns.producers
                if p.item_counts[g - 1]
            )
        assert floors == pytest.approx({1: 0.0125, 2: 0.035}, rel=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(
        lengths=st.lists(st.sampled_from([112, 250, 330, 560]), min_size=1, max_size=2, unique=True),
        demands=st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2),
        new_bar=st.sampled_from([1200, 1800, 2000]),  # 18 and 20 m allow multi-class cuts
        weights=st.tuples(*[st.floats(min_value=0.1, max_value=1.0)] * 4),
    )
    def test_oracle_never_below_the_bound(self, lengths, demands, new_bar, weights):
        # One beam type on molds [595, 595, 1195] with T=4, random lambda.
        inst = make_instance(
            beam_types=[beam_type(lengths, demands[: len(lengths)])],
            mold_lengths=[595, 595, 1195],
            horizon=4,
            bar_lengths=(new_bar, 200, 500, 600, 800),
            weights=weights,
        )
        pats = generate_patterns(inst)
        bound = lower_bound(inst, pats)
        result = exhaustive_optimum(inst, pats, max_freq=4, max_genes=4)
        assume(result is not None)
        assert check_oracle_result(inst, pats, result).objective_cm >= bound.total_cm

    @settings(max_examples=150, deadline=None)
    @given(
        lengths=st.lists(st.sampled_from([112, 250, 330, 560]), min_size=1, max_size=2, unique=True),
        demands=st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2),
        new_bar=st.sampled_from([1200, 1800, 2000]),
        weights=st.tuples(*[st.floats(min_value=0.1, max_value=1.0)] * 4),
        stock=st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5),
    )
    def test_oracle_plan_passes_the_gate_under_limited_stock(
        self, lengths, demands, new_bar, weights, stock
    ):
        # The instances above with 0-3 bars of each kind: a plan the oracle
        # finds passes the structural gate and lies on or above the bound.
        inst = make_instance(
            beam_types=[beam_type(lengths, demands[: len(lengths)])],
            mold_lengths=[595, 595, 1195],
            horizon=4,
            bar_lengths=(new_bar, 200, 500, 600, 800),
            stock=stock,
            weights=weights,
        )
        pats = generate_patterns(inst)
        result = exhaustive_optimum(inst, pats, max_freq=4, max_genes=4)
        if result is not None:
            bound = lower_bound(inst, pats)
            assert check_oracle_result(inst, pats, result).objective_cm >= bound.total_cm


class TestStockPrecheck:
    """The stock, new bars and leftovers, must be at least as long as the
    bars the demand needs (two 3.3 m beams, one bar each: 6.6 m), and must
    make at least as many mold-length bars as any plan needs."""

    @staticmethod
    def instance(bar_lengths, stock, mold=595):
        return make_instance(
            beam_types=[beam_type([330], [2])],
            mold_lengths=[mold],
            horizon=4,
            bar_lengths=bar_lengths,
            num_bar_kinds=1,
            stock=stock,
        )

    def test_exactly_enough_passes(self):
        # Two 3.3 m bars for two 3.3 m molds: exactly the length and the
        # bars needed.
        inst = self.instance((330,), (2,), mold=330)
        assert inst.required_bar_length == 660
        require_castable(inst, generate_patterns(inst))

    def test_one_cm_short_raises(self):
        inst = self.instance((459, 200), (1, 1))
        with pytest.raises(InfeasibleInstanceError) as info:
            require_castable(inst, generate_patterns(inst))
        assert str(info.value) == "stock holds 6.59 m of bar, the demand needs 6.6 m"

    def test_long_enough_but_too_few_bars_raises(self):
        # One 6.6 m bar is long enough in total but makes a single 5.95 m
        # bar of the two needed, so `bound` and `solve` fail at once.
        inst = self.instance((660, 50), (1, 0))
        pats = generate_patterns(inst)
        with pytest.raises(InfeasibleInstanceError) as info:
            require_castable(inst, pats)
        assert str(info.value) == "stock makes at most 1 mold-length bars, the demand needs 2"
        with pytest.raises(InfeasibleInstanceError):
            lower_bound(inst, pats)

    @pytest.mark.parametrize(
        "bar_lengths, stock, mold, castable",
        [
            ((660,), (2,), 595, True),  # one bar from each new bar
            ((1200, 300), (1, 0), 595, True),  # one new bar cut in two
            ((500, 320), (0, 3), 595, False),  # three leftovers: one splice
            ((500, 320), (0, 4), 595, True),  # four leftovers: two splices
            ((500, 800), (0, 1), 595, False),  # a leftover cut makes one bar
            ((500, 800), (0, 2), 595, True),
        ],
    )
    def test_bar_count_boundary(self, bar_lengths, stock, mold, castable):
        inst = self.instance(bar_lengths, stock, mold)
        pats = generate_patterns(inst)
        if castable:
            require_castable(inst, pats)
        else:
            with pytest.raises(InfeasibleInstanceError, match="mold-length bars"):
                require_castable(inst, pats)

    def test_bars_per_cast_and_richest_pattern(self):
        # Type 1: 5 beams of 2 m, two per 5.95 m cast, 2 bars per cast:
        # 3 casts, 6 bars.  Type 2: 3 beams of 3 m, one per cast, 1 bar per
        # cast: 3 bars.  Nine 12 m bars make 9 * 2 bars; 4 make 8 < 9.
        def inst(stock):
            return make_instance(
                beam_types=[beam_type([200], [5], bars=2), beam_type([300], [3])],
                mold_lengths=[595, 595],
                horizon=20,
                bar_lengths=(1200,),
                stock=(stock,),
            )

        require_castable(inst(5), generate_patterns(inst(5)))
        with pytest.raises(InfeasibleInstanceError) as info:
            require_castable(inst(4), generate_patterns(inst(4)))
        assert str(info.value) == "stock makes at most 8 mold-length bars, the demand needs 9"


class TestSupplyPrecheck:
    """The stock must make as many bars of the mold classes a demanded
    length fits as the lengths that fit only those classes need, counting
    only producers whose one use draws no more than the stock holds.  One
    8 m length, demand 2, fits only the 11.95 m class."""

    @staticmethod
    def instance(bar_lengths, stock, num_bar_kinds=1, bars=1):
        return make_instance(
            beam_types=[beam_type([800], [2], bars=bars)],
            mold_lengths=[595, 1195],
            horizon=4,
            bar_lengths=bar_lengths,
            num_bar_kinds=num_bar_kinds,
            stock=stock,
        )

    @pytest.mark.parametrize(
        "bar_lengths, stock, num_bar_kinds, makes",
        [((600,), (50,), 1, "no bar for them"),  # no cut makes a long bar
         # the only long-bar cut draws a kind with no stock
         ((1200, 600), (0, 50), 2, "no bar for them"),
         # a long-bar splice needs two leftovers
         ((600, 700, 600), (50, 1, 0), 1, "no bar for them"),
         # one 12 m bar makes one long bar, the demand needs two
         ((1200, 600), (1, 50), 2, "at most 1 bars for them, the demand needs 2"),
         # one 7 m and one 6 m leftover make one long bar by a splice
         ((600, 700, 600), (50, 1, 1), 1, "at most 1 bars for them, the demand needs 2")],
        ids=["no-producer", "no-stock", "one-leftover", "one-new-bar", "one-splice"],
    )
    def test_unsupplied_class_raises(self, bar_lengths, stock, num_bar_kinds, makes):
        inst = self.instance(bar_lengths, stock, num_bar_kinds)
        pats = generate_patterns(inst)
        with pytest.raises(InfeasibleInstanceError) as info:
            lower_bound(inst, pats)
        assert str(info.value) == (
            f"beam type 1: length 8.0 m fits molds of 11.95 m, and the stock makes {makes}"
        )

    def test_every_class_it_fits_is_named(self):
        # 3.3 m fits the 5.95 m and 11.95 m classes; 3 m bars make only 3 m
        # bars, so the stock's bar count passes.
        inst = make_instance(
            beam_types=[beam_type([330], [2])],
            mold_lengths=[300, 595, 1195],
            horizon=4,
            bar_lengths=(300,),
            stock=(50,),
        )
        with pytest.raises(InfeasibleInstanceError) as info:
            require_castable(inst, generate_patterns(inst))
        assert str(info.value) == (
            "beam type 1: length 3.3 m fits molds of 5.95 or 11.95 m, "
            "and the stock makes no bar for them"
        )

    @pytest.mark.parametrize(
        "bar_lengths, stock, num_bar_kinds, bars",
        [((600,), (50,), 1, 0),  # a type that needs no bars
         ((1200, 600), (2, 50), 2, 1),  # two 12 m bars make the two long bars
         ((600, 700, 600), (50, 2, 2), 1, 1)],  # splices of two leftovers do
        ids=["no-bars", "one-new-bar", "splice"],
    )
    def test_supplied_class_passes(self, bar_lengths, stock, num_bar_kinds, bars):
        inst = self.instance(bar_lengths, stock, num_bar_kinds, bars)
        require_castable(inst, generate_patterns(inst))
