import ast
import dataclasses
import hashlib
import itertools
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamforge
from beamforge.instance import generate_instance
from beamforge.patterns import PatternSet, enumerate_packing_patterns, generate_patterns

from conftest import beam_type, make_instance

# Golden pattern tables for the reference instance, by content
# (lengths in integer centimeters).
PACKING_GOLDEN = [
    # (id, beam type, used capacity, counts)
    (1, 1, 560, (5, 0)),
    (2, 1, 554, (2, 1)),
    (3, 1, 1120, (10, 0)),
    (4, 1, 1114, (7, 1)),
    (5, 1, 1108, (4, 2)),
    (6, 1, 1102, (1, 3)),
]

CUTTING_GOLDEN = {
    # (source bar, item counts, leftover counts) -> waste
    (1, (1, 0), (0, 0, 0, 0)): 605,
    (1, (1, 0), (1, 0, 0, 0)): 405,
    (1, (1, 0), (2, 0, 0, 0)): 205,
    (1, (1, 0), (3, 0, 0, 0)): 5,
    (4, (1, 0), (0, 0, 0, 0)): 5,
    (5, (1, 0), (0, 0, 0, 0)): 205,
    (1, (1, 0), (0, 0, 1, 0)): 5,
    (1, (1, 0), (0, 1, 0, 0)): 105,
    (1, (2, 0), (0, 0, 0, 0)): 10,
    (1, (0, 1), (0, 0, 0, 0)): 5,
}

OVERLAP_GOLDEN = {
    # (produced class, leftover counts) -> waste
    (1, (1, 1, 0, 0)): 105,
    (1, (0, 2, 0, 0)): 405,
    (1, (1, 0, 1, 0)): 205,
    (1, (0, 0, 2, 0)): 605,
    (1, (0, 1, 1, 0)): 505,
    (1, (0, 0, 1, 1)): 805,
    (1, (1, 0, 0, 1)): 405,
    (1, (0, 1, 0, 1)): 705,
    (1, (0, 0, 0, 2)): 1005,
    (2, (0, 0, 0, 2)): 405,
    (2, (0, 1, 0, 1)): 105,
    (2, (0, 0, 1, 1)): 205,
}


class TestPackingGolden:
    def test_exactly_six_patterns(self, cwp000_patterns):
        packing = cwp000_patterns.packing
        assert len(packing) == 6
        for pid, btype, capacity, counts in PACKING_GOLDEN:
            p = packing[pid - 1]
            assert p.id == pid
            assert p.beam_type == btype
            assert p.used_capacity == capacity
            assert p.counts == counts
            assert p.duration == 1
        assert [p.mold_class for p in packing] == [1, 1, 2, 2, 2, 2]

    def test_single_length_single_mold(self):
        inst = make_instance(
            beam_types=[beam_type([330], [1])], mold_lengths=[595], horizon=1
        )
        patterns = enumerate_packing_patterns(inst)
        assert len(patterns) == 1
        assert patterns[0].counts == (1,)
        assert patterns[0].used_capacity == 330

    def test_oversized_beam_gives_nothing(self):
        inst = make_instance(
            beam_types=[beam_type([1300], [1])], mold_lengths=[595, 1195], horizon=1
        )
        assert enumerate_packing_patterns(inst) == []


class TestCuttingGolden:
    def test_exactly_ten_patterns(self, cwp000_patterns):
        cutting = cwp000_patterns.cutting
        assert len(cutting) == 10
        seen = {(p.source_bar, p.item_counts, p.leftover_counts): p.waste for p in cutting}
        assert seen == CUTTING_GOLDEN
        assert [p.id for p in cutting] == list(range(7, 17))

    def test_leftover_bars_make_no_leftovers(self, cwp000, cwp000_patterns):
        for p in cwp000_patterns.cutting:
            if p.source_bar > cwp000.num_bar_kinds:
                assert not any(p.leftover_counts)

    def test_no_item_free_patterns(self, cwp000_patterns):
        assert all(p.total_items > 0 for p in cwp000_patterns.cutting)

    def test_unusable_bars_give_nothing(self):
        # Every bar is shorter than the only mold length.
        inst = make_instance(
            beam_types=[beam_type([330], [1])],
            mold_lengths=[595],
            horizon=1,
            bar_lengths=(500, 400),
            num_bar_kinds=1,
        )
        assert generate_patterns(inst).cutting == []


class TestOverlapGolden:
    def test_exactly_twelve_patterns(self, cwp000_patterns):
        overlaps = cwp000_patterns.overlapping
        assert len(overlaps) == 12
        seen = {(p.produced_class, p.leftover_counts): p.waste for p in overlaps}
        assert seen == OVERLAP_GOLDEN
        assert [p.id for p in overlaps] == list(range(17, 29))

    def test_two_leftovers_each(self, cwp000_patterns):
        assert all(sum(p.leftover_counts) == 2 for p in cwp000_patterns.overlapping)

    def test_waste_at_least_splice_loss(self, cwp000, cwp000_patterns):
        assert all(p.waste >= cwp000.overlap_loss for p in cwp000_patterns.overlapping)

    def test_huge_splice_loss_gives_nothing(self, cwp000_text):
        from beamforge.instance import parse_instance

        inst = parse_instance(cwp000_text)
        inst.overlap_loss = 10000
        assert generate_patterns(inst).overlapping == []


def contains(p, q):
    """True when p packs at least as many beams of every length of the same type."""
    return p.beam_type == q.beam_type and all(a >= b for a, b in zip(p.counts, q.counts))


class TestContains:
    def test_componentwise(self, cwp000_patterns):
        p3 = cwp000_patterns.packing[2]  # (10, 0)
        p4 = cwp000_patterns.packing[3]  # (7, 1)
        smaller = p3.__class__(
            id=99, beam_type=1, counts=(9, 0), mold_class=2, used_capacity=1008, duration=1,
            bars=1,
        )
        assert contains(p3, smaller)
        assert not contains(p3, p4)
        assert contains(p3, p3)

    def test_no_mutual_containment_within_class(self, cwp000_patterns):
        for p, q in itertools.permutations(cwp000_patterns.packing, 2):
            if p.beam_type == q.beam_type and p.mold_class == q.mold_class:
                assert not contains(p, q)


class TestIdScheme:
    def test_contiguous_blocks(self, cwp000_patterns):
        pats = cwp000_patterns
        assert [p.id for p in pats.packing] == list(range(1, pats.num_packing + 1))
        assert [p.id for p in pats.cutting] == list(
            range(pats.num_packing + 1, pats.num_packing + pats.num_cutting + 1)
        )
        first_overlap = pats.num_packing + pats.num_cutting + 1
        assert [p.id for p in pats.overlapping] == list(
            range(first_overlap, first_overlap + len(pats.overlapping))
        )

    def test_pinned_enumeration(self, cwp000):
        # Every pattern record, in id order, with maximal and with all
        # packing patterns, on cwp000 and on 40 generated instances.
        digest = hashlib.sha256()
        instances = [cwp000] + [
            generate_instance(seed, types, molds)
            for types, molds in ((1, 5), (2, 15), (3, 15), (4, 30))
            for seed in range(1, 11)
        ]
        for inst in instances:
            for maximal in (True, False):
                pats = generate_patterns(inst, maximal_only=maximal)
                digest.update(repr((pats.packing, pats.cutting, pats.overlapping)).encode())
        assert digest.hexdigest() == (
            "1f79d8fbc59ce1d854b3fcb50f9a7e46813de3d680b94b8a2ecf0521fa14616c"
        )

    @pytest.mark.parametrize("family", ["packing", "cutting", "overlapping"])
    def test_ids_out_of_order_are_rejected(self, cwp000_patterns, family):
        # Renumber the family's second pattern past the end: every table is
        # indexed by id, so the set must refuse it.
        pats = cwp000_patterns
        patterns = list(getattr(pats, family))
        patterns[1] = dataclasses.replace(patterns[1], id=99)
        fields = {
            "packing": pats.packing, "cutting": pats.cutting, "overlapping": pats.overlapping,
            family: patterns,
        }
        with pytest.raises(ValueError, match=f"pattern id 99 stands where id {patterns[0].id + 1}"):
            PatternSet(**fields, keys=pats.keys, classes=pats.classes, kinds=pats.kinds)

    def test_a_gap_in_the_ids_is_rejected(self, cwp000_patterns):
        pats = cwp000_patterns
        with pytest.raises(ValueError, match="pattern id 8 stands where id 7"):
            PatternSet(
                packing=pats.packing, cutting=pats.cutting[1:], overlapping=pats.overlapping,
                keys=pats.keys, classes=pats.classes, kinds=pats.kinds,
            )

    def test_two_runs_identical(self, cwp000):
        a = generate_patterns(cwp000)
        b = generate_patterns(cwp000)
        assert a.packing == b.packing
        assert a.cutting == b.cutting
        assert a.overlapping == b.overlapping

    def test_standalone_enumerations_match_set(self, cwp000, cwp000_patterns):
        assert enumerate_packing_patterns(cwp000) == cwp000_patterns.packing
        assert generate_patterns(cwp000).cutting == cwp000_patterns.cutting
        assert generate_patterns(cwp000).overlapping == cwp000_patterns.overlapping


class TestDrawIndex:
    def test_masks_list_the_patterns(self, cwp000_patterns):
        for pats in (cwp000_patterns, generate_patterns(generate_instance(7, 2, 15))):
            def bits(mask):
                return {i for i in range(pats.num_packing) if mask >> i & 1}

            assert len(pats.cover) == len(pats.keys)
            for key, mask in zip(pats.keys, pats.cover):
                assert bits(mask) == {
                    i
                    for i, p in enumerate(pats.packing)
                    if p.beam_type == key[0] and p.counts[key[1] - 1]
                }
            assert len(pats.casts) == pats.total + 1
            assert pats.casts[0] is None
            assert all(pats.casts[p.id] is None for p in pats.producers)
            for p in pats.packing:
                cast = pats.casts[p.id]
                assert cast.id == p.id
                assert (cast.mold_class, cast.duration) == (p.mold_class - 1, p.duration)
                assert cast.packs == tuple(
                    (pats.keys.index((p.beam_type, k)), n)
                    for k, n in enumerate(p.counts, start=1)
                    if n
                )
                assert bits(cast.blocks) == {
                    i
                    for i, q in enumerate(pats.packing)
                    if q.mold_class == p.mold_class and q.duration >= p.duration
                }

    def test_column_is_the_transpose_of_delta(self, cwp000_patterns):
        for pats in (cwp000_patterns, generate_patterns(generate_instance(7, 2, 15))):
            assert len(pats.column) == len(pats.zero)
            entries = sorted(
                (s, pid, coefficient)
                for pid, pairs in pats.delta.items()
                for s, coefficient in pairs
            )
            assert entries == [
                (s, pid, coefficient)
                for s, column in enumerate(pats.column)
                for pid, coefficient in column.items()
            ]
            # makers[g] is the part of class g's made column whose producers
            # make no other class.
            made = pats.column[pats.made_at : pats.used_at]
            for g, makers in enumerate(pats.makers):
                assert makers == {
                    pid: n
                    for pid, n in made[g].items()
                    if sum(pid in column for column in made) == 1
                }


def test_every_pattern_table_is_read():
    """Each attribute `PatternSet.__post_init__` assigns is read somewhere in
    the package outside `__post_init__`: no table is built for no reader."""
    package = pathlib.Path(beamforge.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")]
    post_init = next(
        node
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "PatternSet"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
    )
    inside = {id(node) for node in ast.walk(post_init)}
    built = {
        target.attr
        for node in ast.walk(post_init)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    }
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in inside
    }
    assert {"delta", "casts"} <= built and "draws" not in built
    assert sorted(built - read) == []


# -- brute-force equivalence -------------------------------------------------


def brute_packing(inst, maximal_only=True):
    """Cartesian enumeration with the feasibility window applied afterwards."""
    out = set()
    for c, bt in enumerate(inst.beam_types, start=1):
        bound = max(inst.distinct_mold_lengths) // min(bt.lengths)
        for g, cap in enumerate(inst.distinct_mold_lengths, start=1):
            lower = cap - min(bt.lengths) if maximal_only else 0
            for counts in itertools.product(range(bound + 1), repeat=len(bt.lengths)):
                used = sum(l * a for l, a in zip(bt.lengths, counts))
                if used > 0 and lower < used <= cap:
                    out.add((c, g, counts))
    return out


def brute_cutting(inst):
    out = set()
    classes = inst.distinct_mold_lengths
    V = inst.num_leftover_kinds
    for w, bar in enumerate(inst.bar_lengths, start=1):
        item_bound = max(bar // L for L in classes)
        for items in itertools.product(range(item_bound + 1), repeat=len(classes)):
            if not any(items):
                continue
            used = sum(L * a for L, a in zip(classes, items))
            if used > bar:
                continue
            out.add((w, items, tuple([0] * V)))
            if w > inst.num_bar_kinds:
                continue
            for v in range(1, V + 1):
                piece = inst.leftover_length(v)
                for n in range(1, (bar - used) // piece + 1):
                    leftovers = [0] * V
                    leftovers[v - 1] = n
                    out.add((w, items, tuple(leftovers)))
    return out


def brute_overlapping(inst):
    out = set()
    V = inst.num_leftover_kinds
    for g, cap in enumerate(inst.distinct_mold_lengths, start=1):
        for counts in itertools.product(range(3), repeat=V):
            if sum(counts) != 2:
                continue
            combined = sum(
                inst.leftover_length(v) * n for v, n in enumerate(counts, start=1)
            )
            if combined >= cap + inst.overlap_loss:
                out.add((g, counts))
    return out


def assert_matches_brute(inst):
    pats = generate_patterns(inst)
    assert {(p.beam_type, p.mold_class, p.counts) for p in pats.packing} == brute_packing(inst)
    assert {
        (p.source_bar, p.item_counts, p.leftover_counts) for p in pats.cutting
    } == brute_cutting(inst)
    assert {(p.produced_class, p.leftover_counts) for p in pats.overlapping} == brute_overlapping(
        inst
    )
    all_packing = enumerate_packing_patterns(inst, maximal_only=False)
    assert {(p.beam_type, p.mold_class, p.counts) for p in all_packing} == brute_packing(
        inst, maximal_only=False
    )


def test_brute_force_equivalence_reference(cwp000):
    assert_matches_brute(cwp000)


@settings(max_examples=25, deadline=None)
@given(
    lengths=st.lists(st.sampled_from([112, 145, 235, 250, 265, 330]), min_size=1, max_size=3, unique=True),
    molds=st.lists(st.sampled_from([595, 1195]), min_size=1, max_size=2),
    epsilon=st.sampled_from([10, 30, 100]),
)
def test_brute_force_equivalence_random(lengths, molds, epsilon):
    inst = make_instance(
        beam_types=[beam_type(sorted(lengths), [1] * len(lengths))],
        mold_lengths=molds,
        horizon=2,
        overlap_loss=epsilon,
    )
    assert_matches_brute(inst)


def test_wastes_nonnegative(cwp000_patterns):
    assert all(p.waste >= 0 for p in cwp000_patterns.cutting)
    assert all(p.waste >= 0 for p in cwp000_patterns.overlapping)


def test_benchmark_scale_enumeration_is_quick():
    # Largest benchmark shape; bar-side pattern counts stay fixed because the
    # bar and mold lengths are standardized.
    import time

    from beamforge.instance import generate_instance

    inst = generate_instance(7, 7, 30)
    start = time.perf_counter()
    pats = generate_patterns(inst)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    assert pats.num_packing > 100
    if inst.num_mold_classes == 2:
        assert pats.num_cutting == 10
        assert len(pats.overlapping) == 12
