"""Enumeration of packing, cutting and overlapping patterns.

Pattern ids are global and contiguous: packing patterns take 1..r, cutting
patterns r+1..r+H and overlapping patterns r+H+1..r+H+O, in a deterministic
order so that chromosomes and emitted models are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError, InfeasibleInstanceError
from .instance import Instance, cm_to_m


@dataclass(frozen=True)
class PackingPattern:
    """Beams of one type cast together in a mold of one length class.

    A pattern is maximal for its class: no further beam of its type fits.
    """

    id: int
    beam_type: int  # 1-based
    counts: tuple[int, ...]  # per length of the beam type
    mold_class: int  # 1-based class the pattern is maximal for
    used_capacity: int  # cm
    duration: int  # periods (curing time of the beam type)
    bars: int  # mold-length bars of its class that one use needs


# Objective waste buckets, each an index into Instance.weights: cuts of new
# bars (lambda2), cuts of new bars that set a leftover aside (lambda3), and
# leftover reuse, i.e. cuts of leftover bars and splices (lambda4).
NEW_BAR, NEW_BAR_LEFTOVER, REUSE = 1, 2, 3


class Producer:
    """What one use of a cut or a splice yields, consumes and wastes.

    Both kinds carry `item_counts` (mold-length bars per class), `stock_use`
    ((1-based bar kind, bars per use) pairs), `waste` (cm) and `bucket`, the
    waste bucket above that the waste is charged to.
    """

    @property
    def total_items(self) -> int:
        return sum(self.item_counts)

    def fed_by(self, stock) -> bool:
        """Whether `stock` (per bar kind) holds enough of every kind one use draws."""
        return all(stock[w - 1] >= n for w, n in self.stock_use)

    def cost(self, weights) -> float:
        """What one use costs in the objective: its waste (m) at its bucket's lambda."""
        return weights[self.bucket] * (self.waste / 100.0)

    def weighted_waste_per_bar(self, weights) -> Fraction:
        """Waste (cm) at the bucket's lambda, spread over every bar one use
        makes, whatever its class; exact."""
        return Fraction(weights[self.bucket]) * Fraction(self.waste, self.total_items)


@dataclass(frozen=True)
class CuttingPattern(Producer):
    """Recipe cutting one stock bar into mold-length items plus leftovers."""

    id: int
    source_bar: int  # 1-based index into bar_lengths
    item_counts: tuple[int, ...]  # per mold class
    leftover_counts: tuple[int, ...]  # per leftover kind; at most one kind positive
    waste: int  # cm
    stock_use: tuple[tuple[int, int], ...]  # ((source_bar, 1),)
    bucket: int  # REUSE for a leftover bar, else NEW_BAR_LEFTOVER or NEW_BAR

    @property
    def leftover_kind(self) -> int | None:
        """1-based kind of the produced leftover, if any."""
        for v, count in enumerate(self.leftover_counts, start=1):
            if count:
                return v
        return None


@dataclass(frozen=True)
class OverlappingPattern(Producer):
    """Two leftovers spliced into one mold-length bar."""

    id: int
    produced_class: int  # 1-based
    leftover_counts: tuple[int, ...]  # per leftover kind, summing to 2
    waste: int  # cm, at least the splice loss
    item_counts: tuple[int, ...]  # one-hot at produced_class
    stock_use: tuple[tuple[int, int], ...]  # one pair per consumed leftover kind
    bucket: int = REUSE


@dataclass(slots=True)
class Cast:
    """The one record of a packing pattern that the decoder, construction,
    repair, the oracle, the structural gate and the ILP read; slotted, since
    a NamedTuple misses CPython's exact-tuple fast paths on the hot reads."""

    id: int
    mold_class: int  # 0-based
    duration: int  # periods
    packs: tuple[tuple[int, int], ...]  # (beam slot, count) of each length it packs
    blocks: int  # mask of the patterns of its class that cure at least as long


@dataclass
class PatternSet:
    """All patterns of an instance under the global id scheme, with what one
    use of each changes in a tally (`evaluation.Tally`).

    `keys`, `classes` and `kinds` are the shape of the instance the patterns
    serve: its (beam type, length index) keys in `Instance.demand_keys`
    order, its mold classes and its bar kinds.  A tally is one int list over
    dense slots: beams made per key, then bars required per class, bars made
    per class and stock drawn per bar kind, the last three sections starting
    at `required_at`, `made_at` and `used_at`.  `zero` is the empty tally.

    The ids must run 1..total over packing, cutting and overlapping in that
    order; `producers` lists the cuts, then the splices.  Per pattern id:
    - `delta`: the ((slot, coefficient), ...) one use adds; a dict, so an
      unknown id has no entry;
    - `casts`: a packing pattern's `Cast`, the one record of its 0-based
      mold class, curing time, (beam slot, count) packs and blocking mask,
      None for a producer;
    - `wastes`: a producer's (waste bucket, waste cm), (0, 0) for a packing
      pattern, whose waste no bucket takes.
    The lists are indexed by id, entry 0 unused.  `column` is the transpose
    of `delta`: per tally slot, {id: coefficient} in id order, so a beam
    slot's column holds the packing patterns that pack it, a used slot's the
    producers that draw its kind and a made slot's the producers that make
    its class; ids from `first_splice` on are splices.  Per class (0-based),
    `makers` gives {id: bars per use} of the producers that make that class
    alone.  For construction, `cover` is per beam slot the mask of the
    packing patterns that pack it; in it and in a cast's `blocks`, bit i
    stands for pattern id i + 1.
    """

    packing: list[PackingPattern]
    cutting: list[CuttingPattern]
    overlapping: list[OverlappingPattern]
    keys: tuple[tuple[int, int], ...]
    classes: int
    kinds: int

    def __post_init__(self):
        self.producers = producers = self.cutting + self.overlapping
        for pid, p in enumerate(self.packing + producers, start=1):
            if p.id != pid:
                raise ValueError(
                    f"pattern id {p.id} stands where id {pid} belongs: ids run 1..total "
                    "over packing, cutting and overlapping patterns in that order"
                )
        self.required_at = required_at = len(self.keys)
        self.made_at = made_at = required_at + self.classes
        self.used_at = used_at = made_at + self.classes
        self.zero = [0] * (used_at + self.kinds)
        size = len(self.packing) + len(producers) + 1
        self.delta = {}
        self.casts = [None] * size
        self.wastes = [(0, 0)] * size
        self.makers = [{} for _ in range(self.classes)]
        self.first_splice = self.num_packing + self.num_cutting + 1
        slot = {key: s for s, key in enumerate(self.keys)}
        blocks = {  # per (class, curing time d): mask of the class's patterns curing d or longer
            (g, d): sum(
                1 << (q.id - 1) for q in self.packing if q.mold_class == g and q.duration >= d
            )
            for g, d in {(p.mold_class, p.duration) for p in self.packing}
        }
        for p in self.packing:
            packs = tuple((slot[p.beam_type, k], n) for k, n in enumerate(p.counts, start=1) if n)
            g = p.mold_class - 1
            self.casts[p.id] = Cast(p.id, g, p.duration, packs, blocks[p.mold_class, p.duration])
            self.delta[p.id] = (*packs, (required_at + g, p.bars))
        for p in producers:
            made = [(g, n) for g, n in enumerate(p.item_counts) if n]  # 0-based classes
            self.delta[p.id] = (
                *((used_at + w - 1, need) for w, need in p.stock_use),
                *((made_at + g, n) for g, n in made),
            )
            self.wastes[p.id] = (p.bucket, p.waste)
            if len(made) == 1:
                g, n = made[0]
                self.makers[g][p.id] = n
        self.column = [{} for _ in self.zero]
        for pid, pairs in self.delta.items():
            for s, coefficient in pairs:
                self.column[s][pid] = coefficient
        self.cover = [sum(1 << (pid - 1) for pid in c) for c in self.column[:required_at]]

    def check_shape(self, inst: Instance) -> None:
        """Raise unless `inst` has this set's demand slots, mold classes and
        bar kinds: a tally would compare the wrong slots otherwise."""
        if (len(inst.demand), len(inst.class_molds), len(inst.stock)) != (
            len(self.keys),
            self.classes,
            self.kinds,
        ):
            raise DimensionMismatchError(
                f"the patterns serve {len(self.keys)} demanded lengths, {self.classes} mold "
                f"classes and {self.kinds} bar kinds; the instance has {len(inst.demand)}, "
                f"{len(inst.class_molds)} and {len(inst.stock)}"
            )

    @property
    def num_packing(self) -> int:
        return len(self.packing)

    @property
    def num_cutting(self) -> int:
        return len(self.cutting)

    @property
    def total(self) -> int:
        return len(self.delta)

    def __contains__(self, pattern_id: int) -> bool:
        return pattern_id in self.delta


def _fillings(sizes, capacity: int) -> list[tuple[tuple[int, ...], int]]:
    """Every (counts, used) with counts[k] pieces of sizes[k] whose total
    length `used` fits in `capacity`, the empty vector included, in
    ascending lexicographic order of counts."""
    fills = [((), 0)]
    for size in sizes:
        fills = [
            ((*counts, n), used + n * size)
            for counts, used in fills
            for n in range((capacity - used) // size + 1)
        ]
    return fills


def enumerate_packing_patterns(inst: Instance, maximal_only: bool = True) -> list[PackingPattern]:
    """All packing patterns, maximal for their mold class unless disabled.

    The count vectors of each (type, class) block are ordered by ascending
    reversed tuple, which lists the variant richest in the first (shortest)
    length first.
    """
    found = []
    for c, bt in enumerate(inst.beam_types, start=1):
        for g, cap in enumerate(inst.distinct_mold_lengths, start=1):
            lower = max(cap - min(bt.lengths) if maximal_only else 0, 0)
            # Count vectors over the lengths in reverse, so the sort orders them
            # by reversed tuple.
            found += [
                (c, g, counts, used)
                for counts, used in _fillings(bt.lengths[::-1], cap)
                if used > lower
            ]
    found.sort()
    types = inst.beam_types
    return [
        PackingPattern(
            id=pid,
            beam_type=c,
            counts=counts[::-1],
            mold_class=g,
            used_capacity=used,
            duration=types[c - 1].curing_time,
            bars=types[c - 1].bars_per_beam,
        )
        for pid, (c, g, counts, used) in enumerate(found, start=1)
    ]


def require_castable(inst: Instance, pats: PatternSet) -> None:
    """Raise when a demanded beam can never be cast: its type cures longer
    than the horizon, or its length is in no packing pattern (fits no mold).
    Raise too when the demand needs more periods of mold capacity than the
    horizon (`Instance.min_makespan`), or more bar than the stock holds (no
    cut or splice makes more bar than it uses), or more mold-length bars
    than the stock makes (`_bar_supply`), of all classes and of each class
    set a length that needs bars fits.  These checks are necessary, not
    sufficient."""
    pats.check_shape(inst)
    for (c, k), demand, column in zip(inst.demand_keys, inst.demand, pats.column):
        bt = inst.beam_types[c - 1]
        if demand and bt.curing_time > inst.horizon:
            raise InfeasibleInstanceError(
                f"beam type {c}: curing {bt.curing_time} exceeds the horizon {inst.horizon}"
            )
        if demand and not column:
            raise InfeasibleInstanceError(
                f"beam type {c}: length {cm_to_m(bt.lengths[k - 1])} m fits in no mold"
            )
    if inst.min_makespan > inst.horizon:
        raise InfeasibleInstanceError(
            f"the demand needs at least {inst.min_makespan} periods of mold capacity, "
            f"the horizon is {inst.horizon}"
        )
    stock = sum(n * length for n, length in zip(inst.stock, inst.bar_lengths))
    if stock < inst.required_bar_length:
        raise InfeasibleInstanceError(
            f"stock holds {cm_to_m(stock)} m of bar, the demand needs "
            f"{cm_to_m(inst.required_bar_length)} m"
        )
    every = frozenset(range(pats.classes))
    most, fewest = _bar_supply(inst, pats, every)
    if most < fewest:
        raise InfeasibleInstanceError(
            f"stock makes at most {most} mold-length bars, the demand needs {fewest}"
        )
    checked = {every}
    for (c, k), demand, column in zip(inst.demand_keys, inst.demand, pats.column):
        bt, fits = inst.beam_types[c - 1], frozenset(pats.casts[pid].mold_class for pid in column)
        if not (demand and bt.bars_per_beam) or fits in checked:
            continue
        checked.add(fits)
        most, fewest = _bar_supply(inst, pats, fits)
        if most < fewest:
            molds = " or ".join(str(cm_to_m(inst.distinct_mold_lengths[g])) for g in sorted(fits))
            makes = "no bar for them"
            if most:
                makes = f"at most {most} bars for them, the demand needs {fewest}"
            raise InfeasibleInstanceError(
                f"beam type {c}: length {cm_to_m(bt.lengths[k - 1])} m fits molds of {molds} m, "
                f"and the stock makes {makes}"
            )


def _bar_supply(inst: Instance, pats: PatternSet, classes) -> tuple[int, int]:
    """(most, fewest) mold-length bars of the 0-based `classes`.  The most
    the stock can make: each unit of a kind yields at most the bars per unit
    drawn of its richest producer that the stock can feed (its cut's bars
    of those classes, or half a bar for a splice into them).  The fewest any
    plan needs: per beam type, its bars per cast times the casts its most
    demanding length that fits only `classes` takes when every cast packs
    as many beams of that length as one pattern can."""
    halves = [0] * len(inst.stock)  # per kind, twice the bars one unit yields
    for p in pats.producers:
        made = sum(p.item_counts[g] for g in classes)
        if made and p.fed_by(inst.stock):
            units = sum(n for _, n in p.stock_use)
            for w, _ in p.stock_use:
                halves[w - 1] = max(halves[w - 1], -(-2 * made // units))
    casts: dict[int, int] = {}  # per beam type
    for (c, _), d, column in zip(inst.demand_keys, inst.demand, pats.column):
        if d and all(pats.casts[pid].mold_class in classes for pid in column):
            casts[c] = max(casts.get(c, 0), -(-d // max(column.values())))
    most = sum(n * h for n, h in zip(inst.stock, halves)) // 2
    return most, sum(inst.beam_types[c - 1].bars_per_beam * n for c, n in casts.items())


def _cutting_patterns(inst: Instance, first_id: int) -> list[CuttingPattern]:
    """Every cut of a bar into at least one mold-length item, sorted by
    (source bar, item counts, leftover counts) and numbered from first_id."""
    W, V = inst.num_bar_kinds, inst.num_leftover_kinds
    none = (0,) * V
    found = []
    for w, bar in enumerate(inst.bar_lengths, start=1):
        for items, used in _fillings(inst.distinct_mold_lengths, bar):
            if not used:
                continue
            remaining = bar - used
            found.append((w, items, none, remaining))
            if w <= W:
                # A cut of a new bar may set aside one leftover kind.
                for v in range(1, V + 1):
                    piece = inst.leftover_length(v)
                    for n in range(1, remaining // piece + 1):
                        leftovers = (*none[: v - 1], n, *none[v:])
                        found.append((w, items, leftovers, remaining - n * piece))
    found.sort()
    return [
        CuttingPattern(
            id=pid,
            source_bar=w,
            item_counts=items,
            leftover_counts=leftovers,
            waste=waste,
            stock_use=((w, 1),),
            bucket=REUSE if w > W else NEW_BAR_LEFTOVER if any(leftovers) else NEW_BAR,
        )
        for pid, (w, items, leftovers, waste) in enumerate(found, start=first_id)
    ]


def _overlapping_patterns(inst: Instance, first_id: int) -> list[OverlappingPattern]:
    """Every splice of two leftovers into a bar of one mold class, sorted by
    (class, leftover counts) and numbered from first_id."""
    W, V = inst.num_bar_kinds, inst.num_leftover_kinds
    classes = inst.num_mold_classes
    found = []
    for g, cap in enumerate(inst.distinct_mold_lengths, start=1):
        for v1 in range(1, V + 1):
            for v2 in range(v1, V + 1):
                combined = inst.leftover_length(v1) + inst.leftover_length(v2)
                if combined >= cap + inst.overlap_loss:
                    counts = tuple((v == v1) + (v == v2) for v in range(1, V + 1))
                    found.append((g, counts, combined - cap))
    found.sort()
    return [
        OverlappingPattern(
            id=pid,
            produced_class=g,
            leftover_counts=counts,
            waste=waste,
            item_counts=tuple(int(h == g) for h in range(1, classes + 1)),
            stock_use=tuple((W + v, n) for v, n in enumerate(counts, start=1) if n),
        )
        for pid, (g, counts, waste) in enumerate(found, start=first_id)
    ]


def generate_patterns(inst: Instance, maximal_only: bool = True) -> PatternSet:
    """Enumerate all three pattern kinds and assign the global id scheme."""
    packing = enumerate_packing_patterns(inst, maximal_only=maximal_only)
    cutting = _cutting_patterns(inst, len(packing) + 1)
    overlapping = _overlapping_patterns(inst, len(packing) + len(cutting) + 1)
    return PatternSet(
        packing=packing,
        cutting=cutting,
        overlapping=overlapping,
        keys=inst.demand_keys,
        classes=inst.num_mold_classes,
        kinds=len(inst.stock),
    )
