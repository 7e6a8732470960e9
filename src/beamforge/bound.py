"""Analytic lower bound on the optimal objective value.

The bound is the sum of a capacity-based makespan bound and the cheapest
achievable waste per produced bar, minimized over mold-length classes.  Waste
ratios are kept as exact fractions of centimeters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UnproducibleClassError
from .instance import Instance
from .patterns import PatternSet, require_castable


@dataclass
class BoundBreakdown:
    makespan_lb: int
    waste_lb_cm: Fraction
    per_gamma: list[tuple[int, int, Fraction]]  # (class, bar count bound, min ratio cm)

    @property
    def waste_lb(self) -> float:
        return float(self.waste_lb_cm) / 100

    @property
    def total(self) -> float:
        return self.makespan_lb + self.waste_lb

    @property
    def total_cm(self) -> Fraction:
        return 100 * self.makespan_lb + self.waste_lb_cm


def candidate_ratios(inst: Instance, pats: PatternSet, mold_class: int) -> set[Fraction]:
    """Waste incurred per bar of the class, over every way of producing one.

    Covers new-bar cuts with and without a leftover, leftover-bar cuts, and
    splices; raises when nothing can produce the class.
    """
    ratios: set[Fraction] = set()
    for p in pats.producers:
        produced = p.item_counts[mold_class - 1]
        if produced > 0:
            ratios.add(Fraction(p.waste, produced))
    if not ratios:
        raise UnproducibleClassError(mold_class)
    return ratios


def lower_bound(inst: Instance, pats: PatternSet) -> BoundBreakdown:
    """Evaluate the bound; exact integer ceilings on centimeter data."""
    require_castable(inst, pats)
    work = sum(
        bt.curing_time * sum(l * d for l, d in zip(bt.lengths, bt.demands))
        for bt in inst.beam_types
    )
    capacity = inst.total_mold_capacity()
    makespan_lb = -((-work) // capacity) if work > 0 else 0

    bar_length_needed = sum(
        bt.bars_per_beam * sum(l * d for l, d in zip(bt.lengths, bt.demands))
        for bt in inst.beam_types
    )
    per_gamma: list[tuple[int, int, Fraction]] = []
    if bar_length_needed == 0:
        waste_lb_cm = Fraction(0)
    else:
        best: Fraction | None = None
        failures = 0
        for g, cap in enumerate(inst.distinct_mold_lengths, start=1):
            try:
                ratios = candidate_ratios(inst, pats, g)
            except UnproducibleClassError:
                failures += 1
                continue
            bar_count = -((-bar_length_needed) // cap)
            ratio = min(ratios)
            per_gamma.append((g, bar_count, ratio))
            value = bar_count * ratio
            if best is None or value < best:
                best = value
        if best is None:
            raise UnproducibleClassError(1)
        waste_lb_cm = best
    return BoundBreakdown(makespan_lb=makespan_lb, waste_lb_cm=waste_lb_cm, per_gamma=per_gamma)
