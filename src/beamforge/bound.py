"""Analytic lower bound on the optimal objective value.

The bound is lambda1 times a capacity-based makespan bound, plus a bound on
the weighted waste of the bars a plan must make.  Each producer's waste
counts at its bucket's lambda, spread over all the bars one use makes.  A
plan makes at least as many bars as the longest producible class needs, and
at least the required bar length; the waste bound is the larger of those
counts at the least ratio per bar and per centimeter.  Weights and ratios are
exact fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .instance import Instance
from .patterns import PatternSet, require_castable


@dataclass
class BoundBreakdown:
    makespan_lb: int  # periods
    waste_lb_cm: Fraction  # weighted
    per_gamma: list[tuple[int, int, Fraction]]  # (class, bar count bound, min weighted ratio cm)
    makespan_weight: Fraction = Fraction(1)  # lambda1

    @property
    def waste_lb(self) -> float:
        return float(self.waste_lb_cm) / 100

    @property
    def total(self) -> float:
        return float(self.makespan_weight * self.makespan_lb) + self.waste_lb

    @property
    def total_cm(self) -> Fraction:
        return 100 * self.makespan_weight * self.makespan_lb + self.waste_lb_cm


def candidate_ratios(inst: Instance, pats: PatternSet, mold_class: int) -> set[Fraction]:
    """Weighted waste per bar made, over every producer of the class the stock can feed.

    Covers new-bar cuts with and without a leftover, leftover-bar cuts, and
    splices.  A cut that makes bars of several classes spreads its waste over
    all of them; the set is empty when nothing can produce the class.
    """
    return {
        p.weighted_waste_per_bar(inst.weights)
        for p in pats.producers
        if p.item_counts[mold_class - 1] > 0 and p.fed_by(inst.stock)
    }


def lower_bound(inst: Instance, pats: PatternSet) -> BoundBreakdown:
    """Evaluate the bound; exact integer ceilings on centimeter data."""
    require_castable(inst, pats)
    need, caps = inst.required_bar_length, inst.distinct_mold_lengths
    per_gamma: list[tuple[int, int, Fraction]] = []  # none when no bar is needed
    for g, cap in enumerate(caps if need else (), start=1):
        ratios = candidate_ratios(inst, pats, g)
        if ratios:  # a class nothing makes adds nothing
            per_gamma.append((g, -(-need // cap), min(ratios)))
    waste_lb_cm = Fraction(0)
    if per_gamma:
        waste_lb_cm = max(
            min(count for _, count, _ in per_gamma) * min(ratio for _, _, ratio in per_gamma),
            min(Fraction(need, caps[g - 1]) * ratio for g, _, ratio in per_gamma),
        )
    return BoundBreakdown(
        makespan_lb=inst.min_makespan,
        waste_lb_cm=waste_lb_cm,
        per_gamma=per_gamma,
        makespan_weight=Fraction(inst.weights[0]),
    )
