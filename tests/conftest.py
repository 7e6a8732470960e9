import json

import pytest

from beamforge.evaluation import evaluate
from beamforge.ilp import build_model, check_assignment, induced_assignment
from beamforge.instance import BeamType, Instance, parse_instance
from beamforge.patterns import generate_patterns

# The worked reference instance: one beam type in two lengths, four short and
# one long mold, one new-bar kind plus four leftover kinds.
CWP000_DOC = {
    "C": 1,
    "M": 5,
    "T": 3,
    "molds": [5.95, 5.95, 5.95, 5.95, 11.95],
    "beam_types": [
        {"lengths": [1.12, 3.3], "demands": [5, 10], "curing": 1, "bars_per_beam": 1}
    ],
    "bars": [12, 2, 5, 6, 8],
    "W": 1,
    "V": 4,
    "stock": [30, 16, 28, 25, 29],
    "epsilon": 0.3,
    "lambda": [1, 1, 1, 1],
}


@pytest.fixture(scope="session")
def cwp000_text():
    return json.dumps(CWP000_DOC)


@pytest.fixture(scope="session")
def cwp000(cwp000_text):
    return parse_instance(cwp000_text)


@pytest.fixture(scope="session")
def cwp000_patterns(cwp000):
    return generate_patterns(cwp000)


def make_instance(
    *,
    beam_types,
    mold_lengths,
    horizon,
    bar_lengths=(1200, 200, 500, 600, 800),
    num_bar_kinds=1,
    stock=None,
    overlap_loss=30,
    weights=(1.0, 1.0, 1.0, 1.0),
):
    """Small helper for hand-built instances with centimeter lengths."""
    bar_lengths = list(bar_lengths)
    if stock is None:
        stock = [1000] * len(bar_lengths)
    return Instance(
        horizon=horizon,
        beam_types=list(beam_types),
        mold_lengths=list(mold_lengths),
        num_bar_kinds=num_bar_kinds,
        bar_lengths=bar_lengths,
        stock=list(stock),
        overlap_loss=overlap_loss,
        weights=weights,
    )


def beam_type(lengths, demands, curing=1, bars=1):
    return BeamType(
        lengths=list(lengths), demands=list(demands), curing_time=curing, bars_per_beam=bars
    )


def pattern_by_id(pats, pid):
    """The pattern record of an id: ids run 1..total over the packing, the
    cutting and the overlapping patterns in that order."""
    return (pats.packing + pats.producers)[pid - 1]


def find_cutting(pats, source_bar, item_counts, leftover_counts):
    """Look a cutting pattern up by content; ids are an enumeration detail."""
    for p in pats.cutting:
        if (
            p.source_bar == source_bar
            and p.item_counts == tuple(item_counts)
            and p.leftover_counts == tuple(leftover_counts)
        ):
            return p
    raise AssertionError(
        f"no cutting pattern source={source_bar} items={item_counts} leftovers={leftover_counts}"
    )


def find_overlap(pats, produced_class, leftover_counts):
    for p in pats.overlapping:
        if p.produced_class == produced_class and p.leftover_counts == tuple(leftover_counts):
            return p
    raise AssertionError(
        f"no overlapping pattern class={produced_class} leftovers={leftover_counts}"
    )


def find_packing(pats, beam_type_index, counts):
    for p in pats.packing:
        if p.beam_type == beam_type_index and p.counts == tuple(counts):
            return p
    raise AssertionError(f"no packing pattern type={beam_type_index} counts={counts}")


def cwp000_optimal_genes(pats):
    """The known optimum of the reference instance, looked up by content:
    four mixed short-mold casts, two long-mold casts, and six bars cut at
    0.05 m waste each (one double-item cut counting 0.1 m for two bars)."""
    return [
        (find_packing(pats, 1, (2, 1)).id, 4),
        (find_packing(pats, 1, (1, 3)).id, 2),
        (find_cutting(pats, 4, (1, 0), (0, 0, 0, 0)).id, 2),
        (find_cutting(pats, 1, (2, 0), (0, 0, 0, 0)).id, 1),
        (find_cutting(pats, 1, (0, 1), (0, 0, 0, 0)).id, 2),
    ]


def check_oracle_result(inst, pats, result):
    """Check the oracle's (plan, value) by rules its search does not use:
    the value is the plan's `evaluate` value, and the plan's induced
    assignment breaks no row of the time-indexed ILP model.  Returns the
    plan's schedule."""
    ch, value = result
    expected, schedule = evaluate(ch, inst, pats)
    assert value == expected
    model = build_model(inst, pats)
    assert check_assignment(model, induced_assignment(model, ch)) == []
    return schedule
