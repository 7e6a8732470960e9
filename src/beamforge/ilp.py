"""Symbolic integer model: construction, LP-format emission, assignment checking.

Variables follow the naming scheme x_i_m_t / z_t / y_h_w / yl_h_w_v / o_u with
1-based indices; id 0 in the x family is the hold marker occupying a mold while
an earlier cast cures.  The model refers to a variable only by its column: x
columns first (see `IlpModel`), then z by period, then the producers, cuts
before splices.  `IlpModel.names` gives each column's name.
Constraint rows come in blocks of one group and sense, each holding the
integer coefficients and column ids of all its rows in one flat pair of
arrays; lengths appear solely in the objective, as meters.  The demand,
stock and bar-balance rows sum per tally slot what each pattern's
`PatternSet.delta` adds.  An assignment is a column vector: one value per
column, in column order.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, compress, repeat
from operator import eq, ge, le, mul, ne

from .errors import DimensionMismatchError
from .evaluation import (
    Chromosome,
    decode_schedule,
    waste_cm,
    weighted_objective,
)
from .instance import Instance
from .patterns import OverlappingPattern, PatternSet


def _ints(values=()) -> array:
    return array("i", values)


def _repeat(value: int, n: int) -> array:
    return array("i", (value,)) * n


@dataclass(slots=True)
class Row:
    name: str
    group: str
    indices: tuple
    coeffs: array  # integer coefficients, parallel to cols
    cols: array  # column ids, distinct within the row
    sense: str  # "<=", ">=", "="
    rhs: int


@dataclass(slots=True)
class RowBlock:
    """Consecutive rows of one group and sense.  Row k has the indices
    indices[k] and right-hand side rhs[k]; its coefficients and columns are
    coeffs and cols from starts[k] up to starts[k + 1]."""

    group: str
    sense: str
    indices: list[tuple] = field(default_factory=list)
    rhs: list[int] = field(default_factory=list)
    coeffs: array = field(default_factory=_ints)
    cols: array = field(default_factory=_ints)
    starts: range | array = field(default_factory=lambda: _ints((0,)))

    def end_row(self, indices: tuple, rhs: int) -> None:
        """Close a row whose terms were appended to coeffs and cols."""
        self.indices.append(indices)
        self.rhs.append(rhs)
        self.starts.append(len(self.cols))

    @property
    def name_format(self) -> str:
        """A row's name as a %-template over its indices: the group, then
        each index after an underscore."""
        return self.group + "_%s" * len(self.indices[0]) if self.indices else self.group

    def spans(self):
        """(indices, rhs, start, end) of each row."""
        return zip(self.indices, self.rhs, self.starts, self.starts[1:])


class RowView:
    """A model's rows in order, each as a `Row` built when it is reached."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: list[RowBlock]):
        self.blocks = blocks

    def __len__(self) -> int:
        return sum(len(block.indices) for block in self.blocks)

    def __iter__(self):
        for b in self.blocks:
            name = b.name_format
            for indices, rhs, s, e in b.spans():
                coeffs, cols = b.coeffs[s:e], b.cols[s:e]
                yield Row(name % indices, b.group, indices, coeffs, cols, b.sense, rhs)


@dataclass
class Violation:
    group: str
    indices: tuple
    detail: str

    def __str__(self) -> str:
        return f"{self.group}{self.indices}: {self.detail}"


def in_time(duration: int, horizon: int) -> int:
    """The last period a cast can start in and finish within the horizon, or 0."""
    return max(horizon - duration + 1, 0)


@dataclass
class IlpModel:
    """Mold m's x columns start at x_base[m - 1], one slot per period of the
    ids x_ids[m - 1]: the hold marker 0, then its class's packing patterns.  So
    x_i_m_t is column x_base[m - 1] + (t - 1)·len(x_ids[m - 1]) + the slot
    position of i; x_base[-1], one past the last mold, is z's first column."""

    inst: Instance
    pats: PatternSet
    x_ids: list[list[int]]
    x_base: list[int]
    blocks: list[RowBlock] = field(default_factory=list)
    objective: list[tuple[float, int]] = field(default_factory=list)  # (coefficient, column)

    @property
    def x_keys(self) -> list[tuple[int, int, int]]:
        """The (i, m, t) key of each x column, in column order."""
        periods = range(1, self.inst.horizon + 1)
        return [(i, m, t) for m, ids in enumerate(self.x_ids, 1) for t in periods for i in ids]

    @property
    def z_keys(self) -> list[int]:
        return list(range(1, self.inst.horizon + 1))

    @property
    def fixed_zero(self) -> set[tuple[int, int, int]]:
        """The x keys of casts that start too late to finish within the horizon."""
        T, casts = self.inst.horizon, self.pats.casts
        return {
            (i, m, t)
            for m, ids in enumerate(self.x_ids, start=1)
            for i in ids[1:]
            for t in range(in_time(casts[i].duration, T) + 1, T + 1)
        }

    @property
    def producer_base(self) -> int:
        """The first producer column, after x and z."""
        return self.x_base[-1] + self.inst.horizon

    @property
    def num_columns(self) -> int:
        return self.producer_base + len(self.pats.producers)

    @property
    def rows(self) -> RowView:
        return RowView(self.blocks)

    @cached_property
    def names(self) -> list[str]:
        """One per column: x, then z, then producers."""
        names = []
        periods = range(1, self.inst.horizon + 1)
        for m, ids in enumerate(self.x_ids, start=1):
            heads = [f"x_{i}" for i in ids]
            for t in periods:
                suffix = f"_{m}_{t}"
                names += [head + suffix for head in heads]
        names += [f"z_{t}" for t in self.z_keys]
        names += [_producer_name(p) for p in self.pats.producers]
        return names


def _xname(i: int, m: int, t: int) -> str:
    return f"x_{i}_{m}_{t}"


def _producer_name(pattern) -> str:
    """y_h_w / yl_h_w_v for a cut, o_u for a splice."""
    if isinstance(pattern, OverlappingPattern):
        return f"o_{pattern.id}"
    kind = pattern.leftover_kind
    if kind is None:
        return f"y_{pattern.id}_{pattern.source_bar}"
    return f"yl_{pattern.id}_{pattern.source_bar}_{kind}"


def build_model(inst: Instance, pats: PatternSet) -> IlpModel:
    """Assemble every constraint block and the weighted objective.  A row's
    columns are slices, strided over periods where needed, of the array of
    all ids."""
    pats.check_shape(inst)
    T, M, R = inst.horizon, inst.num_molds, inst.max_curing_time
    W, V = inst.num_bar_kinds, inst.num_leftover_kinds
    classes = range(1, inst.num_mold_classes + 1)
    packing = pats.casts[1 : pats.num_packing + 1]
    by_class = [[0, *(c.id for c in packing if c.mold_class == g - 1)] for g in classes]
    x_ids = [by_class[g - 1] for g in inst.mold_classes]
    x_base = list(accumulate((T * len(ids) for ids in x_ids), initial=0))
    model = IlpModel(inst, pats, x_ids, x_base)
    blocks = model.blocks
    z_base, producer_base = x_base[-1], model.producer_base
    col = _ints(range(model.num_columns))
    # Per mold: its first x column, its slot width and (slot position, id,
    # curing time) per packing pattern.
    casts = [[(pos, i, pats.casts[i].duration) for pos, i in enumerate(ids) if i] for ids in x_ids]
    molds = list(zip(x_base, map(len, x_ids), casts))

    # Terms per tally slot, from each pattern's `delta`: producers in column
    # order, then each mold's packing patterns, whose beam slots count the
    # starts that finish in time and whose required-bars slot every start,
    # negated.
    terms = [(_ints(), _ints()) for _ in pats.zero]
    for j, p in enumerate(pats.producers, start=producer_base):
        for s, coeff in pats.delta[p.id]:
            terms[s][0].append(coeff)
            terms[s][1].append(j)
    for b, w, patterns in molds:
        for pos, i, duration in patterns:
            for s, coeff in pats.delta[i]:
                n, coeff = (in_time(duration, T), coeff) if s < pats.required_at else (T, -coeff)
                if coeff:
                    coeffs, cols = terms[s]
                    coeffs += _repeat(coeff, n)
                    cols += col[b + pos : b + pos + n * w : w]

    def slot_rows(group: str, sense: str, rows) -> RowBlock:
        """A block of rows (indices, rhs, *slots), each summing its slots' terms."""
        block = RowBlock(group, sense)
        for indices, rhs, *slots in rows:
            for s in slots:
                block.coeffs += terms[s][0]
                block.cols += terms[s][1]
            block.end_row(indices, rhs)
        return block

    # One pattern (possibly the hold marker) per mold and period.
    for m, (b, w, _) in enumerate(molds, start=1):
        n = T * w
        indices = [(m, t) for t in range(1, T + 1)]
        starts = range(0, n + 1, w)
        blocks.append(
            RowBlock("mold_slot", "<=", indices, [1] * T, _repeat(1, n), col[b : b + n], starts)
        )
    # Every demand covered by pattern starts that can finish in time.
    blocks.append(slot_rows("demand", ">=", zip(pats.keys, inst.demand, range(pats.required_at))))
    # A started multi-period cast forces hold markers while it cures: row t
    # holds the start x_p_m_t, then the hold markers of periods t + 1 .. t + E - 1.
    for m, (b, w, patterns) in enumerate(molds, start=1):
        for pos, i, E in patterns:
            n = in_time(E, T)
            if E < 2 or n < 1:
                continue
            cols = _repeat(0, n * E)
            cols[0::E] = col[b + pos : b + pos + n * w : w]
            for j in range(1, E):
                cols[j::E] = col[b + j * w : b + (j + n) * w : w]
            coeffs = (_repeat(E - 1, 1) + _repeat(-1, E - 1)) * n
            indices = list(zip(repeat(m, n), range(1, n + 1), repeat(i, n)))
            starts = range(0, n * E + 1, E)
            blocks.append(RowBlock("curing_hold", "<=", indices, [0] * n, coeffs, cols, starts))
    # No hold marker in the first period.
    holds = _ints(x_base[:-1])
    indices = [(m,) for m in range(1, M + 1)]
    blocks.append(
        RowBlock("no_initial_hold", "=", indices, [0] * M, _repeat(1, M), holds, range(M + 1))
    )
    # A hold marker needs an unfinished cast started recently enough.
    block = RowBlock("hold_link", "<=")
    for m, (b, w, patterns) in enumerate(molds, start=1):
        # Slot positions of the casts still curing `back` periods after their start.
        curing = {back: [pos for pos, _, E in patterns if E >= back] for back in range(2, R + 1)}
        for t in range(2, T + 1):
            start = len(block.cols)
            block.cols.append(b + (t - 1) * w)
            for back in range(2, min(R, t) + 1):
                s = b + (t - back) * w
                block.cols.extend([s + pos for pos in curing[back]])
            block.coeffs += _repeat(1, 1) + _repeat(-1, len(block.cols) - start - 1)
            block.end_row((m, t), 0)
    blocks.append(block)
    # Any activity in a period switches that period on.
    cols = _ints()
    for t in range(1, T + 1):
        cols.append(z_base + t - 1)
        for b, w, _ in molds:
            s = b + (t - 1) * w
            cols += col[s : s + w]
    n = 1 + sum(w for _, w, _ in molds)
    coeffs = (_repeat(M, 1) + _repeat(-1, n - 1)) * T
    indices = [(t,) for t in range(1, T + 1)]
    blocks.append(
        RowBlock("period_active", ">=", indices, [0] * T, coeffs, cols, range(0, n * T + 1, n))
    )
    # Once a mold goes idle it stays idle.
    for m, (b, w, _) in enumerate(molds, start=1):
        cols = _ints()
        for t in range(1, T):
            s = b + (t - 1) * w
            cols += col[s : s + 2 * w]
        indices = [(m, t) for t in range(1, T)]
        coeffs = (_repeat(1, w) + _repeat(-1, w)) * (T - 1)
        starts = range(0, len(cols) + 1, 2 * w)
        blocks.append(RowBlock("continuity", ">=", indices, [0] * (T - 1), coeffs, cols, starts))
    # Stock per bar kind: leftover kinds (cut as a bar or spliced), then new bars.
    for group, kinds in (
        ("leftover_stock", range(W + 1, W + V + 1)),
        ("new_bar_stock", range(1, W + 1)),
    ):
        rows = (((w,), inst.stock[w - 1], pats.used_at + w - 1) for w in kinds)
        blocks.append(slot_rows(group, "<=", rows))
    # Bars produced must equal bars the packed molds require.
    rows = (((g,), 0, pats.made_at + g - 1, pats.required_at + g - 1) for g in classes)
    blocks.append(slot_rows("bar_balance", "=", rows))

    objective = [(inst.weights[0] * 1.0, z_base + t - 1) for t in model.z_keys]
    for j, p in enumerate(pats.producers, start=producer_base):
        objective.append((p.cost(inst.weights), j))
    model.objective = objective
    return model


# -- LP file emission --------------------------------------------------------


def _num(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _Prefixes(dict):
    """Coefficient -> the text before a variable's name, e.g. " - 2 "."""

    def __missing__(self, coeff) -> str:
        text = self[coeff] = f" {'-' if coeff < 0 else '+'} {_num(abs(coeff))} "
        return text


def emit_lp(model: IlpModel) -> str:
    """Serialize to LP file format; byte-identical across emissions."""
    names = model.names
    anchor = names[0] if names else "z_1"
    plus = [" + " + name for name in names]
    minus = [" - " + name for name in names]
    prefix = _Prefixes()

    def terms(coeffs, cols) -> list[str]:
        """Each term's text, empty for a zero coefficient."""
        return [
            plus[j] if c == 1 else minus[j] if c == -1 else prefix[c] + names[j] if c else ""
            for c, j in zip(coeffs, cols)
        ]

    def expression(text: str) -> str:
        if not text:
            return f"0 {anchor}"
        # A leading " + " goes; a leading minus keeps its sign: "- x".
        return text[3:] if text[1] == "+" else text[1:]

    objective = "".join(terms(*zip(*model.objective))) if model.objective else ""
    lines = ["Minimize", " obj: " + expression(objective), "Subject To"]
    for block in model.blocks:
        texts = terms(block.coeffs, block.cols)
        name, sense = block.name_format, block.sense
        for indices, rhs, s, e in block.spans():
            text = expression("".join(texts[s:e]))
            lines.append(f" {name % indices}: {text} {sense} {rhs}")
    fixed = sorted(model.fixed_zero)
    if fixed:
        lines.append("Bounds")
        lines += [f" {_xname(*key)} = 0" for key in fixed]
    lines.append("Binaries")
    lines += [" " + name for name in names[: model.producer_base]]
    lines.append("Generals")
    lines += [" " + name for name in names[model.producer_base :]]
    lines += ["End", ""]
    return "\n".join(lines)


# -- assignment construction and checking ------------------------------------


def induced_assignment(model: IlpModel, ch: Chromosome) -> list[int]:
    """The column vector realizing a chromosome under the schedule decoder:
    x, then z, then producer counts, in the model's column order."""
    inst, pats = model.inst, model.pats
    schedule = decode_schedule(ch, inst, pats)
    values = [0] * model.num_columns
    for base, ids, starts in zip(model.x_base, model.x_ids, schedule.assignments):
        width = len(ids)
        for pid, start in starts:
            values[base + (start - 1) * width + ids.index(pid)] = 1
            for t in range(start, start + pats.casts[pid].duration - 1):
                values[base + t * width] = 1  # hold marker of period t + 1
    z_base = model.x_base[-1]
    values[z_base : z_base + schedule.makespan] = [1] * schedule.makespan
    offset = model.producer_base - pats.num_packing - 1  # a producer's column less its id
    for pid, freq in ch.genes:
        if pid > pats.num_packing:
            values[offset + pid] += freq
    return values


def assignment_objective(model: IlpModel, values: list[int]) -> float:
    """Float objective of a column vector, by the rule that scores chromosomes."""
    producer_base = model.producer_base
    active = sum(values[model.x_base[-1] : producer_base])
    uses = zip(range(model.pats.num_packing + 1, model.pats.total + 1), values[producer_base:])
    return weighted_objective(model.inst.weights, active, *waste_cm(uses, model.pats))[0]


_HOLDS = {"<=": le, ">=": ge, "=": eq}


def check_assignment(model: IlpModel, values: list[int]) -> list[Violation]:
    """Evaluate every domain and row of a column vector; empty list means feasible."""
    if len(values) != model.num_columns:
        raise DimensionMismatchError(
            f"the assignment has {len(values)} values, the model {model.num_columns} columns"
        )
    pats, T = model.pats, model.inst.horizon
    x_base, x_ids = model.x_base, model.x_ids
    z_base, producer_base = x_base[-1], model.producer_base

    violations: list[Violation] = []
    # A zero x value breaks no domain, so only the others are keyed.
    for j in compress(range(z_base), map(ne, values, repeat(0, z_base))):
        value = values[j]
        m = bisect_right(x_base, j)
        ids = x_ids[m - 1]
        t, pos = divmod(j - x_base[m - 1], len(ids))
        i = ids[pos]
        key = (i, m, t + 1)
        if value not in (0, 1):
            detail = f"{_xname(*key)} must be binary, got {value}"
            violations.append(Violation("domain", key, detail))
        elif i and t >= in_time(pats.casts[i].duration, T):
            detail = f"{_xname(*key)} is fixed to 0 (cannot finish in the horizon)"
            violations.append(Violation("domain", key, detail))
    for t, value in zip(model.z_keys, values[z_base:producer_base]):
        if value not in (0, 1):
            violations.append(Violation("domain", (t,), f"z_{t} must be binary, got {value}"))
    for pid, value in enumerate(values[producer_base:], start=pats.num_packing + 1):
        if not isinstance(value, int) or value < 0:
            family = "cut" if pid < pats.first_splice else "overlap"
            detail = f"{family} count must be a nonnegative integer, got {value}"
            violations.append(Violation("domain", (pid,), detail))

    value_of = values.__getitem__
    for block in model.blocks:
        products = list(map(mul, block.coeffs, map(value_of, block.cols)))
        holds = _HOLDS[block.sense]
        for indices, rhs, s, e in block.spans():
            lhs = sum(products[s:e])
            if not holds(lhs, rhs):
                detail = f"{block.name_format % indices}: {lhs} {block.sense} {rhs} fails"
                violations.append(Violation(block.group, indices, detail))
    return violations
