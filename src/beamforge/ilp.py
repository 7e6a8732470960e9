"""Symbolic integer model: construction, LP-format emission, assignment checking.

Variables follow the naming scheme x_i_m_t / z_t / y_h_w / yl_h_w_v / o_u with
1-based indices; id 0 in the x family is the hold marker occupying a mold while
an earlier cast cures.  The model refers to a variable only by its column: x
columns first (mold by mold, then period by period, each period a slot of the
hold marker and the mold's admitted patterns), then z by period, then the
producers, cuts before splices.  `IlpModel.names` gives each column's name.
Constraint rows use integer coefficients only, held as parallel `coeffs` and
`cols` arrays; lengths appear solely in the objective, as meters.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from operator import mul

from .errors import DimensionMismatchError
from .evaluation import (
    Chromosome,
    Schedule,
    combine_objective,
    decode_schedule,
    waste_cm,
)
from .instance import Instance
from .patterns import CuttingPattern, OverlappingPattern, PatternSet


@dataclass(slots=True)
class Row:
    name: str
    group: str
    indices: tuple
    coeffs: array  # integer coefficients, parallel to cols
    cols: array  # column ids, distinct within the row
    sense: str  # "<=", ">=", "="
    rhs: int


@dataclass
class Violation:
    group: str
    indices: tuple
    detail: str

    def __str__(self) -> str:
        return f"{self.group}{self.indices}: {self.detail}"


@dataclass
class Assignment:
    """Concrete values for every variable family of a model."""

    x: dict[tuple[int, int, int], int]  # (pattern id or 0, mold, period)
    z: dict[int, int]  # period -> 0/1
    cuts: dict[int, int]  # cutting pattern id -> count
    overlaps: dict[int, int]  # overlapping pattern id -> count


@dataclass
class IlpModel:
    inst: Instance
    pats: PatternSet
    x_keys: list[tuple[int, int, int]]  # the key of each x column
    fixed_zero: set[tuple[int, int, int]]
    names: list[str]  # one per column: x, then z, then producers
    rows: list[Row] = field(default_factory=list)
    objective: list[tuple[float, int]] = field(default_factory=list)  # (coefficient, column)

    @property
    def z_keys(self) -> list[int]:
        return list(range(1, self.inst.horizon + 1))

    def admitted(self, mold: int) -> list[int]:
        """Packing pattern ids admitted to a 1-based mold (its length class)."""
        g = self.inst.mold_class_of(mold - 1)
        return [p.id for p in self.pats.packing_in_class(g)]


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


def _ints(values=()) -> array:
    return array("i", values)


def _repeat(value: int, n: int) -> array:
    return array("i", (value,)) * n


def build_model(inst: Instance, pats: PatternSet) -> IlpModel:
    """Assemble every constraint row and the weighted objective.

    Mold m's x columns start at base[m]; each period is a slot of width[m]
    columns, the hold marker at position 0 and admitted[m][k - 1] at k, so
    x_i_m_t sits at base[m] + (t - 1)·width[m] + position.  A row's columns
    are slices, strided over periods where needed, of the array of all ids.
    """
    T = inst.horizon
    M = inst.num_molds
    W = inst.num_bar_kinds
    V = inst.num_leftover_kinds
    R = inst.max_curing_time
    model = IlpModel(inst=inst, pats=pats, x_keys=[], fixed_zero=set(), names=[])
    x_keys, names = model.x_keys, model.names

    admitted = {m: [pats.by_id(i) for i in model.admitted(m)] for m in range(1, M + 1)}
    base, width = {}, {}
    for m in range(1, M + 1):
        base[m], width[m] = len(x_keys), 1 + len(admitted[m])
        ids = [0, *(p.id for p in admitted[m])]
        for t in range(1, T + 1):
            x_keys += [(i, m, t) for i in ids]
        # Starts too late to finish within the horizon.
        for p in admitted[m]:
            late = range(max(T - p.duration + 2, 1), T + 1)
            model.fixed_zero.update((p.id, m, t) for t in late)
    names += [_xname(*key) for key in x_keys]
    z_base = len(names)
    names += [f"z_{t}" for t in model.z_keys]
    producer_base = len(names)
    names += [_producer_name(p) for p in pats.producers]
    col = _ints(range(len(names)))

    rows = model.rows
    # One pattern (possibly the hold marker) per mold and period.
    for m in range(1, M + 1):
        b, w = base[m], width[m]
        ones = _repeat(1, w)
        for t in range(1, T + 1):
            s = b + (t - 1) * w
            slot = col[s : s + w]
            rows.append(Row(f"mold_slot_{m}_{t}", "mold_slot", (m, t), ones[:], slot, "<=", 1))
    # Every demand covered by pattern starts that can finish in time.
    for c, bt in enumerate(inst.beam_types, start=1):
        for k, demand in enumerate(bt.demands, start=1):
            coeffs, cols = _ints(), _ints()
            for m in range(1, M + 1):
                b, w = base[m], width[m]
                for pos, pattern in enumerate(admitted[m], start=1):
                    if pattern.beam_type != c or pattern.counts[k - 1] == 0:
                        continue
                    starts = max(T - pattern.duration + 1, 0)
                    cols += col[b + pos : b + pos + starts * w : w]
                    coeffs += _repeat(pattern.counts[k - 1], starts)
            rows.append(Row(f"demand_{c}_{k}", "demand", (c, k), coeffs, cols, ">=", demand))
    # A started multi-period cast forces hold markers while it cures.
    for m in range(1, M + 1):
        b, w = base[m], width[m]
        for pos, pattern in enumerate(admitted[m], start=1):
            E = pattern.duration
            if E < 2:
                continue
            hold = _repeat(E - 1, 1) + _repeat(-1, E - 1)
            for t in range(1, T - E + 2):
                s = b + t * w  # the hold marker of period t + 1
                cols = _ints((s - w + pos,)) + col[s : s + (E - 1) * w : w]
                name = f"curing_hold_{m}_{t}_{pattern.id}"
                rows.append(Row(name, "curing_hold", (m, t, pattern.id), hold[:], cols, "<=", 0))
    # No hold marker in the first period.
    for m in range(1, M + 1):
        hold = _ints((base[m],))
        rows.append(Row(f"no_initial_hold_{m}", "no_initial_hold", (m,), _ints((1,)), hold, "=", 0))
    # A hold marker needs an unfinished cast started recently enough.
    for m in range(1, M + 1):
        b, w = base[m], width[m]
        # Slot positions of the casts still curing `back` periods after their start.
        curing = {
            back: [pos for pos, p in enumerate(admitted[m], start=1) if p.duration >= back]
            for back in range(2, R + 1)
        }
        for t in range(2, T + 1):
            cols = _ints((b + (t - 1) * w,))
            for back in range(2, min(R, t) + 1):
                s = b + (t - back) * w
                cols.extend([s + pos for pos in curing[back]])
            coeffs = _repeat(1, 1) + _repeat(-1, len(cols) - 1)
            rows.append(Row(f"hold_link_{m}_{t}", "hold_link", (m, t), coeffs, cols, "<=", 0))
    # Any activity in a period switches that period on.
    for t in range(1, T + 1):
        cols = _ints((z_base + t - 1,))
        for m in range(1, M + 1):
            s = base[m] + (t - 1) * width[m]
            cols += col[s : s + width[m]]
        coeffs = _repeat(M, 1) + _repeat(-1, len(cols) - 1)
        rows.append(Row(f"period_active_{t}", "period_active", (t,), coeffs, cols, ">=", 0))
    # Once a mold goes idle it stays idle.
    for m in range(1, M + 1):
        b, w = base[m], width[m]
        step = _repeat(1, w) + _repeat(-1, w)
        for t in range(1, T):
            s = b + (t - 1) * w
            pair = col[s : s + 2 * w]
            rows.append(Row(f"continuity_{m}_{t}", "continuity", (m, t), step[:], pair, ">=", 0))
    # Producer terms of the stock and bar-balance rows, cuts before splices.
    stock = {w: (_ints(), _ints()) for w in range(1, W + V + 1)}
    balance = {g: (_ints(), _ints()) for g in range(1, inst.num_mold_classes + 1)}
    for j, p in enumerate(pats.producers, start=producer_base):
        for w, need in p.stock_use:
            stock[w][0].append(need)
            stock[w][1].append(j)
        for g, count in enumerate(p.item_counts, start=1):
            if count:
                balance[g][0].append(count)
                balance[g][1].append(j)
    # Stock per bar kind: leftover kinds (cut as a bar or spliced), then new bars.
    for w in [*range(W + 1, W + V + 1), *range(1, W + 1)]:
        group = "leftover_stock" if w > W else "new_bar_stock"
        rows.append(Row(f"{group}_{w}", group, (w,), *stock[w], "<=", inst.stock[w - 1]))
    # Bars produced must equal bars the packed molds require.
    for g in range(1, inst.num_mold_classes + 1):
        coeffs, cols = balance[g]
        for m in range(1, M + 1):
            if inst.mold_class_of(m - 1) != g:
                continue
            b, w = base[m], width[m]
            for pos, pattern in enumerate(admitted[m], start=1):
                if pattern.bars == 0:
                    continue
                cols += col[b + pos : b + pos + T * w : w]
                coeffs += _repeat(-pattern.bars, T)
        rows.append(Row(f"bar_balance_{g}", "bar_balance", (g,), coeffs, cols, "=", 0))

    objective = [(inst.weights[0] * 1.0, z_base + t - 1) for t in model.z_keys]
    for j, p in enumerate(pats.producers, start=producer_base):
        objective.append((inst.weights[p.bucket] * (p.waste / 100.0), j))
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

    def expression(coeffs, cols) -> str:
        text = "".join(
            [
                plus[j] if c == 1 else minus[j] if c == -1 else prefix[c] + names[j]
                for c, j in zip(coeffs, cols)
                if c
            ]
        )
        if not text:
            return f"0 {anchor}"
        # A leading " + " goes; a leading minus keeps its sign: "- x".
        return text[3:] if text[1] == "+" else text[1:]

    objective = expression(*zip(*model.objective)) if model.objective else f"0 {anchor}"
    lines = ["Minimize", " obj: " + objective, "Subject To"]
    for row in model.rows:
        lines.append(f" {row.name}: {expression(row.coeffs, row.cols)} {row.sense} {row.rhs}")
    fixed = sorted(model.fixed_zero)
    if fixed:
        lines.append("Bounds")
        lines += [f" {_xname(*key)} = 0" for key in fixed]
    first_general = len(model.x_keys) + len(model.z_keys)
    lines.append("Binaries")
    lines += [" " + name for name in names[:first_general]]
    lines.append("Generals")
    lines += [" " + name for name in names[first_general:]]
    lines.append("End")
    return "\n".join(lines) + "\n"


# -- assignment construction and checking ------------------------------------


def induced_assignment(model: IlpModel, ch: Chromosome, schedule: Schedule | None = None) -> Assignment:
    """Assignment realizing a chromosome under the schedule decoder."""
    inst, pats = model.inst, model.pats
    if schedule is None:
        schedule = decode_schedule(ch, inst, pats)
    x = {key: 0 for key in model.x_keys}
    for m, starts in enumerate(schedule.assignments, start=1):
        for pid, start in starts:
            x[(pid, m, start)] = 1
            duration = pats.by_id(pid).duration
            for t in range(start + 1, start + duration):
                x[(0, m, t)] = 1
    z = {t: int(t <= schedule.makespan) for t in model.z_keys}
    cuts = {p.id: 0 for p in pats.cutting}
    overlaps = {p.id: 0 for p in pats.overlapping}
    for pid, freq in ch.genes:
        pattern = pats.by_id(pid)
        if isinstance(pattern, CuttingPattern):
            cuts[pid] += freq
        elif isinstance(pattern, OverlappingPattern):
            overlaps[pid] += freq
    return Assignment(x=x, z=z, cuts=cuts, overlaps=overlaps)


def assignment_objective(model: IlpModel, a: Assignment) -> float:
    """Objective of an assignment, via the same arithmetic as chromosome fitness."""
    active = sum(a.z[t] for t in model.z_keys)
    uses = [(p.id, a.cuts[p.id]) for p in model.pats.cutting]
    uses += [(p.id, a.overlaps[p.id]) for p in model.pats.overlapping]
    return combine_objective(model.inst.weights, active, *waste_cm(uses, model.pats))


def check_assignment(model: IlpModel, a: Assignment) -> list[Violation]:
    """Evaluate every row and domain; empty list means feasible."""
    if a.x.keys() != set(model.x_keys):
        raise DimensionMismatchError("x keys do not match the model")
    if a.z.keys() != set(model.z_keys):
        raise DimensionMismatchError("z keys do not match the model")
    if a.cuts.keys() != {p.id for p in model.pats.cutting}:
        raise DimensionMismatchError("cutting keys do not match the model")
    if a.overlaps.keys() != {p.id for p in model.pats.overlapping}:
        raise DimensionMismatchError("overlapping keys do not match the model")

    violations: list[Violation] = []
    for key, value in a.x.items():
        if value not in (0, 1):
            detail = f"{_xname(*key)} must be binary, got {value}"
            violations.append(Violation("domain", key, detail))
        elif value and key in model.fixed_zero:
            detail = f"{_xname(*key)} is fixed to 0 (cannot finish in the horizon)"
            violations.append(Violation("domain", key, detail))
    for t, value in a.z.items():
        if value not in (0, 1):
            violations.append(Violation("domain", (t,), f"z_{t} must be binary, got {value}"))
    for p in model.pats.cutting:
        value = a.cuts[p.id]
        if not isinstance(value, int) or value < 0:
            violations.append(
                Violation("domain", (p.id,), f"cut count must be a nonnegative integer, got {value}")
            )
    for p in model.pats.overlapping:
        value = a.overlaps[p.id]
        if not isinstance(value, int) or value < 0:
            violations.append(
                Violation(
                    "domain", (p.id,), f"overlap count must be a nonnegative integer, got {value}"
                )
            )

    # Values in column order: x, z, then cuts before splices.
    values = list(map(a.x.__getitem__, model.x_keys))
    values += map(a.z.__getitem__, model.z_keys)
    values += (a.cuts[p.id] for p in model.pats.cutting)
    values += (a.overlaps[p.id] for p in model.pats.overlapping)
    value_of = values.__getitem__
    for row in model.rows:
        lhs = sum(map(mul, row.coeffs, map(value_of, row.cols)))
        ok = (
            lhs <= row.rhs
            if row.sense == "<="
            else lhs >= row.rhs
            if row.sense == ">="
            else lhs == row.rhs
        )
        if not ok:
            violations.append(
                Violation(row.group, row.indices, f"{row.name}: {lhs} {row.sense} {row.rhs} fails")
            )
    return violations
