"""Symbolic integer model: construction, LP-format emission, assignment checking.

Variables follow the naming scheme x_i_m_t / z_t / y_h_w / yl_h_w_v / o_u with
1-based indices; id 0 in the x family is the hold marker occupying a mold while
an earlier cast cures.  Constraint rows use integer coefficients only; lengths
appear solely in the objective, as meters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DimensionMismatchError
from .evaluation import (
    Chromosome,
    Schedule,
    combine_objective,
    decode_schedule,
    waste_by_bucket,
)
from .instance import Instance
from .patterns import CuttingPattern, OverlappingPattern, PatternSet


@dataclass(frozen=True)
class Row:
    name: str
    group: str
    indices: tuple
    terms: tuple[tuple[int, str], ...]  # (integer coefficient, variable name)
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
    x_keys: list[tuple[int, int, int]]
    fixed_zero: set[tuple[int, int, int]]
    rows: list[Row] = field(default_factory=list)
    objective: list[tuple[float, str]] = field(default_factory=list)

    @property
    def z_keys(self) -> list[int]:
        return list(range(1, self.inst.horizon + 1))

    def admitted(self, mold: int) -> list[int]:
        """Packing pattern ids admitted to a 1-based mold (its length class)."""
        g = self.inst.mold_class_of(mold - 1)
        return [p.id for p in self.pats.packing_in_class(g)]

    def var_names(self) -> list[str]:
        names = [_xname(i, m, t) for (i, m, t) in self.x_keys]
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
    """Assemble every constraint row and the weighted objective."""
    T = inst.horizon
    M = inst.num_molds
    W = inst.num_bar_kinds
    V = inst.num_leftover_kinds
    R = inst.max_curing_time
    model = IlpModel(inst=inst, pats=pats, x_keys=[], fixed_zero=set())

    admitted = {m: model.admitted(m) for m in range(1, M + 1)}
    duration = {p.id: p.duration for p in pats.packing}
    for m in range(1, M + 1):
        for t in range(1, T + 1):
            for i in [0, *admitted[m]]:
                key = (i, m, t)
                model.x_keys.append(key)
                if i != 0 and t > T - duration[i] + 1:
                    model.fixed_zero.add(key)

    rows = model.rows
    # One pattern (possibly the hold marker) per mold and period.
    for m in range(1, M + 1):
        for t in range(1, T + 1):
            terms = tuple((1, _xname(i, m, t)) for i in [0, *admitted[m]])
            rows.append(Row(f"mold_slot_{m}_{t}", "mold_slot", (m, t), terms, "<=", 1))
    # Every demand covered by pattern starts that can finish in time.
    for c, bt in enumerate(inst.beam_types, start=1):
        for k, demand in enumerate(bt.demands, start=1):
            terms = []
            for m in range(1, M + 1):
                for i in admitted[m]:
                    pattern = pats.by_id(i)
                    if pattern.beam_type != c or pattern.counts[k - 1] == 0:
                        continue
                    for t in range(1, T - pattern.duration + 2):
                        terms.append((pattern.counts[k - 1], _xname(i, m, t)))
            rows.append(Row(f"demand_{c}_{k}", "demand", (c, k), tuple(terms), ">=", demand))
    # A started multi-period cast forces hold markers while it cures.
    for m in range(1, M + 1):
        for i in admitted[m]:
            E = duration[i]
            if E < 2:
                continue
            for t in range(1, T - E + 2):
                terms = [(E - 1, _xname(i, m, t))]
                terms += [(-1, _xname(0, m, t + a)) for a in range(1, E)]
                rows.append(
                    Row(f"curing_hold_{m}_{t}_{i}", "curing_hold", (m, t, i), tuple(terms), "<=", 0)
                )
    # No hold marker in the first period.
    for m in range(1, M + 1):
        rows.append(
            Row(
                f"no_initial_hold_{m}",
                "no_initial_hold",
                (m,),
                ((1, _xname(0, m, 1)),),
                "=",
                0,
            )
        )
    # A hold marker needs an unfinished cast started recently enough.
    for m in range(1, M + 1):
        for t in range(2, T + 1):
            terms = [(1, _xname(0, m, t))]
            for back in range(2, R + 1):
                start = t - back + 1
                if start < 1:
                    continue
                for i in admitted[m]:
                    if duration[i] >= back:
                        terms.append((-1, _xname(i, m, start)))
            rows.append(Row(f"hold_link_{m}_{t}", "hold_link", (m, t), tuple(terms), "<=", 0))
    # Any activity in a period switches that period on.
    for t in range(1, T + 1):
        terms = [(M, f"z_{t}")]
        for m in range(1, M + 1):
            terms += [(-1, _xname(i, m, t)) for i in [0, *admitted[m]]]
        rows.append(Row(f"period_active_{t}", "period_active", (t,), tuple(terms), ">=", 0))
    # Once a mold goes idle it stays idle.
    for m in range(1, M + 1):
        for t in range(1, T):
            terms = [(1, _xname(i, m, t)) for i in [0, *admitted[m]]]
            terms += [(-1, _xname(i, m, t + 1)) for i in [0, *admitted[m]]]
            rows.append(Row(f"continuity_{m}_{t}", "continuity", (m, t), tuple(terms), ">=", 0))
    # Producer terms of the stock and bar-balance rows, cuts before splices.
    stock_terms = {w: [] for w in range(1, W + V + 1)}
    balance_terms = {g: [] for g in range(1, inst.num_mold_classes + 1)}
    for p in pats.producers:
        name = _producer_name(p)
        for w, need in p.stock_use:
            stock_terms[w].append((need, name))
        for g, count in enumerate(p.item_counts, start=1):
            if count:
                balance_terms[g].append((count, name))
    # Stock per bar kind: leftover kinds (cut as a bar or spliced), then new bars.
    for w in [*range(W + 1, W + V + 1), *range(1, W + 1)]:
        group = "leftover_stock" if w > W else "new_bar_stock"
        rows.append(Row(f"{group}_{w}", group, (w,), tuple(stock_terms[w]), "<=", inst.stock[w - 1]))
    # Bars produced must equal bars the packed molds require.
    for g in range(1, inst.num_mold_classes + 1):
        terms = balance_terms[g]
        for m in range(1, M + 1):
            if inst.mold_class_of(m - 1) != g:
                continue
            for i in admitted[m]:
                bars = pats.by_id(i).bars
                if bars == 0:
                    continue
                for t in range(1, T + 1):
                    terms.append((-bars, _xname(i, m, t)))
        rows.append(Row(f"bar_balance_{g}", "bar_balance", (g,), tuple(terms), "=", 0))

    objective = [(inst.weights[0] * 1.0, f"z_{t}") for t in model.z_keys]
    for p in pats.producers:
        objective.append((inst.weights[p.bucket] * (p.waste / 100.0), _producer_name(p)))
    model.objective = objective
    return model


# -- LP file emission --------------------------------------------------------


def _num(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _term_string(terms, anchor: str) -> str:
    parts = []
    for coeff, name in terms:
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        piece = name if mag == 1 else f"{_num(mag)} {name}"
        parts.append((sign, piece))
    if not parts:
        return f"0 {anchor}"
    first_sign, first_piece = parts[0]
    out = first_piece if first_sign == "+" else f"- {first_piece}"
    for sign, piece in parts[1:]:
        out += f" {sign} {piece}"
    return out


def emit_lp(model: IlpModel) -> str:
    """Serialize to LP file format; byte-identical across emissions."""
    names = model.var_names()
    anchor = names[0] if names else "z_1"
    lines = ["Minimize", f" obj: {_term_string(model.objective, anchor)}"]
    lines.append("Subject To")
    for row in model.rows:
        lines.append(f" {row.name}: {_term_string(row.terms, anchor)} {row.sense} {row.rhs}")
    fixed = sorted(model.fixed_zero)
    if fixed:
        lines.append("Bounds")
        for key in fixed:
            lines.append(f" {_xname(*key)} = 0")
    lines.append("Binaries")
    for key in model.x_keys:
        lines.append(f" {_xname(*key)}")
    for t in model.z_keys:
        lines.append(f" z_{t}")
    lines.append("Generals")
    for p in model.pats.producers:
        lines.append(f" {_producer_name(p)}")
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
    uses = [(p, a.cuts[p.id]) for p in model.pats.cutting]
    uses += [(p, a.overlaps[p.id]) for p in model.pats.overlapping]
    return combine_objective(model.inst.weights, active, *waste_by_bucket(uses))


def check_assignment(model: IlpModel, a: Assignment) -> list[Violation]:
    """Evaluate every row and domain; empty list means feasible."""
    if set(a.x) != set(model.x_keys):
        raise DimensionMismatchError("x keys do not match the model")
    if set(a.z) != set(model.z_keys):
        raise DimensionMismatchError("z keys do not match the model")
    if set(a.cuts) != {p.id for p in model.pats.cutting}:
        raise DimensionMismatchError("cutting keys do not match the model")
    if set(a.overlaps) != {p.id for p in model.pats.overlapping}:
        raise DimensionMismatchError("overlapping keys do not match the model")

    values: dict[str, int] = {}
    violations: list[Violation] = []
    for key, value in a.x.items():
        name = _xname(*key)
        values[name] = value
        if value not in (0, 1):
            violations.append(Violation("domain", key, f"{name} must be binary, got {value}"))
        elif value and key in model.fixed_zero:
            violations.append(
                Violation("domain", key, f"{name} is fixed to 0 (cannot finish in the horizon)")
            )
    for t, value in a.z.items():
        values[f"z_{t}"] = value
        if value not in (0, 1):
            violations.append(Violation("domain", (t,), f"z_{t} must be binary, got {value}"))
    for p in model.pats.cutting:
        value = a.cuts[p.id]
        values[_producer_name(p)] = value
        if not isinstance(value, int) or value < 0:
            violations.append(
                Violation("domain", (p.id,), f"cut count must be a nonnegative integer, got {value}")
            )
    for p in model.pats.overlapping:
        value = a.overlaps[p.id]
        values[_producer_name(p)] = value
        if not isinstance(value, int) or value < 0:
            violations.append(
                Violation(
                    "domain", (p.id,), f"overlap count must be a nonnegative integer, got {value}"
                )
            )

    for row in model.rows:
        lhs = sum(coeff * values[name] for coeff, name in row.terms)
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
