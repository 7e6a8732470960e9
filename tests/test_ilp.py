import dataclasses
import hashlib
import json
import random
from array import array
from fractions import Fraction

import pytest

from beamforge.errors import HorizonError
from beamforge.evaluation import (
    Chromosome,
    Tally,
    evaluate,
    exhaustive_optimum,
)
from beamforge.ga import random_solution
from beamforge.ilp import (
    RowBlock,
    _producer_name,
    _xname,
    assignment_objective,
    build_model,
    check_assignment,
    emit_lp,
    induced_assignment,
)
from beamforge.instance import generate_instance, parse_instance
from beamforge.patterns import NEW_BAR, NEW_BAR_LEFTOVER, REUSE, PatternSet, generate_patterns

from conftest import (
    CWP000_DOC,
    beam_type,
    cwp000_optimal_genes,
    find_cutting,
    find_overlap,
    find_packing,
    make_instance,
)


def lp_text(model):
    """The LP text `emit_lp` writes, collected chunk by chunk."""
    parts = []
    emit_lp(model, parts.append)
    return "".join(parts)


def parse_lp(text):
    """Parse the LP subset this package emits back into a plain structure."""
    section = None
    objective = {}
    rows = {}
    fixed = set()
    binaries = set()
    generals = set()

    def parse_terms(expr):
        tokens = expr.split()
        terms = {}
        sign = 1
        pending: float | None = None
        for tok in tokens:
            if tok == "+":
                sign, pending = 1, None
            elif tok == "-":
                sign, pending = -1, None
            else:
                try:
                    pending = float(tok)
                    continue
                except ValueError:
                    coeff = sign * (pending if pending is not None else 1.0)
                    terms[tok] = terms.get(tok, 0.0) + coeff
                    sign, pending = 1, None
        return terms

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line in ("Minimize", "Subject To", "Bounds", "Binaries", "Generals", "End"):
            section = line
            continue
        if section == "Minimize":
            _, expr = line.split(":", 1)
            objective.update(parse_terms(expr))
        elif section == "Subject To":
            name, body = line.split(":", 1)
            for sense in ("<=", ">=", "="):
                if f" {sense} " in body:
                    expr, rhs = body.rsplit(sense, 1)
                    rows[name.strip()] = (parse_terms(expr), sense, float(rhs))
                    break
        elif section == "Bounds":
            name, _, value = line.partition("=")
            assert value.strip() == "0"
            fixed.add(name.strip())
        elif section == "Binaries":
            binaries.add(line)
        elif section == "Generals":
            generals.add(line)
    return objective, rows, fixed, binaries, generals


class TestBuildModel:
    def test_variable_counts(self, cwp000, cwp000_patterns):
        model = build_model(cwp000, cwp000_patterns)
        assert len(model.x_keys) == 51
        assert len(model.z_keys) == 3
        assert len(cwp000_patterns.cutting) == 10
        assert len(cwp000_patterns.overlapping) == 12
        # Short molds admit the two short-class patterns; the long mold the
        # other four; the hold marker everywhere.
        assert model.x_ids[0] == [0, 1, 2]
        assert model.x_ids[4] == [0, 3, 4, 5, 6]
        assert not model.fixed_zero  # every cast cures in one period

    def test_row_counts_per_group(self, cwp000, cwp000_patterns):
        model = build_model(cwp000, cwp000_patterns)
        counts = {}
        for row in model.rows:
            counts[row.group] = counts.get(row.group, 0) + 1
        assert counts == {
            "mold_slot": 15,  # molds x periods
            "demand": 2,  # beam lengths
            "no_initial_hold": 5,  # molds
            "hold_link": 10,  # molds x later periods
            "period_active": 3,
            "continuity": 10,
            "leftover_stock": 4,
            "new_bar_stock": 1,
            "bar_balance": 2,
        }

    def test_demand_rows(self, cwp000, cwp000_patterns):
        model = build_model(cwp000, cwp000_patterns)
        demand_rows = [r for r in model.rows if r.group == "demand"]
        assert [r.rhs for r in demand_rows] == [5, 10]

    def test_multi_period_curing_creates_hold_rows(self):
        inst = make_instance(
            beam_types=[beam_type([330], [2], curing=2)], mold_lengths=[595], horizon=3
        )
        pats = generate_patterns(inst)
        model = build_model(inst, pats)
        hold = [r for r in model.rows if r.group == "curing_hold"]
        # One start row per period the two-period cast can begin in.
        assert len(hold) == 2
        assert model.fixed_zero == {(1, 1, 3)}

    def test_zero_weights_zero_objective(self, cwp000_text, cwp000_patterns):
        from beamforge.instance import parse_instance

        inst = parse_instance(cwp000_text)
        inst.weights = (0.0, 0.0, 0.0, 0.0)
        model = build_model(inst, cwp000_patterns)
        assert all(coeff == 0 for coeff, _ in model.objective)


class TestColumnLayout:
    """Columns run x (mold, period, then hold marker and the class's patterns),
    z, then producers; rows refer to them only by id."""

    @pytest.mark.parametrize("which", ["cwp000", "generated"])
    def test_columns_and_rows(self, which, cwp000, cwp000_patterns):
        if which == "cwp000":
            inst, pats = cwp000, cwp000_patterns
        else:
            inst = generate_instance(11, 3, 15)  # two mold classes, curing up to 3
            pats = generate_patterns(inst)
        model = build_model(inst, pats)
        T, M = inst.horizon, inst.num_molds
        assert model.x_keys == [
            (i, m, t)
            for m in range(1, M + 1)
            for t in range(1, T + 1)
            for i in model.x_ids[m - 1]
        ]
        nx = len(model.x_keys)
        assert len(model.names) == nx + T + len(pats.producers)
        assert len(set(model.names)) == len(model.names)
        for col, key in enumerate(model.x_keys):
            assert model.names[col] == _xname(*key)
        assert model.names[nx : nx + T] == [f"z_{t}" for t in model.z_keys]
        assert model.names[nx + T :] == [_producer_name(p) for p in pats.producers]
        for row in model.rows:
            assert len(row.coeffs) == len(row.cols) > 0
            assert len(set(row.cols)) == len(row.cols)
            assert all(0 <= col < len(model.names) for col in row.cols)
            assert all(isinstance(c, int) and c != 0 for c in row.coeffs)
        assert [col for _, col in model.objective] == list(range(nx, len(model.names)))


class TestEmit:
    def test_deterministic(self, cwp000, cwp000_patterns):
        model = build_model(cwp000, cwp000_patterns)
        assert lp_text(model) == lp_text(build_model(cwp000, cwp000_patterns))

    # Generals (cutting + overlapping variables) and x columns fixed to zero.
    ROUND_TRIP_COUNTS = {"cwp000": (22, 0), "curing": (22, 7), "generated": (22, 517)}

    @pytest.mark.parametrize("which", ["cwp000", "curing", "generated"])
    def test_round_trip_structure(self, which, cwp000, cwp000_patterns):
        if which == "cwp000":
            inst, pats = cwp000, cwp000_patterns
        else:
            inst = curing_instance() if which == "curing" else generate_instance(11, 3, 15)
            pats = generate_patterns(inst)
        model = build_model(inst, pats)
        objective, rows, fixed, binaries, generals = parse_lp(lp_text(model))
        assert binaries == {f"x_{i}_{m}_{t}" for i, m, t in model.x_keys} | {
            f"z_{t}" for t in model.z_keys
        }
        assert (len(generals), len(fixed)) == self.ROUND_TRIP_COUNTS[which]
        assert fixed == {f"x_{i}_{m}_{t}" for i, m, t in model.fixed_zero}
        assert len(rows) == len(model.rows)
        groups = set()
        for row in model.rows:
            assert row.name == row.group + "_" + "_".join(map(str, row.indices))
            groups.add(row.group)
            terms, sense, rhs = rows[row.name]
            assert sense == row.sense
            assert rhs == row.rhs
            assert terms == {
                model.names[j]: float(c) for c, j in zip(row.coeffs, row.cols) if c != 0
            }
        assert ("curing_hold" in groups) == (which != "cwp000")
        emitted_obj = {model.names[j]: coeff for coeff, j in model.objective if coeff != 0}
        assert objective == pytest.approx(emitted_obj)

    def test_rows_without_terms_or_with_a_zero_first_term(self, cwp000, cwp000_patterns):
        # A row without terms reads "0 <first column>", at a block's start and
        # after another row; zero terms are dropped; the first term keeps its
        # sign only when negative.
        model = build_model(cwp000, cwp000_patterns)
        n = model.names
        coeffs = array("i", [0, 1, -1, 2, 0, -3, 1, -1])
        cols = array("i", [3, 4, 5, 6, 7, 8, 9, 10])
        starts = array("i", [0, 0, 3, 3, 5, 6, 8])
        indices = [(k,) for k in range(1, 7)]
        model.blocks = [RowBlock("odd", "<=", indices, list(range(6)), coeffs, cols, starts)]
        chunks = []
        emit_lp(model, chunks.append)
        assert chunks[1] == "".join([
            f" odd_1: 0 {n[0]} <= 0\n",
            f" odd_2: {n[4]} - {n[5]} <= 1\n",
            f" odd_3: 0 {n[0]} <= 2\n",
            f" odd_4: 2 {n[6]} <= 3\n",
            f" odd_5: - 3 {n[8]} <= 4\n",
            f" odd_6: {n[9]} - {n[10]} <= 5\n",
        ])

    def test_empty_pattern_set(self, cwp000):
        empty = PatternSet(
            packing=[],
            cutting=[],
            overlapping=[],
            keys=cwp000.demand_keys,
            classes=cwp000.num_mold_classes,
            kinds=len(cwp000.stock),
        )
        model = build_model(cwp000, empty)
        text = lp_text(model)
        objective, _, _, _, _ = parse_lp(text)
        assert set(objective) == {"z_1", "z_2", "z_3"}


class TestCheckAssignment:
    def test_optimal_chromosome_clean(self, cwp000, cwp000_patterns):
        model = build_model(cwp000, cwp000_patterns)
        ch = Chromosome(cwp000_optimal_genes(cwp000_patterns))
        assignment = induced_assignment(model, ch)
        assert check_assignment(model, assignment) == []

    def test_objective_matches_fitness_exactly(self, cwp000, cwp000_patterns):
        model = build_model(cwp000, cwp000_patterns)
        ch = Chromosome(cwp000_optimal_genes(cwp000_patterns))
        assignment = induced_assignment(model, ch)
        assert assignment_objective(model, assignment) == evaluate(ch, cwp000, cwp000_patterns)[0]

    def test_double_booking_detected(self, cwp000, cwp000_patterns):
        model = build_model(cwp000, cwp000_patterns)
        ch = Chromosome(cwp000_optimal_genes(cwp000_patterns))
        assignment = induced_assignment(model, ch)
        assignment[model.x_keys.index((1, 1, 1))] = 1  # second pattern in an occupied slot
        groups = {v.group for v in check_assignment(model, assignment)}
        assert "mold_slot" in groups

    def test_stock_overrun_detected(self, cwp000, cwp000_patterns):
        model = build_model(cwp000, cwp000_patterns)
        ch = Chromosome(cwp000_optimal_genes(cwp000_patterns))
        assignment = induced_assignment(model, ch)
        reuse = next(p for p in cwp000_patterns.cutting if p.source_bar == 4)
        assignment[model.names.index(_producer_name(reuse))] += 100
        groups = {v.group for v in check_assignment(model, assignment)}
        assert "leftover_stock" in groups

    def test_dimension_mismatch(self, cwp000, cwp000_patterns):
        from beamforge.errors import DimensionMismatchError

        model = build_model(cwp000, cwp000_patterns)
        with pytest.raises(DimensionMismatchError):
            check_assignment(model, [])
        # One value short of the model's columns.
        assignment = induced_assignment(model, Chromosome(cwp000_optimal_genes(cwp000_patterns)))
        with pytest.raises(DimensionMismatchError):
            check_assignment(model, assignment[:-1])

    @pytest.mark.parametrize("value", [None, ""], ids=["none", "empty-string"])
    @pytest.mark.parametrize("family", ["x", "z", "cut"])
    def test_non_numeric_value_is_a_domain_violation(self, family, value):
        # The value's own domain violation, then the rows as if it were 0.
        inst = generate_instance(7, 2, 15)
        pats = generate_patterns(inst)
        model = build_model(inst, pats)
        rng = random.Random(1)
        assignment = None
        while assignment is None:
            ch = random_solution(inst, pats, rng)
            if ch is None:
                continue
            try:
                assignment = induced_assignment(model, ch)
            except HorizonError:
                pass
        assert check_assignment(model, assignment) == []
        nx, cuts = model.x_base[-1], range(model.producer_base, model.num_columns)
        column = {
            "x": assignment.index(1),
            "z": nx,
            "cut": next(j for j in cuts if assignment[j] > 0),
        }[family]
        assert assignment[column] > 0
        zeroed, broken = list(assignment), list(assignment)
        zeroed[column], broken[column] = 0, value
        found = check_assignment(model, broken)
        assert found[0].group == "domain"
        assert found[0].detail.endswith(f"got {value}")
        assert found[1:] == check_assignment(model, zeroed) != []

    def test_random_feasible_chromosomes_pass(self, cwp000, cwp000_patterns):
        # Any feasible chromosome induces a feasible assignment whose model
        # objective equals its fitness bit for bit.
        import random

        from beamforge.ga import random_solution

        model = build_model(cwp000, cwp000_patterns)
        rng = random.Random(6)
        checked = 0
        while checked < 25:
            ch = random_solution(cwp000, cwp000_patterns, rng)
            if ch is None:
                continue
            assignment = induced_assignment(model, ch)
            assert check_assignment(model, assignment) == []
            assert assignment_objective(model, assignment) == evaluate(
                ch, cwp000, cwp000_patterns
            )[0]
            checked += 1

    def test_curing_continuation_checked(self):
        inst = make_instance(
            beam_types=[beam_type([330], [2], curing=2)], mold_lengths=[595], horizon=4
        )
        pats = generate_patterns(inst)
        model = build_model(inst, pats)
        # Two casts back to back, two bars from single-item cuts.
        cut = next(p for p in pats.cutting if p.item_counts == (1,) and p.leftover_kind is None)
        ch = Chromosome([(1, 2), (cut.id, 2)])
        assignment = induced_assignment(model, ch)
        assert check_assignment(model, assignment) == []
        # Drop a hold marker: the curing linkage must flag it.
        start = next(t for (i, m, t), v in zip(model.x_keys, assignment) if v and i == 1)
        assignment[model.x_keys.index((0, 1, start + 1))] = 0
        groups = {v.group for v in check_assignment(model, assignment)}
        assert "curing_hold" in groups


class TestTallyAgreement:
    """The demand, stock and bar-balance rows hold exactly where the tally
    does, on infeasible plans too."""

    @pytest.mark.parametrize("which", ["cwp000", "generated"])
    def test_rows_name_the_keys_the_tally_reports(self, which, cwp000, cwp000_patterns):
        if which == "cwp000":
            inst, pats = cwp000, cwp000_patterns
        else:
            inst = generate_instance(7, 2, 15)
            pats = generate_patterns(inst)
        model = build_model(inst, pats)
        producer_ids = range(pats.num_packing + 1, pats.total + 1)
        rng = random.Random(3)
        checked, seen = 0, set()
        while checked < 60:
            packing = rng.sample(range(1, pats.num_packing + 1), rng.randint(1, 4))
            producers = rng.sample(producer_ids, rng.randint(0, 6))
            genes = [(pid, rng.randint(1, 3)) for pid in packing]
            genes += [(pid, rng.randint(1, 30)) for pid in producers]
            rng.shuffle(genes)
            ch = Chromosome(genes)
            try:
                values = induced_assignment(model, ch)
            except HorizonError:
                continue
            # A decoded plan keeps every scheduling row: only these fail.
            named = {"demand": set(), "stock": set(), "bar_balance": set()}
            for v in check_assignment(model, values):
                named["stock" if v.group.endswith("_stock") else v.group].add(v.indices)
            report = Tally(inst, pats, genes).report()
            assert named["demand"] == set(report.demand_shortfall)
            assert named["stock"] == {(w,) for w in report.stock_excess}
            assert named["bar_balance"] == {(g,) for g in report.balance_mismatch}
            seen.update(group for group, keys in named.items() if keys)
            checked += 1
        assert seen == {"demand", "stock", "bar_balance"}


class TestDistinctWeights:
    """Every objective path charges each producer's waste to the same λ.

    The weights are pairwise distinct, so a λ2/λ3/λ4 mix-up in any consumer
    changes a value below.
    """

    WEIGHTS = [1.5, 0.7, 2.25, 3.1]

    @pytest.fixture(scope="class")
    def weighted(self):
        inst = parse_instance(json.dumps(dict(CWP000_DOC, **{"lambda": self.WEIGHTS})))
        return inst, generate_patterns(inst)

    def test_bucket_per_producer_kind(self, weighted):
        inst, pats = weighted
        assert find_cutting(pats, 1, (0, 1), (0, 0, 0, 0)).bucket == NEW_BAR
        assert find_cutting(pats, 1, (1, 0), (0, 0, 1, 0)).bucket == NEW_BAR_LEFTOVER
        assert find_cutting(pats, 4, (1, 0), (0, 0, 0, 0)).bucket == REUSE
        splice = find_overlap(pats, 1, (0, 0, 1, 1))
        assert splice.bucket == REUSE
        assert splice.item_counts == (1, 0) and splice.stock_use == ((4, 1), (5, 1))
        assert [inst.weights[b] for b in (NEW_BAR, NEW_BAR_LEFTOVER, REUSE)] == [0.7, 2.25, 3.1]

    def test_plan_objective_agrees_across_paths(self, weighted):
        inst, pats = weighted
        # A new-bar cut, a new-bar cut setting aside a 6 m leftover and a cut
        # of a 6 m leftover: 10, 15 and 5 cm of waste in the three buckets.
        ch = Chromosome(
            [
                (find_packing(pats, 1, (2, 1)).id, 4),
                (find_packing(pats, 1, (1, 3)).id, 2),
                (find_cutting(pats, 1, (0, 1), (0, 0, 0, 0)).id, 2),
                (find_cutting(pats, 1, (1, 0), (0, 0, 1, 0)).id, 3),
                (find_cutting(pats, 4, (1, 0), (0, 0, 0, 0)).id, 1),
            ]
        )
        # 1.5 * 2 + 0.7 * 0.10 + 2.25 * 0.15 + 3.1 * 0.05
        value, schedule = evaluate(ch, inst, pats)
        assert value == 3.5625
        l1, l2, l3, l4 = (Fraction(w) for w in inst.weights)
        assert schedule.objective_cm == 100 * l1 * 2 + l2 * 10 + l3 * 15 + l4 * 5
        model = build_model(inst, pats)
        assignment = induced_assignment(model, ch)
        assert check_assignment(model, assignment) == []
        assert assignment_objective(model, assignment) == value
        assert len(assignment) == len(model.names)
        assert sum(coeff * assignment[j] for coeff, j in model.objective) == value

    def test_producer_cost_is_the_objective_rule(self, weighted):
        # `Producer.cost` is each producer's LP objective coefficient, and over
        # a plan's producer genes it sums to the waste terms of
        # `weighted_objective`, the sums the oracle prunes on.
        rng = random.Random(0)
        weights = tuple(rng.uniform(0.1, 1.0) for _ in range(4))
        generated = dataclasses.replace(generate_instance(7, 2, 15), weights=weights)
        for inst, pats in (weighted, (generated, generate_patterns(generated))):
            model = build_model(inst, pats)
            coefficients = {j: c for c, j in model.objective}
            for j, p in enumerate(pats.producers, start=model.producer_base):
                assert coefficients[j] == p.cost(inst.weights)
            by_id = {p.id: p for p in pats.producers}
            accepted = 0
            while accepted < 200:
                ch = random_solution(inst, pats, rng)
                if ch is None:
                    continue
                accepted += 1
                cost = sum(by_id[i].cost(inst.weights) * n for i, n in ch.genes if i in by_id)
                _, schedule = evaluate(ch, inst, pats)
                assert cost == pytest.approx(sum(schedule.objective_breakdown[1:]), abs=1e-9)

    def test_oracle_value(self, weighted):
        # 1.5 * 2 + 0.7 * 0.30: two periods and 30 cm of new-bar waste.
        inst, pats = weighted
        ch, value = exhaustive_optimum(inst, pats, max_freq=10, max_genes=8)
        value_again, schedule = evaluate(ch, inst, pats)
        assert value == value_again == 3.21
        l1, l2, _, _ = (Fraction(w) for w in inst.weights)
        assert schedule.objective_cm == 100 * l1 * 2 + l2 * 30


def solve_milp(text):
    """Solve emitted LP text with scipy's `milp` (HiGHS) on dense matrices
    built from `parse_lp`; raises ImportError without scipy."""
    import numpy as np
    from scipy import optimize as scipy_opt

    objective, rows, fixed, binaries, generals = parse_lp(text)
    names = sorted(binaries | generals)
    index = {name: i for i, name in enumerate(names)}
    c = np.zeros(len(names))
    for name, coeff in objective.items():
        c[index[name]] = coeff
    constraints = []
    for terms, sense, rhs in rows.values():
        row = np.zeros(len(names))
        for name, coeff in terms.items():
            row[index[name]] = coeff
        lb = -np.inf if sense == "<=" else rhs
        ub = np.inf if sense == ">=" else rhs
        constraints.append(scipy_opt.LinearConstraint(row, lb, ub))
    upper = np.array([1.0 if n in binaries else np.inf for n in names])
    for name in fixed:
        upper[index[name]] = 0.0
    return scipy_opt.milp(
        c=c,
        constraints=constraints,
        integrality=np.ones(len(names)),
        bounds=scipy_opt.Bounds(np.zeros(len(names)), upper),
    )


class TestExternalSolve:
    def test_milp_on_emitted_file(self, cwp000, cwp000_patterns, tmp_path):
        pytest.importorskip("scipy.optimize")
        path = tmp_path / "model.lp"
        path.write_text(lp_text(build_model(cwp000, cwp000_patterns)))
        result = solve_milp(path.read_text())
        assert result.success
        assert result.fun == pytest.approx(2.3, abs=1e-6)


def curing_instance():
    """Two beam types, the first curing for two periods: curing_hold rows and
    x columns fixed to zero in the last period (a Bounds section)."""
    return make_instance(
        beam_types=[beam_type([330, 450], [3, 2], curing=2), beam_type([900], [1])],
        mold_lengths=[595, 595, 1195],
        horizon=5,
    )


class TestPinnedBytes:
    """Emitted LP text and checker reports, pinned by SHA-256."""

    @pytest.fixture(scope="class")
    def cases(self, cwp000, cwp000_patterns):
        out = [(cwp000, cwp000_patterns)]
        for inst in (curing_instance(), generate_instance(7, 2, 15), generate_instance(11, 3, 15)):
            out.append((inst, generate_patterns(inst)))
        return out

    def test_pinned_lp_bytes(self, cases):
        digest = hashlib.sha256()
        for inst, pats in cases:
            digest.update(lp_text(build_model(inst, pats)).encode())
        assert digest.hexdigest() == "380213c5aff70a894d9a2e6e6a37653e08972f60fa2914ad4d37497fd11abc64"

    def test_pinned_lp_bytes_at_bench_scale(self):
        # The smallest model-lp instance: 39,842 x columns, 1,584 fixed zeros.
        inst = generate_instance(23, 2, 15)
        text = lp_text(build_model(inst, generate_patterns(inst)))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "6798cacc03b77348c49fa2f8b7638b3a15cf076b363aff9290b1ee2325715911"

    def test_emission_writes_one_chunk_per_block(self):
        # The header, each row block, then Bounds, Binaries, Generals and End:
        # no chunk holds more than a quarter of the text.
        inst = generate_instance(23, 2, 15)
        model = build_model(inst, generate_patterns(inst))
        chunks = []
        emit_lp(model, chunks.append)
        assert model.fixed_zero
        assert len(chunks) == 1 + len(model.blocks) + 4
        assert max(map(len, chunks)) <= sum(map(len, chunks)) / 4
        assert chunks[0].endswith("Subject To\n") and chunks[-1] == "End\n"

    def test_pinned_induced_assignments(self, cases):
        # The column vectors of 40 drawn plans per case.
        digest = hashlib.sha256()
        for inst, pats in cases:
            model = build_model(inst, pats)
            rng = random.Random(8)
            drawn = 0
            while drawn < 40:
                ch = random_solution(inst, pats, rng)
                if ch is None:
                    continue
                try:
                    values = induced_assignment(model, ch)
                except HorizonError:
                    continue
                digest.update(repr(values).encode())
                drawn += 1
        assert digest.hexdigest() == "efef81a22d075fc5c27a81e7753663e392b9f5c1fbc0bf08eab8e80764156438"

    def test_pinned_violation_text(self, cases):
        # Each round perturbs the assignment a drawn plan induces: flipped x
        # entries, a z of 2, a negative or an overdrawn cut count, an x on a
        # fixed-zero key.
        reports = []
        for inst, pats in cases[:3]:
            model = build_model(inst, pats)
            column = {key: j for j, key in enumerate(model.x_keys)}
            fixed = sorted(model.fixed_zero)
            nx, T = len(model.x_keys), inst.horizon
            cuts = range(nx + T, nx + T + len(pats.cutting))
            rng = random.Random(5)
            rounds = 0
            while rounds < 40:
                ch = random_solution(inst, pats, rng)
                if ch is None:
                    continue
                try:
                    a = induced_assignment(model, ch)
                except HorizonError:
                    continue
                for j in rng.sample(range(nx), rng.randint(0, 3)):
                    a[j] = 1 - a[j]
                if rng.random() < 0.3:
                    a[rng.choice(range(nx, nx + T))] = 2
                if rng.random() < 0.3:
                    a[rng.choice(cuts)] = -rng.randint(1, 3)
                if rng.random() < 0.2:
                    a[rng.choice(cuts)] += 100
                if fixed and rng.random() < 0.5:
                    a[column[rng.choice(fixed)]] = 1
                reports.append([str(v) for v in check_assignment(model, a)])
                rounds += 1
        assert sum(map(len, reports)) > 100
        digest = hashlib.sha256(repr(reports).encode()).hexdigest()
        assert digest == "d215972c5160b47387ccff52ce1edef624d26a94e1d723b3c42cbb7d91a16f9c"
