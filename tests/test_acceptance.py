"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest -v tests/test_acceptance.py`; the verdict lines bypass pytest
capture so they are visible either way.
"""

import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from beamforge.bound import lower_bound
from beamforge.evaluation import (
    Chromosome,
    classify_infeasibility,
    decode_schedule,
    evaluate,
    exhaustive_optimum,
)
from beamforge.ga import GaParams, random_solution, repair, run
from beamforge.harness import lbd, snr
from beamforge.ilp import (
    assignment_objective,
    build_model,
    check_assignment,
    emit_lp,
    induced_assignment,
)
from beamforge.instance import generate_instance
from beamforge.patterns import generate_patterns

from conftest import CWP000_DOC, beam_type, make_instance
from test_ilp import solve_milp
from test_patterns import CUTTING_GOLDEN, OVERLAP_GOLDEN, PACKING_GOLDEN


def report(capfd, criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        sys.stderr.write(f"criterion {criterion:2d}: {verdict} - {detail}\n")
        sys.stderr.flush()


def tiny_instance(rng: random.Random):
    """C=1, at most 3 molds, demands at most 6; always coverable from stock."""
    q = rng.randint(1, 2)
    lengths = sorted(rng.sample([235, 250, 265, 295, 330], q))
    demands = [rng.randint(0, 6) for _ in range(q)]
    if not any(demands):
        demands[0] = rng.randint(1, 6)
    molds = [rng.choice([595, 1195]) for _ in range(rng.randint(1, 3))]
    curing = rng.randint(1, 2)
    bars = rng.randint(1, 2)
    bt = beam_type(lengths, demands, curing=curing, bars=bars)
    work = curing * sum(l * d for l, d in zip(lengths, demands))
    horizon = max(curing, -((-3 * work) // (2 * sum(molds)))) + 2
    return make_instance(
        beam_types=[bt],
        mold_lengths=molds,
        horizon=horizon,
        stock=(100, 100, 100, 100, 100),
    )


def test_criterion_1_pattern_golden_tables(capfd, cwp000):
    start = time.perf_counter()
    pats = generate_patterns(cwp000)
    packing = {(p.id, p.beam_type, p.used_capacity, p.counts) for p in pats.packing}
    assert packing == set(PACKING_GOLDEN)
    cutting = {(p.source_bar, p.item_counts, p.leftover_counts): p.waste for p in pats.cutting}
    assert cutting == CUTTING_GOLDEN
    overlaps = {(p.produced_class, p.leftover_counts): p.waste for p in pats.overlapping}
    assert overlaps == OVERLAP_GOLDEN
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(capfd, 1, True, f"6 + 10 + 12 patterns match exactly in {elapsed * 1000:.0f} ms")


def test_criterion_2_lower_bound(capfd, cwp000, cwp000_patterns):
    breakdown = lower_bound(cwp000, cwp000_patterns)
    # Independent recomputation from raw data, exact rational arithmetic.
    bt = cwp000.beam_types[0]
    work = Fraction(bt.curing_time * sum(l * d for l, d in zip(bt.lengths, bt.demands)))
    capacity = Fraction(sum(cwp000.mold_lengths))
    makespan_lb = math.ceil(work / capacity)
    per_class = []
    for g, cap in enumerate(cwp000.distinct_mold_lengths, start=1):
        ratios = [
            Fraction(p.waste, p.item_counts[g - 1])
            for p in cwp000_patterns.cutting
            if p.item_counts[g - 1]
        ] + [
            Fraction(p.waste)
            for p in cwp000_patterns.overlapping
            if p.produced_class == g
        ]
        bars = math.ceil(work * bt.bars_per_beam / bt.curing_time / cap)
        per_class.append(bars * min(ratios))
    waste_lb = min(per_class)
    assert makespan_lb == 2 and breakdown.makespan_lb == 2
    assert waste_lb == Fraction(20) and breakdown.waste_lb_cm == Fraction(20)
    assert breakdown.waste_lb == 0.2
    assert breakdown.total == 2.2
    report(capfd, 2, True, "makespan_lb=2 waste_lb=0.2 total=2.2, exact")


def test_criterion_3_oracle_and_solver(capfd, cwp000, cwp000_patterns):
    result = exhaustive_optimum(cwp000, cwp000_patterns, max_freq=10, max_genes=8)
    assert result is not None
    oracle_ch, oracle_value = result
    oracle_schedule = decode_schedule(oracle_ch, cwp000, cwp000_patterns)
    assert oracle_value == evaluate(oracle_ch, cwp000, cwp000_patterns)[0]
    assert oracle_schedule.objective_cm == 230 and oracle_schedule.makespan == 2

    hits = 0
    worst_time = 0.0
    for seed in range(20):
        start = time.perf_counter()
        ga = run(cwp000, cwp000_patterns, GaParams.scaled(cwp000_patterns.num_packing, seed))
        elapsed = time.perf_counter() - start
        worst_time = max(worst_time, elapsed)
        assert elapsed < 10.0
        if abs(ga.fitness - 2.3) < 1e-9:
            hits += 1
    assert hits >= 18
    report(capfd, 3, True, f"oracle 2.3; solver {hits}/20 optimal, slowest run {worst_time:.2f} s")


def test_criterion_4_model_cross_check(capfd, cwp000, cwp000_patterns):
    oracle_ch, _ = exhaustive_optimum(cwp000, cwp000_patterns, max_freq=10, max_genes=8)
    model = build_model(cwp000, cwp000_patterns)
    assignment = induced_assignment(model, oracle_ch)
    violations = check_assignment(model, assignment)
    assert violations == []
    objective = assignment_objective(model, assignment)
    assert objective == evaluate(oracle_ch, cwp000, cwp000_patterns)[0]
    report(capfd, 4, True, "induced assignment feasible; objective equals evaluate bit for bit")


def test_criterion_5_maximal_patterns_lose_nothing(capfd):
    start = time.perf_counter()
    rng = random.Random(20260810)
    checked = 0
    for _ in range(20):
        inst = tiny_instance(rng)
        maximal = generate_patterns(inst, maximal_only=True)
        full = generate_patterns(inst, maximal_only=False)
        a = exhaustive_optimum(inst, maximal, max_freq=12, max_genes=8)
        b = exhaustive_optimum(inst, full, max_freq=12, max_genes=8)
        assert (a is None) == (b is None)
        if a is not None:
            exact = decode_schedule(a[0], inst, maximal).objective_cm
            assert exact == decode_schedule(b[0], inst, full).objective_cm, (
                f"maximal {a[1]} vs all-pattern {b[1]} on {inst}"
            )
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(capfd, 5, True, f"{checked} tiny instances, optima equal, {elapsed:.1f} s")


def _corrupt(genes, pats, rng):
    out = []
    for pid, freq in genes:
        roll = rng.random()
        if roll < 0.15:
            continue  # drop the gene
        if roll < 0.55:
            freq = max(1, freq + rng.randint(-4, 4))
        out.append((pid, freq))
    present = {pid for pid, _ in out}
    while rng.random() < 0.4:
        pid = rng.randint(1, pats.total)
        if pid in present:
            break
        present.add(pid)
        out.insert(rng.randrange(len(out) + 1), (pid, rng.randint(1, 6)))
    rng.shuffle(out)
    return out


def test_criterion_6_repair_suite(capfd):
    rng = random.Random(99)
    repaired_count = rejected = 0
    for spec_seed in range(5):
        inst = generate_instance(spec_seed, 1, 5)
        pats = generate_patterns(inst)
        base = None
        for _ in range(50):
            base = random_solution(inst, pats, rng)
            if base is not None:
                break
        assert base is not None
        for _ in range(1000):
            genes = _corrupt(base.genes, pats, rng)
            result = repair(Chromosome(genes), inst, pats)
            if result is None:
                rejected += 1
                continue
            repaired_count += 1
            assert classify_infeasibility(result, inst, pats).feasible
            again = repair(result, inst, pats)
            assert again is not None
            assert again.genes == result.genes  # idempotent
    assert repaired_count > 0
    report(capfd, 6, True, f"{repaired_count} repaired, {rejected} rejected, none left flagged")


def test_criterion_7_bound_dominance(capfd):
    from beamforge.errors import InfeasibleInstanceError

    params_proto = dict(
        population_size=6,
        generations=150,
        mutation_rate=0.05,
        restart_patience=160,
        crossover_kind=1,
        restart_elites=2,
    )
    deviations = []
    count = retried = 0
    for seed in range(50):
        for c, m in ((1, 5), (1, 15), (2, 5), (2, 15)):
            inst = generate_instance(1000 * seed + 10 * c + m, c, m)
            pats = generate_patterns(inst)
            breakdown = lower_bound(inst, pats)
            # The pseudo-random construction is a low-yield sampler on the
            # tighter two-type instances; escalate the pool deterministically.
            result = None
            for attempt, pool in enumerate((150, 800, 4000)):
                try:
                    result = run(
                        inst,
                        pats,
                        GaParams(
                            rng_seed=seed + 31 * attempt,
                            construction_pool=pool,
                            **params_proto,
                        ),
                    )
                    break
                except InfeasibleInstanceError:
                    retried += 1
            assert result is not None, f"no feasible start for seed={seed} C={c} M={m}"
            # Exact and weighted on both sides.
            assert result.schedule.objective_cm >= breakdown.total_cm
            deviations.append(lbd(result.fitness, breakdown.total))
            count += 1
    mean_lbd = sum(deviations) / len(deviations)
    assert count == 200
    report(
        capfd,
        7,
        True,
        f"200 instances, exact objective >= bound everywhere; mean LBD {mean_lbd:.4f}"
        f" ({retried} pool escalations)",
    )


def test_criterion_8_metrics(capfd):
    assert lbd(2.3, 2.2) == pytest.approx(0.045454545454545456, abs=1e-12)
    assert snr([2.0, 2.0]) == pytest.approx(-13.862943611198906, abs=1e-9)
    rng = random.Random(8)
    for _ in range(100):
        fits = [rng.uniform(0.5, 50) for _ in range(rng.randint(1, 9))]
        bumped = list(fits)
        bumped[rng.randrange(len(bumped))] += rng.uniform(0.01, 5)
        assert snr(bumped) < snr(fits)
    report(capfd, 8, True, "lbd and snr exact; snr strictly decreasing on 100 perturbations")


def test_criterion_9_determinism(capfd, tmp_path):
    from beamforge.cli import dispatch

    gen_outs = []
    for name in ("g1.json", "g2.json"):
        path = tmp_path / name
        assert dispatch(["gen", "--seed", "9", "--types", "2", "--molds", "15",
                         "--out", str(path)]) == 0
        gen_outs.append(path.read_bytes())
    assert gen_outs[0] == gen_outs[1]

    inst_path = tmp_path / "cwp000.json"
    inst_path.write_text(json.dumps(CWP000_DOC))
    solve_outs = []
    for name in ("s1.json", "s2.json"):
        path = tmp_path / name
        assert dispatch(["solve", "--instance", str(inst_path), "--seed", "4",
                         "--tp", "10", "--ng-mult", "60", "--as-mult", "20",
                         "--ter", "3", "--out", str(path)]) == 0
        solve_outs.append(path.read_bytes())
    assert solve_outs[0] == solve_outs[1]

    bench_dir = tmp_path / "instances"
    bench_dir.mkdir()
    mini = dict(CWP000_DOC)
    mini["T"] = 2
    mini["beam_types"] = [
        {"lengths": [1.12, 3.3], "demands": [2, 3], "curing": 1, "bars_per_beam": 1}
    ]
    (bench_dir / "mini.json").write_text(json.dumps(mini))
    bench_outs = []
    for name, jobs in (("b1.csv", "1"), ("b2.csv", "1"), ("b3.csv", "2")):
        out = tmp_path / name
        assert dispatch(["bench", "--instances", str(bench_dir), "--reps", "1",
                         "--seed", "6", "--out", str(out), "--jobs", jobs,
                         "--no-timing"]) == 0
        bench_outs.append((out.read_bytes(), (tmp_path / "trials.csv").read_bytes()))
    assert bench_outs[0] == bench_outs[1] == bench_outs[2]
    report(capfd, 9, True, "gen, solve and bench byte-identical across reruns and thread counts")


def test_criterion_10_model_counts_and_external_solve(capfd, cwp000, cwp000_patterns):
    model = build_model(cwp000, cwp000_patterns)
    assert len(model.x_keys) == 51
    assert len(model.z_keys) == 3
    assert len(cwp000_patterns.cutting) == 10
    assert len(cwp000_patterns.overlapping) == 12
    groups = {}
    for row in model.rows:
        groups[row.group] = groups.get(row.group, 0) + 1
    assert groups == {
        "mold_slot": 15,
        "demand": 2,
        "no_initial_hold": 5,
        "hold_link": 10,
        "period_active": 3,
        "continuity": 10,
        "leftover_stock": 4,
        "new_bar_stock": 1,
        "bar_balance": 2,
    }
    text = emit_lp(model)
    assert emit_lp(build_model(cwp000, cwp000_patterns)) == text

    detail = "x=51 z=3 y=10 o=12, 52 rows"
    try:
        solved = solve_milp(text)
    except ImportError:
        report(capfd, 10, True, detail + "; external solver unavailable, optional check skipped")
        return
    assert solved.success
    assert solved.fun == pytest.approx(2.3, abs=1e-6)
    report(capfd, 10, True, detail + f"; external optimum {solved.fun:.6f}")
