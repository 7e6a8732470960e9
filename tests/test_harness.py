import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamforge.harness import (
    DESIGN_ROWS,
    TrialDesign,
    _replication_seed,
    lbd,
    results_csv,
    run_trials,
    snr,
    trials_csv,
)
from beamforge.instance import parse_instance

from conftest import CWP000_DOC


def mini_instance():
    doc = dict(CWP000_DOC)
    doc["T"] = 2
    doc["beam_types"] = [
        {"lengths": [1.12, 3.3], "demands": [2, 3], "curing": 1, "bars_per_beam": 1}
    ]
    return parse_instance(json.dumps(doc))


class TestLbd:
    def test_reference_value(self):
        assert lbd(2.3, 2.2) == pytest.approx(0.045454545454545456, abs=1e-12)

    def test_edges(self):
        assert lbd(5.0, 5.0) == 0
        assert lbd(4.4, 2.2) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            lbd(1.0, 0.0)


class TestSnr:
    def test_values(self):
        assert snr([1.0]) == 0
        assert snr([2.0, 2.0]) == pytest.approx(-10 * math.log(4), abs=1e-9)
        assert snr([2.0, 2.0]) == pytest.approx(-13.8629436112, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            snr([])
        with pytest.raises(ValueError):
            snr([0.0])

    @settings(max_examples=100, deadline=None)
    @given(
        fits=st.lists(st.floats(min_value=0.1, max_value=100), min_size=1, max_size=8),
        index=st.integers(min_value=0, max_value=7),
        bump=st.floats(min_value=0.01, max_value=10),
    )
    def test_strictly_decreasing_in_every_fit(self, fits, index, bump):
        index %= len(fits)
        worse = list(fits)
        worse[index] += bump
        assert snr(worse) < snr(fits)


class TestDesign:
    def test_nine_rows_seven_factors(self):
        design = TrialDesign()
        assert len(design.rows) == 9
        assert all(len(row) == 7 for row in design.rows)
        assert design.rows == DESIGN_ROWS

    def test_level_resolution_first_trial(self):
        params = TrialDesign().params_for(1, num_packing=6, horizon=3, seed=42)
        assert params.population_size == 25
        assert params.generations == 500 * 6
        assert params.mutation_rate == 0.01
        assert params.restart_patience == math.ceil(0.2 * 3000)
        assert params.construction_pool == 500 * 6
        assert params.crossover_kind == 1
        assert params.restart_elites == math.ceil(0.1 * 3 * 6)
        assert params.rng_seed == 42

    def test_level_resolution_last_trial(self):
        params = TrialDesign().params_for(9, num_packing=6, horizon=3, seed=0)
        assert params.population_size == 50
        assert params.generations == 1000 * 6
        assert params.mutation_rate == 0.05
        assert params.crossover_kind == 2
        assert params.restart_elites == math.ceil(0.2 * 3 * 6)

    def test_elites_clamped_below_population(self):
        # Large horizons push the elite count past the population size.
        params = TrialDesign().params_for(1, num_packing=100, horizon=50, seed=0)
        assert params.restart_elites == params.population_size - 1


class TestReplicationSeeds:
    def test_no_collision(self):
        # A full design over a large batch: 9 trials x 200 instances x 200
        # replications, each cell with its own 64-bit seed.
        seeds = {
            _replication_seed(7, trial, index, rep)
            for trial in range(1, 10)
            for index in range(200)
            for rep in range(1, 201)
        }
        assert len(seeds) == 9 * 200 * 200
        assert all(0 <= s < 2**64 for s in seeds)

    def test_batch_seed_changes_every_cell(self):
        assert _replication_seed(1, 1, 0, 1) != _replication_seed(2, 1, 0, 1)
        assert _replication_seed(-1, 1, 0, 1) != _replication_seed(1, 1, 0, 1)


@pytest.fixture(scope="module")
def single_trial_results():
    design = TrialDesign(rows=(DESIGN_ROWS[0],))
    inst = mini_instance()
    return run_trials(design, [("mini", inst)], replications=2, seed=5), design, inst


class TestRunTrials:
    def test_bookkeeping(self, single_trial_results):
        results, _, _ = single_trial_results
        assert len(results) == 1
        trial = results[0]
        assert trial.trial == 1
        assert len(trial.replications) == 2
        assert trial.failures == 0
        assert [r.rep for r in trial.replications] == [1, 2]
        assert all(r.instance == "mini" for r in trial.replications)
        assert [r.seed for r in trial.replications] == [
            _replication_seed(5, 1, 0, rep) for rep in (1, 2)
        ]

    def test_aggregates_recomputable(self, single_trial_results):
        results, _, _ = single_trial_results
        trial = results[0]
        per_rep = [r.lbd for r in trial.replications]
        assert trial.lbd_mean == pytest.approx(sum(per_rep) / len(per_rep), abs=1e-15)
        assert trial.snr == pytest.approx(snr([r.fitness for r in trial.replications]))

    def test_every_fit_at_least_bound(self, single_trial_results):
        results, _, _ = single_trial_results
        assert all(r.lbd >= 0 for r in results[0].replications)

    def test_deterministic_apart_from_time(self, single_trial_results):
        results, design, inst = single_trial_results
        again = run_trials(design, [("mini", inst)], replications=2, seed=5)
        assert results_csv(again, include_time=False) == results_csv(
            results, include_time=False
        )
        assert trials_csv(again, include_time=False) == trials_csv(
            results, include_time=False
        )

    def test_csv_shape(self, single_trial_results):
        results, _, _ = single_trial_results
        lines = results_csv(results).splitlines()
        assert lines[0] == "trial,instance,rep,seed,fitness,makespan,lbd,time_s"
        assert len(lines) == 3
        agg = trials_csv(results).splitlines()
        assert agg[0] == "trial,lbd_mean,snr,avg_time_s"
        assert len(agg) == 2

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            run_trials(TrialDesign(), [], replications=1, seed=0)
        for replications in (0, -1):
            with pytest.raises(ValueError):
                run_trials(TrialDesign(), [("mini", mini_instance())], replications, seed=0)

    def test_failed_cells_flagged_and_excluded(self):
        from conftest import beam_type, make_instance

        # Demand needs five casts on one mold but the horizon holds four:
        # every replication on this instance must be flagged and left out
        # of the aggregates.  Each cast fits the horizon and the stock makes
        # enough bars, so the prechecks let the instance through.
        stuck = make_instance(
            beam_types=[beam_type([330], [5])],
            mold_lengths=[595],
            horizon=4,
            bar_lengths=(600,),
            num_bar_kinds=1,
            stock=(10,),
        )
        design = TrialDesign(rows=(DESIGN_ROWS[0],))
        results = run_trials(
            design, [("mini", mini_instance()), ("stuck", stuck)], replications=2, seed=1
        )
        trial = results[0]
        assert trial.failures == 2
        by_name = {}
        for r in trial.replications:
            by_name.setdefault(r.instance, []).append(r)
        assert all(r.failed and r.fitness is None for r in by_name["stuck"])
        assert all(not r.failed for r in by_name["mini"])
        assert len(trial.fitnesses) == 2  # aggregates over the healthy cells only
        rows = results_csv(results).splitlines()
        stuck_rows = [line for line in rows if line.startswith("1,stuck")]
        assert all(",,," in line for line in stuck_rows)
