import copy
import hashlib
import inspect
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamforge.cli import build_parser, dispatch, render_gantt
from beamforge.evaluation import Chromosome, decode_schedule
from beamforge.ga import GaParams
from beamforge.instance import generate_instance, serialize_instance

from conftest import CWP000_DOC, cwp000_optimal_genes, find_packing


@pytest.fixture()
def instance_file(tmp_path, cwp000_text):
    path = tmp_path / "cwp000.json"
    path.write_text(cwp000_text)
    return str(path)


# The mini instance: cwp000 with T=2 and demands [2, 3], so a solve is quick.
MINI_DOC = dict(
    CWP000_DOC,
    T=2,
    beam_types=[{"lengths": [1.12, 3.3], "demands": [2, 3], "curing": 1, "bars_per_beam": 1}],
)


@pytest.fixture()
def mini_dir(tmp_path):
    folder = tmp_path / "instances"
    folder.mkdir()
    (folder / "mini.json").write_text(json.dumps(MINI_DOC))
    return str(folder)


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        assert dispatch(["solve", "--instance", str(tmp_path / "missing.json")]) == 3

    @pytest.mark.parametrize(
        "change",
        [
            {"stock": [-1, 16, 28, 25, 29]},
            {"curing": "2"},
            {"curing": 1.5},
            {"curing": None},
            {"bars_per_beam": None},
            {"lambda": [None, 1, 1, 1]},
            {"lambda": [float("nan"), 1, 1, 1]},
            {"molds": [float("inf"), 5.95, 5.95, 5.95, 11.95]},
            {"molds": ["5.95", 5.95, 5.95, 5.95, 11.95]},
            {"epsilon": "0.3"},
        ],
        ids=["negative-stock", "curing-string", "curing-float", "curing-null",
             "bars-per-beam-null", "lambda-null", "lambda-nan", "mold-infinite",
             "mold-string", "epsilon-string"],
    )
    def test_bad_content_is_validation_error(self, tmp_path, capsys, change):
        path = tmp_path / "bad.json"
        doc = dict(CWP000_DOC)
        beam = dict(doc["beam_types"][0])
        for key, value in change.items():
            if key in beam:
                beam[key] = value
            else:
                doc[key] = value
        doc["beam_types"] = [beam]
        path.write_text(json.dumps(doc))
        assert dispatch(["bound", "--instance", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("beamforge: ") and err.count("\n") == 1

    def test_unsatisfiable_instance_is_code_two(self, tmp_path):
        doc = {
            "C": 1,
            "M": 1,
            "T": 1,
            "molds": [5.95],
            "beam_types": [
                {"lengths": [3.3], "demands": [1], "curing": 1, "bars_per_beam": 1}
            ],
            "bars": [5.0],
            "W": 1,
            "V": 0,
            "stock": [10],
            "epsilon": 0.3,
            "lambda": [1, 1, 1, 1],
        }
        path = tmp_path / "stuck.json"
        path.write_text(json.dumps(doc))
        assert dispatch(["bound", "--instance", str(path)]) == 2

    @pytest.mark.parametrize("command", ["bound", "solve"])
    def test_cast_longer_than_horizon_is_code_two(self, tmp_path, capsys, command):
        doc = dict(CWP000_DOC)
        doc["beam_types"] = [dict(doc["beam_types"][0], curing=4)]
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(doc))
        assert dispatch([command, "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "beamforge: beam type 1: curing 4 exceeds the horizon 3\n"

    @pytest.mark.parametrize("command", ["bound", "solve", "bench"])
    def test_length_longer_than_every_mold_is_code_two(self, tmp_path, capsys, command):
        doc = dict(CWP000_DOC)
        doc["beam_types"] = [dict(doc["beam_types"][0], lengths=[1.12, 13.0])]
        (tmp_path / "long.json").write_text(json.dumps(doc))
        if command == "bench":
            argv = ["bench", "--instances", str(tmp_path), "--reps", "1", "--seed", "1",
                    "--out", str(tmp_path / "res.csv"), "--trials", "4", "--no-timing"]
        else:
            argv = [command, "--instance", str(tmp_path / "long.json")]
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        named = "instance long: " if command == "bench" else ""
        assert err == f"beamforge: {named}beam type 1: length 13.0 m fits in no mold\n"

    @staticmethod
    def no_packing_pattern(tmp_path, demand):
        """cwp000 with one 12.5 m length, which fits in no mold."""
        doc = dict(CWP000_DOC)
        doc["beam_types"] = [dict(doc["beam_types"][0], lengths=[12.5], demands=[demand])]
        path = tmp_path / "unpackable.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_solve_without_packing_patterns_is_code_two(self, tmp_path, capsys):
        assert dispatch(["solve", "--instance", self.no_packing_pattern(tmp_path, 3)]) == 2
        err = capsys.readouterr().err
        assert err == "beamforge: beam type 1: length 12.5 m fits in no mold\n"

    def test_solve_without_packing_patterns_or_demand_plans_nothing(self, tmp_path):
        out = tmp_path / "plan.json"
        argv = ["solve", "--instance", self.no_packing_pattern(tmp_path, 0), "--out", str(out)]
        assert dispatch(argv) == 0
        doc = json.loads(out.read_text())
        assert (doc["genes"], doc["objective"]) == ([], 0.0)

    @pytest.mark.parametrize("command", ["bound", "solve"])
    def test_stock_shorter_than_the_demand_is_code_two(self, tmp_path, capsys, command):
        # 5 x 1.12 m + 10 x 3.3 m of beams need 38.6 m of bar; 3 new 12 m bars
        # and no leftovers hold 36 m.
        doc = dict(CWP000_DOC, stock=[3, 0, 0, 0, 0])
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        assert dispatch([command, "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "beamforge: stock holds 36.0 m of bar, the demand needs 38.6 m\n"

    @pytest.mark.parametrize("command", ["bound", "solve"])
    def test_stock_making_too_few_bars_is_code_two(self, tmp_path, capsys, command):
        # Two 3.3 m beams, one per 5.95 m cast, need two bars; one 6.6 m bar
        # is long enough but makes one.
        doc = {
            "C": 1, "M": 1, "T": 5, "molds": [5.95],
            "beam_types": [{"lengths": [3.3], "demands": [2], "curing": 1, "bars_per_beam": 1}],
            "bars": [6.6, 0.5], "W": 1, "V": 1, "stock": [1, 0],
            "epsilon": 0.3, "lambda": [1, 1, 1, 1],
        }
        path = tmp_path / "few.json"
        path.write_text(json.dumps(doc))
        assert dispatch([command, "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "beamforge: stock makes at most 1 mold-length bars, the demand needs 2\n"

    @pytest.mark.parametrize("command", ["bound", "solve", "bench"])
    @pytest.mark.parametrize(
        "doc, needs",
        # cwp000's casts fill 2 periods of its molds, generate_instance(7, 2, 15)'s 5.
        [(dict(CWP000_DOC, T=1), 2),
         (dict(json.loads(serialize_instance(generate_instance(7, 2, 15))), T=2), 5)],
        ids=["cwp000", "7-2-15"],
    )
    def test_horizon_shorter_than_the_mold_capacity_needs_is_code_two(
        self, tmp_path, capsys, monkeypatch, command, doc, needs
    ):
        def no_search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr("beamforge.ga.random_solution", no_search)
        (tmp_path / "tight.json").write_text(json.dumps(doc))
        if command == "bench":
            argv = ["bench", "--instances", str(tmp_path), "--reps", "1", "--seed", "1",
                    "--trials", "4", "--no-timing"]
        else:
            argv = [command, "--instance", str(tmp_path / "tight.json")]
        assert dispatch(argv) == 2
        named = "instance tight: " if command == "bench" else ""
        assert capsys.readouterr().err == (
            f"beamforge: {named}the demand needs at least {needs} periods of mold capacity, "
            f"the horizon is {doc['T']}\n"
        )

    @pytest.mark.parametrize("command", ["bound", "solve", "bench"])
    @pytest.mark.parametrize(
        "bars, stock, makes",
        # One 8.0 m length fits only the 11.95 m molds.  6 m bars make no
        # 11.95 m bar, the 12 m bars that would are out of stock, and one
        # 12 m bar makes one where the demand needs two.
        [([6.0], [50], "no bar for them"),
         ([12.0, 6.0], [0, 50], "no bar for them"),
         ([12.0, 6.0], [1, 50], "at most 1 bars for them, the demand needs 2")],
        ids=["no-producer", "no-stock", "one-new-bar"],
    )
    def test_mold_class_the_stock_cannot_supply_is_code_two(
        self, tmp_path, capsys, monkeypatch, command, bars, stock, makes
    ):
        def no_search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr("beamforge.ga.random_solution", no_search)
        doc = {
            "C": 1, "M": 2, "T": 4, "molds": [5.95, 11.95],
            "beam_types": [{"lengths": [8.0], "demands": [2], "curing": 1, "bars_per_beam": 1}],
            "bars": bars, "W": len(bars), "V": 0, "stock": stock,
            "epsilon": 0.3, "lambda": [1, 1, 1, 1],
        }
        (tmp_path / "long.json").write_text(json.dumps(doc))
        if command == "bench":
            argv = ["bench", "--instances", str(tmp_path), "--reps", "1", "--seed", "1",
                    "--trials", "4", "--no-timing"]
        else:
            argv = [command, "--instance", str(tmp_path / "long.json"), "--out",
                    str(tmp_path / "out.txt")]
        assert dispatch(argv) == 2
        named = "instance long: " if command == "bench" else ""
        assert capsys.readouterr().err == (
            f"beamforge: {named}beam type 1: length 8.0 m fits molds of 11.95 m, "
            f"and the stock makes {makes}\n"
        )
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("command", ["bound", "bench"])
    def test_instance_that_is_not_utf8_is_named(self, tmp_path, capsys, command):
        (tmp_path / "x.json").write_bytes(b"\xff\xfe")
        if command == "bench":
            argv = ["bench", "--instances", str(tmp_path), "--reps", "1", "--seed", "1"]
        else:
            argv = ["bound", "--instance", str(tmp_path / "x.json")]
        assert dispatch(argv) == 1
        named = "instance x: " if command == "bench" else ""
        assert capsys.readouterr().err == (
            f"beamforge: {named}not UTF-8: invalid start byte at byte 0\n"
        )

    @pytest.mark.parametrize(
        "change, code, message",
        [({"T": "x"}, 1, "key 'T' must be an integer"),
         ({"stock": [0] * 5}, 2, "stock holds 0.0 m of bar, the demand needs 38.6 m")],
        ids=["load", "no-stock"],
    )
    def test_bench_names_the_failing_instance(self, tmp_path, capsys, change, code, message):
        (tmp_path / "a.json").write_text(json.dumps(CWP000_DOC))
        (tmp_path / "b.json").write_text(json.dumps(dict(CWP000_DOC, **change)))
        argv = ["bench", "--instances", str(tmp_path), "--reps", "1", "--seed", "1"]
        assert dispatch(argv) == code
        assert capsys.readouterr().err == f"beamforge: instance b: {message}\n"

    @pytest.mark.parametrize(
        "flags",
        # 1e308 is finite, but not once multiplied by NG.
        [["--rst", "inf"], ["--rst", "nan"], ["--rst", "1e308"], ["--rst", "-0.5"],
         ["--ter", "-1"], ["--as-mult", "0"], ["--tp", "abc"], ["--crs", "3"], ["--nope"]],
        ids=["rst-inf", "rst-nan", "rst-overflow", "rst-negative", "ter-negative",
             "as-mult-zero", "tp-word", "crs-three", "unknown-flag"],
    )
    def test_bad_solver_flag_is_validation_error(self, instance_file, capsys, flags):
        assert dispatch(["solve", "--instance", instance_file, "--ng-mult", "1", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("beamforge: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [(["bound", "--instance", "x.json", "--nope"], "unrecognized arguments: --nope"),
         (["bound"], "the following arguments are required: --instance"),
         ([], "the following arguments are required: command")],
        ids=["unknown-flag", "missing-flag", "no-command"],
    )
    def test_malformed_command_line_is_validation_error(self, capsys, argv, message):
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == f"beamforge: {message}\n"

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exits_zero(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert dispatch(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: beamforge")
        if argv[0] == "solve":
            # The eight solver flags, in the order of `GaParams.scaled`'s keywords.
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == "b436ec023fa6743d2a21b6a18b1b332d019e937b6ea6cea1464c9c5e6f58b459"

    @pytest.mark.parametrize(
        "trials", ["", "4,4", "4,x", "x", "4,", "0"],
        ids=["empty", "repeated", "non-integer", "word", "trailing-comma", "out-of-range"],
    )
    def test_bad_trial_list_is_validation_error(self, mini_dir, tmp_path, capsys, trials):
        out = tmp_path / "res.csv"
        argv = ["bench", "--instances", mini_dir, "--reps", "1", "--seed", "2",
                "--out", str(out), "--trials", trials, "--no-timing"]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("beamforge: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, count, name",
        [("--types", "0", "beam type"), ("--types", "-1", "beam type"),
         ("--molds", "0", "mold"), ("--molds", "-1", "mold")],
        ids=["types-zero", "types-negative", "molds-zero", "molds-negative"],
    )
    def test_gen_count_below_one_is_validation_error(self, capsys, flag, count, name):
        counts = {"--types": "1", "--molds": "3", flag: count}
        argv = ["gen", "--seed", "1", *(arg for item in counts.items() for arg in item)]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"beamforge: {name} count must be at least 1, got {count}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("jobs", ["0", "-1"], ids=["jobs-zero", "jobs-negative"])
    def test_jobs_below_one_is_validation_error(self, mini_dir, tmp_path, capsys, jobs):
        out = tmp_path / "res.csv"
        argv = ["bench", "--instances", mini_dir, "--reps", "1", "--seed", "2",
                "--out", str(out), "--trials", "4", "--jobs", jobs, "--no-timing"]
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == f"beamforge: jobs must be >= 1, not {jobs}\n"
        assert not out.exists()

    def test_unwritable_trace_prints_nothing(self, instance_file, tmp_path, capsys):
        trace = tmp_path / "missing" / "trace.csv"
        argv = ["solve", "--instance", instance_file, "--ng-mult", "1", "--gantt",
                "--trace", str(trace)]
        assert dispatch(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("beamforge: ") and captured.err.count("\n") == 1

    def test_unwritable_out_fails_before_the_search(
        self, instance_file, tmp_path, capsys, monkeypatch
    ):
        def no_search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr("beamforge.cli.run", no_search)
        trace = tmp_path / "trace.csv"
        argv = ["solve", "--instance", instance_file, "--gantt", "--trace", str(trace),
                "--out", str(tmp_path / "missing" / "plan.json")]
        assert dispatch(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("beamforge: ") and captured.err.count("\n") == 1
        assert "plan.json" in captured.err
        assert not trace.exists()

    @pytest.mark.parametrize("command", ["emit-lp", "patterns", "bound"])
    def test_unwritable_out_fails_before_reading_the_instance(
        self, instance_file, tmp_path, capsys, monkeypatch, command
    ):
        def no_load(*args):
            raise AssertionError("the instance was read")

        monkeypatch.setattr("beamforge.cli.load_instance", no_load)
        out = tmp_path / "missing" / "out.txt"
        assert dispatch([command, "--instance", instance_file, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("beamforge: ") and captured.err.count("\n") == 1
        assert "out.txt" in captured.err
        assert not out.parent.exists()

    @pytest.mark.parametrize("spelling", ["plan.json", "./sub/../plan.json"])
    def test_trace_on_the_out_is_validation_error(
        self, instance_file, tmp_path, capsys, monkeypatch, spelling
    ):
        # The solution document would overwrite the trace.
        def no_search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr("beamforge.cli.run", no_search)
        (tmp_path / "sub").mkdir()
        trace = tmp_path / "plan.json"
        out = os.path.join(str(tmp_path), *spelling.split("/"))
        argv = ["solve", "--instance", instance_file, "--trace", str(trace), "--out", out]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("beamforge: ") and captured.err.count("\n") == 1
        assert "one file" in captured.err
        assert not trace.exists()

    @pytest.mark.parametrize("where", ["out", "aggregate"])
    def test_unwritable_bench_output_fails_before_any_trial(
        self, mini_dir, tmp_path, capsys, monkeypatch, where
    ):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("beamforge.harness.run_trials", no_trials)
        if where == "out":
            out = tmp_path / "missing" / "res.csv"
        else:
            out = tmp_path / "res.csv"
            (tmp_path / "trials.csv").mkdir()  # the aggregate's path is a folder
        argv = ["bench", "--instances", mini_dir, "--reps", "1", "--seed", "2",
                "--out", str(out), "--trials", "4", "--no-timing"]
        assert dispatch(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("beamforge: ") and err.count("\n") == 1
        assert not out.exists()

    def test_unknown_flag_rejected(self, instance_file, capsys):
        code = dispatch(["bound", "--instance", instance_file, "--nope"])
        capsys.readouterr()
        assert code != 0


ODD_VALUES = [None, "x", True, [], {}, -1, -0.5, 0, float("nan"), float("inf"), float("-inf")]


def _value_paths(node, path=()):
    """Key and index paths of every value below the document root."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _value_paths(value, path + (key,))


def _lookup(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def mutated_documents(draw):
    """The mini document after one to three edits: a key or list entry
    dropped, a value emptied, a value replaced by an odd one (wrong type,
    negative, zero or non-finite), or a number scaled by 0, 1/2 or 2."""
    doc = copy.deepcopy(MINI_DOC)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        action = draw(st.sampled_from(["drop", "empty", "replace", "scale", "scale"]))
        paths = list(_value_paths(doc))
        if action == "scale":
            paths = [p for p in paths if _is_number(_lookup(doc, p))]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        parent = _lookup(doc, path[:-1])
        if action == "drop":
            del parent[path[-1]]
        elif action == "empty":
            parent[path[-1]] = []
        elif action == "replace":
            parent[path[-1]] = draw(st.sampled_from(ODD_VALUES))
        else:
            value = parent[path[-1]]
            parent[path[-1]] = type(value)(value * draw(st.sampled_from([0, 0.5, 2])))
    return doc


def _flags(values: dict) -> list[str]:
    """Command-line flags from a {flag: value or None} draw, None left out."""
    return [part for flag, value in values.items() if value is not None for part in (flag, value)]


def _odd(*values):
    """A flag that is absent or one of the values, inf or nan."""
    return st.none() | st.sampled_from([*values, "inf", "nan"])


class TestExitCodeFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        doc=mutated_documents(),
        command=st.sampled_from(["bound", "solve", "patterns", "emit-lp", "bench"]),
    )
    def test_mutated_instance_gets_an_exit_code(self, doc, command):
        with tempfile.TemporaryDirectory() as folder:
            extra = {
                "solve": ["--ng-mult", "1"],
                "patterns": ["--out", f"{folder}/patterns.json"],
                "emit-lp": ["--out", f"{folder}/model.lp"],
                # Trial 4 is the design's cheapest row.
                "bench": ["--reps", "1", "--seed", "0", "--trials", "4", "--no-timing",
                          "--out", f"{folder}/results.csv"],
            }.get(command, [])
            path = f"{folder}/fuzz.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            where = ["--instances", folder] if command == "bench" else ["--instance", path]
            assert dispatch([command, *where, *extra]) in {0, 1, 2, 3}

    # NG is at most 2 r, so every solve is quick.
    @settings(max_examples=120, deadline=None)
    @example(flags={"--ng-mult": "1", "--rst": "inf"})
    @given(
        flags=st.fixed_dictionaries(
            {
                "--tp": _odd("-1", "0", "1", "2", "3"),
                "--ng-mult": st.sampled_from(["-1", "0", "1", "2", "inf", "nan"]),
                "--mut": _odd("-1", "0", "0.5", "1", "2"),
                "--rst": _odd("-1", "0", "0.5", "1", "2"),
                "--as-mult": _odd("-1", "0", "1", "2"),
                "--ter": _odd("-1", "0", "1", "2", "5"),
            }
        )
    )
    def test_solver_flags_get_an_exit_code(self, cwp000_text, flags):
        with tempfile.TemporaryDirectory() as folder:
            path = f"{folder}/cwp000.json"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(cwp000_text)
            argv = ["solve", "--instance", path, "--out", f"{folder}/plan.json", *_flags(flags)]
            assert dispatch(argv) in {0, 1, 2, 3}

    # At most two trial-4 cells and two worker processes per bench.
    @settings(max_examples=25, deadline=None)
    @given(
        flags=st.fixed_dictionaries(
            {
                "--reps": st.sampled_from(["-1", "0", "1", "2", "inf", "nan"]),
                "--trials": st.sampled_from(["4", "0", "10", "-1", "4,4", "4,", "x", "inf"]),
                "--jobs": st.sampled_from(["-1", "0", "1", "2"]),
            }
        )
    )
    def test_bench_flags_get_an_exit_code(self, cwp000_text, flags):
        with tempfile.TemporaryDirectory() as folder:
            with open(f"{folder}/cwp000.json", "w", encoding="utf-8") as fh:
                fh.write(cwp000_text)
            argv = ["bench", "--instances", folder, "--seed", "0", "--no-timing",
                    "--out", f"{folder}/results.csv", *_flags(flags)]
            assert dispatch(argv) in {0, 1, 2, 3}


# Run in a fresh interpreter: the modules the CLI loads for one command.
_COLD_START = """
import sys

def loaded(names):
    return sorted(n for n in names if n in sys.modules)

import beamforge.cli
from beamforge.cli import dispatch

unused = ["beamforge.harness", "beamforge.ilp", "concurrent.futures", "multiprocessing"]
assert not loaded(unused), ("import", loaded(unused))
instance, instances, folder = sys.argv[1:]
assert dispatch(["solve", "--instance", instance, "--ng-mult", "1",
                 "--out", folder + "/plan.json"]) == 0
assert not loaded(unused), ("solve", loaded(unused))
assert dispatch(["bench", "--instances", instances, "--reps", "1", "--seed", "2",
                 "--trials", "4", "--jobs", "1", "--no-timing",
                 "--out", folder + "/res.csv"]) == 0
pool = ["concurrent.futures.process", "multiprocessing"]
assert not loaded(pool), ("bench", loaded(pool))
"""


class TestColdStart:
    def test_commands_load_only_what_they_run(self, instance_file, mini_dir, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_START, instance_file, mini_dir, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestBound:
    def test_reference_line(self, instance_file, capsys):
        assert dispatch(["bound", "--instance", instance_file]) == 0
        out = capsys.readouterr().out
        assert out == '{"makespan_lb":2,"waste_lb":0.2,"total":2.2}\n'


class TestGen:
    def test_deterministic_files(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert dispatch(["gen", "--seed", "7", "--types", "1", "--molds", "5", "--out", a]) == 0
        assert dispatch(["gen", "--seed", "7", "--types", "1", "--molds", "5", "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_generated_instance_loads(self, tmp_path, capsys):
        out = str(tmp_path / "g.json")
        assert dispatch(["gen", "--seed", "1", "--types", "2", "--molds", "15", "--out", out]) == 0
        assert dispatch(["patterns", "--instance", out]) == 0
        capsys.readouterr()


class TestPatterns:
    def test_document_shape(self, instance_file, capsys):
        assert dispatch(["patterns", "--instance", instance_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["packing"]) == 6
        assert len(doc["cutting"]) == 10
        assert len(doc["overlapping"]) == 12
        first = doc["packing"][0]
        assert first == {
            "id": 1,
            "beam_type": 1,
            "counts": [5, 0],
            "mold_class": 1,
            "used_capacity": 5.6,
            "duration": 1,
        }
        assert {"id", "source_bar", "item_counts", "leftover_counts", "waste"} == set(
            doc["cutting"][0]
        )
        assert {"id", "produced_class", "leftover_counts", "waste"} == set(
            doc["overlapping"][0]
        )


class TestEmitLp:
    def test_writes_model(self, instance_file, tmp_path):
        out = str(tmp_path / "model.lp")
        assert dispatch(["emit-lp", "--instance", instance_file, "--out", out]) == 0
        text = open(out).read()
        assert text.startswith("Minimize")
        assert text.rstrip().endswith("End")
        assert dispatch(["emit-lp", "--instance", instance_file, "--out", out]) == 0
        assert open(out).read() == text

    def test_failed_model_leaves_no_file(self, instance_file, tmp_path, monkeypatch):
        def no_model(*args):
            raise ValueError("no model")

        monkeypatch.setattr("beamforge.ilp.build_model", no_model)
        out = tmp_path / "model.lp"
        assert dispatch(["emit-lp", "--instance", instance_file, "--out", str(out)]) == 1
        assert not out.exists()

    def test_stdout_and_out_bytes_match_the_pin(self, tmp_path):
        # The smallest model-lp instance; test_ilp pins the same text.
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(generate_instance(23, 2, 15)))
        out = tmp_path / "model.lp"
        assert dispatch(["emit-lp", "--instance", str(path), "--out", str(out)]) == 0
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "beamforge", "emit-lp", "--instance", str(path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out.read_bytes()
        digest = hashlib.sha256(proc.stdout).hexdigest()
        assert digest == "6798cacc03b77348c49fa2f8b7638b3a15cf076b363aff9290b1ee2325715911"


class TestGantt:
    def test_reference_rendering(self, cwp000, cwp000_patterns):
        genes = [
            (find_packing(cwp000_patterns, 1, (2, 1)).id, 4),
            (find_packing(cwp000_patterns, 1, (1, 3)).id, 2),
        ]
        schedule = decode_schedule(Chromosome(genes), cwp000, cwp000_patterns)
        text = render_gantt(schedule, cwp000_patterns, cwp000.horizon)
        assert text == "2..\n2..\n2..\n2..\n66.\n"

    def test_multi_period_round_trip(self, cwp000, cwp000_patterns):
        ch = Chromosome(cwp000_optimal_genes(cwp000_patterns))
        schedule = decode_schedule(ch, cwp000, cwp000_patterns)
        lines = render_gantt(schedule, cwp000_patterns, cwp000.horizon).splitlines()
        assert len(lines) == 5
        assert all(len(line) == 3 for line in lines)

    def test_curing_fills_every_occupied_period(self):
        from beamforge.patterns import generate_patterns

        from conftest import beam_type, make_instance

        inst = make_instance(
            beam_types=[beam_type([330], [2], curing=2, bars=0)],
            mold_lengths=[595],
            horizon=5,
        )
        pats = generate_patterns(inst)
        schedule = decode_schedule(Chromosome([(1, 2)]), inst, pats)
        assert render_gantt(schedule, pats, inst.horizon) == "1111.\n"


class TestSolve:
    light = ["--tp", "8", "--ng-mult", "30", "--as-mult", "15", "--ter", "2", "--rst", "0.5"]

    def test_solution_document(self, instance_file, tmp_path, capsys):
        out = str(tmp_path / "solution.json")
        trace = str(tmp_path / "trace.csv")
        code = dispatch(
            ["solve", "--instance", instance_file, "--seed", "3", "--out", out, "--gantt",
             "--trace", trace, *self.light]
        )
        assert code == 0
        doc = json.loads(open(out).read())
        assert set(doc) == {"genes", "makespan", "objective", "breakdown", "gantt"}
        assert doc["makespan"] >= 2
        assert len(doc["breakdown"]) == 4
        assert len(doc["gantt"]) == 5
        gantt_text = capsys.readouterr().out
        assert len(gantt_text.splitlines()) == 5
        trace_lines = open(trace).read().splitlines()
        assert trace_lines[0] == "generation,best_fitness,mean_fitness"
        assert len(trace_lines) == 1 + 30 * 6

    def test_defaults_are_the_tuned_configuration(self):
        scaled = inspect.signature(GaParams.scaled).parameters
        tuned = {name: p.default for name, p in scaled.items() if p.default is not p.empty}
        assert set(tuned) == {"seed", "tp", "ng_mult", "mut", "rst", "as_mult", "crs", "ter"}
        args = build_parser().parse_args(["solve", "--instance", "plan.json"])
        assert {name: getattr(args, name) for name in tuned} == tuned

    def test_byte_identical_reruns(self, instance_file, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        base = ["solve", "--instance", instance_file, "--seed", "11", *self.light]
        assert dispatch([*base, "--out", a]) == 0
        assert dispatch([*base, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    @pytest.mark.parametrize(
        "crs, digest",
        [
            ("1", "58ba94c75cf9654e86dfab6503e52fb7fbac2a94e265afab66b3ef4ac3c3bda5"),
            ("2", "8c2d22c119424dcd7060a61cd3c114acb79708e2c4f96449a920f456d1cf5c3d"),
        ],
        ids=["1", "2"],
    )
    def test_pinned_output_bytes(self, tmp_path, capsys, crs, digest):
        # Fixed-seed output of both crossovers; a change that alters the
        # search, repair or evaluation arithmetic changes these digests.
        out = self.solve_stdout(
            tmp_path, capsys, (7, 1, 5), "--ng-mult", "60", "--as-mult", "20", "--crs", crs
        )
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_pinned_multi_class_bytes(self, tmp_path, capsys):
        # Two mold classes (11 and 4 molds) with curing 1 and 2: construction
        # places casts on more than one class.
        out = self.solve_stdout(tmp_path, capsys, (7, 2, 15), "--ng-mult", "2", "--as-mult", "3")
        digest = "a2f1725715767f22c77355543997cb51d311fc0541ae88132fe2c249e543df43"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_restart_that_draws_nothing(self, tmp_path):
        # With no elites and one draw per packing pattern, a restart on this
        # instance draws no feasible plan: the solve keeps its population.
        path, out = str(tmp_path / "g.json"), str(tmp_path / "plan.json")
        assert dispatch(["gen", "--seed", "7", "--types", "1", "--molds", "5", "--out", path]) == 0
        argv = ["solve", "--instance", path, "--ter", "0", "--rst", "0", "--ng-mult", "1",
                "--as-mult", "1", "--seed", "1", "--out", out]
        assert dispatch(argv) == 0
        assert json.loads(open(out).read())["genes"]

    @staticmethod
    def solve_stdout(tmp_path, capsys, generated, *flags):
        path = tmp_path / "generated.json"
        path.write_text(serialize_instance(generate_instance(*generated)))
        assert dispatch(["solve", "--instance", str(path), "--seed", "3", *flags]) == 0
        return capsys.readouterr().out


class TestBench:
    def test_subset_deterministic_and_jobs_invariant(self, mini_dir, tmp_path):
        outs = []
        for name, jobs in (("r1.csv", "1"), ("r2.csv", "1"), ("r3.csv", "2")):
            out = str(tmp_path / name)
            code = dispatch(
                ["bench", "--instances", mini_dir, "--reps", "2", "--seed", "5",
                 "--out", out, "--trials", "1,5", "--jobs", jobs, "--no-timing"]
            )
            assert code == 0
            outs.append((open(out, "rb").read(), open(tmp_path / "trials.csv", "rb").read()))
        assert outs[0] == outs[1] == outs[2]

    def test_trial_labels_preserved(self, mini_dir, tmp_path, capsys):
        out = str(tmp_path / "res.csv")
        assert dispatch(
            ["bench", "--instances", mini_dir, "--reps", "1", "--seed", "2",
             "--out", out, "--trials", "7", "--no-timing"]
        ) == 0
        lines = open(out).read().splitlines()
        assert lines[1].startswith("7,mini,1,")

    def test_repeated_trial_rejected(self, mini_dir, tmp_path, capsys):
        out = tmp_path / "res.csv"
        assert dispatch(
            ["bench", "--instances", mini_dir, "--reps", "1", "--seed", "2",
             "--out", str(out), "--trials", "4,4", "--no-timing"]
        ) == 1
        assert "repeat" in capsys.readouterr().err
        assert not out.exists()

    def test_no_replication_is_validation_error(self, mini_dir, tmp_path, capsys):
        out = tmp_path / "res.csv"
        assert dispatch(
            ["bench", "--instances", mini_dir, "--reps", "0", "--seed", "2",
             "--out", str(out), "--trials", "4", "--no-timing"]
        ) == 1
        assert capsys.readouterr().err == "beamforge: replications must be >= 1, not 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["trials.csv", "./sub/../trials.csv"])
    def test_out_on_the_aggregate_is_validation_error(
        self, mini_dir, tmp_path, capsys, monkeypatch, spelling
    ):
        # The aggregate goes to trials.csv beside --out, so this --out would
        # lose the per-replication table.
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("beamforge.harness.run_trials", no_trials)
        (tmp_path / "sub").mkdir()
        out = os.path.join(str(tmp_path), *spelling.split("/"))
        argv = ["bench", "--instances", mini_dir, "--reps", "1", "--seed", "2",
                "--out", out, "--trials", "4", "--no-timing"]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("beamforge: ") and err.count("\n") == 1
        assert "aggregate" in err
        assert not (tmp_path / "trials.csv").exists()

    @pytest.mark.parametrize(
        "change",
        [{"beam_types": [dict(MINI_DOC["beam_types"][0], demands=[0, 0])]},
         {"lambda": [0, 0, 0, 0]}],
        ids=["nothing-demanded", "zero-lambda"],
    )
    def test_zero_lower_bound_is_validation_error(self, tmp_path, capsys, change):
        # LBD divides by the lower bound, so a valid instance whose bound is
        # 0 cannot be benchmarked.
        folder = tmp_path / "instances"
        folder.mkdir()
        (folder / "x.json").write_text(json.dumps(dict(MINI_DOC, **change)))
        out = tmp_path / "res.csv"
        assert dispatch(
            ["bench", "--instances", str(folder), "--reps", "1", "--seed", "1",
             "--out", str(out), "--trials", "4", "--no-timing"]
        ) == 1
        assert capsys.readouterr().err == "beamforge: instance x: lower bound must be positive\n"
        assert not out.exists()

    def test_empty_dir_is_code_two(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert dispatch(["bench", "--instances", str(empty), "--reps", "1", "--seed", "1"]) == 2
