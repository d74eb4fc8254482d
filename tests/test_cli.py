import argparse
import csv
import inspect
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from bioinv.ccg import CcgOptions
from bioinv.cli import _ccg_options, build_parser, main
from bioinv.formulations import Allocation, BioConfig, evaluate_profits
from bioinv.instance import build_instance, load_instance, save_instance
from bioinv.reference import synthetic_instance
from bioinv.simulate import PolicySpec
from bioinv.tuning import ScoringObjective, tune_lambda
from bioinv.uncertainty import load_scenarios, quantile_bounds_from_means, sample_scenarios

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def run_cli(args):
    return main(args)


class TestValidate:
    def test_shipped_example_is_clean(self, capsys):
        rc = run_cli(["validate", os.path.join(DATA, "example_walkin_p0_b160.json")])
        assert rc == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_violating_instance_nonzero_exit(self, tmp_path, capsys):
        path = os.path.join(DATA, "example_walkin_p0_b160.json")
        doc = json.load(open(path))
        doc["econ"]["holding"] = [-1.0, 0.0, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = run_cli(["validate", str(bad)])
        assert rc == 1
        assert "nonnegativity" in capsys.readouterr().out


    @pytest.mark.parametrize("fixture,section,field,value", [
        ("example_walkin_p0_b160.json", "econ", "holding", "x"),
        ("reference_sim_instance.json", "business_rules", "fulfill_capacity",
         [[1.0, 2.0], [3.0]]),
    ])
    def test_unreadable_array_names_its_field(self, tmp_path, capsys, fixture, section, field,
                                              value):
        doc = json.load(open(os.path.join(DATA, fixture)))
        doc.setdefault(section, {})[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["validate", str(bad)]) == 1
        name = field if section == "econ" else f"{section}.{field}"
        assert capsys.readouterr().err.startswith(
            f"error: InstanceError: {name}: expected numbers (")

    @pytest.mark.parametrize("section,field,value,name", [
        ("econ", "holding", [0.0, None, 0.0], "holding"),
        ("inventory", "pipeline", [["x"], [0.0], [0.0]], "inventory.pipeline[M]"),
    ], ids=["null-holding", "text-pipeline"])
    def test_null_or_text_entry_names_its_field(self, tmp_path, capsys, section, field, value,
                                                name):
        doc = json.load(open(os.path.join(DATA, "example_walkin_p0_b160.json")))
        doc[section][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["validate", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: InstanceError: {name}: expected numbers (")


class TestSolve:
    def test_pure_ro_example_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = run_cli(["solve", os.path.join(DATA, "example_walkin_p0_b160.json"),
                      "--means", os.path.join(DATA, "example_walkin_means.json"),
                      "--lambda", "0", "--integer", "--out", str(out)])
        assert rc == 0
        assert "-360" in capsys.readouterr().out
        report = json.load(open(out / "solve_report.json"))
        assert report["objective"] == pytest.approx(-360.0, abs=1e-6)
        assert report["termination"] == "converged"
        manifest = json.load(open(out / "run_manifest.json"))
        assert manifest["command"] == "solve"
        assert (out / "bound_trace.csv").exists()

    def test_violating_instance_refused_without_allow_violations(self, tmp_path, capsys):
        doc = json.load(open(os.path.join(DATA, "example_walkin_p0_b160.json")))
        doc["econ"]["holding"] = [-1.0, 0.0, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "run"
        rc = run_cli(["solve", str(bad), "--means", os.path.join(DATA, "example_walkin_means.json"),
                      "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "nonnegativity" in err and "--allow-violations" in err
        assert not out.exists()

    def test_no_silent_overwrite(self, tmp_path, capsys):
        out = tmp_path / "run"
        args = ["solve", os.path.join(DATA, "example_walkin_p0_b160.json"),
                "--means", os.path.join(DATA, "example_walkin_means.json"),
                "--out", str(out)]
        assert run_cli(args) == 0
        assert run_cli(args) == 2  # refuses without --force
        assert "force" in capsys.readouterr().err
        assert run_cli(args + ["--force"]) == 0

    def test_out_dir_from_the_environment(self, tmp_path, monkeypatch):
        env, out = tmp_path / "env", tmp_path / "out"
        monkeypatch.setenv("BIOINV_OUT_DIR", str(env))
        monkeypatch.chdir(tmp_path)
        args = ["solve", os.path.join(DATA, "example_walkin_p0_b160.json"),
                "--means", os.path.join(DATA, "example_walkin_means.json")]
        files = ["bound_trace.csv", "run_manifest.json", "solve_report.json"]
        assert run_cli(args) == 0
        assert sorted(os.listdir(env)) == files
        assert run_cli(args + ["--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == files
        assert sorted(os.listdir(tmp_path)) == ["env", "out"]

    def test_manifest_records_the_argv_main_parsed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["host.py", "host-arg-1", "host-arg-2"])
        argv = ["solve", os.path.join(DATA, "example_walkin_p0_b160.json"),
                "--means", os.path.join(DATA, "example_walkin_means.json"),
                "--out", str(tmp_path / "run"), "--force"]
        assert run_cli(argv) == 0
        assert json.load(open(tmp_path / "run" / "run_manifest.json"))["argv"] == argv


class TestGenInstance:
    def test_deterministic_generation(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            rc = run_cli(["gen-instance", "--stores", "5", "--dcs", "2",
                          "--zones", "3", "--seed", "7", "--out-file", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generated_instance_validates(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        rc = run_cli(["gen-instance", "--stores", "3", "--dcs", "1", "--zones", "2",
                      "--seed", "3", "--out-file", str(path),
                      "--means-out", str(tmp_path / "m.json")])
        assert rc == 0
        assert run_cli(["validate", str(path)]) == 0


class TestSampleAndEvaluate:
    def test_uniform_sample_stays_in_the_quantile_set(self, tmp_path):
        # the walk-in example's 5%/95% set is the box [0,3] per location with
        # budget [1,6]; a uniform draw lands on its integer points
        means = os.path.join(DATA, "example_walkin_means.json")
        scen = tmp_path / "scen.json"
        assert run_cli(["sample", "--means", means, "--samples", "50", "--seed", "2",
                        "--family", "uniform", "--out-file", str(scen)]) == 0
        scenarios, meta = load_scenarios(str(scen))
        assert meta["family"] == "uniform" and len(scenarios) == 50
        walkin = np.array([s.walkin for s in scenarios])
        assert walkin.min() >= 0 and walkin.max() <= 3
        assert np.all(walkin == np.round(walkin))
        assert np.all((walkin.sum(axis=-1) >= 1) & (walkin.sum(axis=-1) <= 6))
        assert len({s.key() for s in scenarios}) > 1

    def test_sample_then_evaluate(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        rc = run_cli(["sample", "--means", os.path.join(DATA, "example_walkin_means.json"),
                      "--samples", "200", "--seed", "11", "--out-file", str(scen)])
        assert rc == 0
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"x": [[3.0, 3.0, 3.0]]}))
        out = tmp_path / "eval"
        rc = run_cli(["evaluate", os.path.join(DATA, "example_walkin_p0_b160.json"),
                      "--allocation", str(alloc), "--scenarios", str(scen),
                      "--out", str(out)])
        assert rc == 0
        stats = json.load(open(out / "evaluation.json"))
        assert stats["max"] == pytest.approx(-360.0)
        assert stats["count"] == 200
        profits = (out / "profits.csv").read_text().strip().splitlines()
        assert len(profits) == 201
        assert profits[0] == "scenario,profit"
        values = [float(row.split(",")[1]) for row in profits[1:]]
        assert max(values) == pytest.approx(-360.0)

    def test_solve_report_feeds_evaluate(self, tmp_path):
        walk = os.path.join(DATA, "example_walkin_p0_b160.json")
        assert run_cli(["solve", walk, "--means", os.path.join(DATA, "example_walkin_means.json"),
                        "--lambda", "0.5", "--out", str(tmp_path / "run")]) == 0
        scen = tmp_path / "scen.json"
        assert run_cli(["sample", "--means", os.path.join(DATA, "example_walkin_means.json"),
                        "--samples", "30", "--seed", "3", "--out-file", str(scen)]) == 0
        report = tmp_path / "run" / "solve_report.json"
        plain = tmp_path / "alloc.json"
        plain.write_text(json.dumps(json.load(open(report))["allocation"]))
        for name, alloc in (("from_report", report), ("plain", plain)):
            assert run_cli(["evaluate", walk, "--allocation", str(alloc), "--scenarios",
                            str(scen), "--out", str(tmp_path / name)]) == 0
        for name in ("evaluation.json", "profits.csv"):
            assert ((tmp_path / "from_report" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes())


    def test_repositioning_allocation_roundtrips_through_report(self, tmp_path):
        inst = build_instance(
            ["A", "B"], ["Z1"], 2, walkin_price=100.0, walkin_penalty=10.0,
            online_price=80.0, online_penalty=5.0, fulfill_cost=[[5.0], [8.0]],
            purchase_cost=[40.0, 45.0], holding=1.0, lead_time=[0, 1], pipeline=[[8.0], [0.0, 1.0]],
            reposition_cost=[[0.0, 1.0], [1.0, 0.0]], reposition_lead=[[0, 0], [1, 0]])
        path, means = tmp_path / "inst.json", tmp_path / "means.json"
        save_instance(inst, str(path))
        means.write_text(json.dumps({"walkin": [[1.0, 4.0], [1.0, 4.0]], "online": [[2.0], [2.0]]}))
        assert run_cli(["solve", str(path), "--means", str(means), "--lambda", "0.3",
                        "--allied", "both", "--repositioning", "--out", str(tmp_path / "run")]) == 0
        report = tmp_path / "run" / "solve_report.json"
        doc = json.load(open(report))["allocation"]
        assert list(doc) == ["x", "x_repo", "s_plus", "y_plus"]
        assert np.array(doc["x_repo"]).shape == (2, 2, 2) and np.any(np.array(doc["x_repo"]) > 0)
        assert np.array(doc["y_plus"]).shape == (2, 2, 1)
        scen = tmp_path / "scen.json"
        assert run_cli(["sample", "--means", str(means), "--samples", "20", "--seed", "4",
                        "--out-file", str(scen)]) == 0
        assert run_cli(["evaluate", str(path), "--allocation", str(report), "--scenarios",
                        str(scen), "--out", str(tmp_path / "ev")]) == 0
        rows = (tmp_path / "ev" / "profits.csv").read_text().strip().splitlines()[1:]
        profits = [float(row.split(",")[1]) for row in rows]
        alloc = Allocation(**{k: np.array(v) for k, v in doc.items()})
        scenarios, _meta = load_scenarios(str(scen))
        assert profits == evaluate_profits(load_instance(str(path)), alloc, scenarios).tolist()
        # the flows are read: the same orders without them score otherwise
        assert profits != evaluate_profits(inst, Allocation(alloc.x), scenarios).tolist()


class TestOverwrite:
    def test_gen_instance_and_sample_refuse_without_force(self, tmp_path, capsys):
        inst, means, scen = tmp_path / "i.json", tmp_path / "m.json", tmp_path / "s.json"
        gen = ["gen-instance", "--stores", "2", "--zones", "1", "--seed", "1"]
        sample = ["sample", "--means", str(means), "--samples", "5", "--out-file", str(scen)]
        assert run_cli(gen + ["--out-file", str(inst), "--means-out", str(means)]) == 0
        assert run_cli(sample) == 0
        for path, args in ((inst, gen + ["--out-file", str(inst)]),
                           (means, gen + ["--out-file", str(tmp_path / "other.json"),
                                          "--means-out", str(means)]),
                           (scen, sample)):
            written = path.read_bytes()
            path.write_text("kept")
            assert run_cli(args) == 2
            assert f"{path} exists; pass --force to overwrite" in capsys.readouterr().err
            assert path.read_text() == "kept"
            assert run_cli(args + ["--force"]) == 0
            assert path.read_bytes() == written

    @pytest.mark.parametrize("stale", ["solve_report.json", "bound_trace.csv",
                                       "run_manifest.json"])
    def test_refused_run_writes_nothing(self, tmp_path, capsys, stale):
        out = tmp_path / "run"
        out.mkdir()
        (out / stale).write_text("")
        assert run_cli(["solve", os.path.join(DATA, "example_walkin_p0_b160.json"),
                        "--means", os.path.join(DATA, "example_walkin_means.json"),
                        "--out", str(out)]) == 2
        assert f"{out / stale} exists; pass --force" in capsys.readouterr().err
        assert os.listdir(out) == [stale] and (out / stale).read_text() == ""

    @pytest.mark.parametrize("target", ["solve_report.json", "bound_trace.csv",
                                        "run_manifest.json"])
    def test_directory_target_refuses_the_run_even_with_force(self, tmp_path, capsys, target):
        out = tmp_path / "run"
        (out / target).mkdir(parents=True)
        assert run_cli(["solve", os.path.join(DATA, "example_walkin_p0_b160.json"),
                        "--means", os.path.join(DATA, "example_walkin_means.json"),
                        "--out", str(out), "--force"]) == 2
        assert f"error: {out / target} is a directory" in capsys.readouterr().err
        assert os.listdir(out) == [target] and os.listdir(out / target) == []

    def test_out_that_is_a_file_refuses_the_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("kept")
        assert run_cli(["solve", os.path.join(DATA, "example_walkin_p0_b160.json"),
                        "--means", os.path.join(DATA, "example_walkin_means.json"),
                        "--out", str(out), "--force"]) == 2
        assert f"error: {out} is not a directory" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run"] and out.read_text() == "kept"

    def test_refused_gen_instance_writes_nothing(self, tmp_path, capsys):
        inst, means = tmp_path / "i.json", tmp_path / "m.json"
        means.write_text("kept")
        assert run_cli(["gen-instance", "--stores", "2", "--out-file", str(inst),
                        "--means-out", str(means)]) == 2
        assert f"{means} exists; pass --force" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["m.json"] and means.read_text() == "kept"


class TestFileFields:
    def test_unknown_and_missing_fields_raise_typed_errors(self, tmp_path, capsys):
        walk = os.path.join(DATA, "example_walkin_p0_b160.json")
        scen = tmp_path / "scen.json"
        assert run_cli(["sample", "--means", os.path.join(DATA, "example_walkin_means.json"),
                        "--samples", "3", "--out-file", str(scen)]) == 0
        capsys.readouterr()
        alloc, means = tmp_path / "alloc.json", tmp_path / "means.json"
        evaluate = ["evaluate", walk, "--allocation", str(alloc), "--scenarios", str(scen),
                    "--out", str(tmp_path / "ev")]
        sample = ["sample", "--means", str(means), "--out-file", str(tmp_path / "s2.json")]
        for path, doc, argv, rc, message in (
                (alloc, {"x": [[1.0, 1.0, 1.0]], "z": 1}, evaluate, 1,
                 f"FormulationError: {alloc}: unknown fields ['z']"),
                (alloc, {"allocation": {"x_repo": []}}, evaluate, 1,
                 f"FormulationError: {alloc}: missing fields ['x']"),
                (means, {"walkin": [[1.0]], "offline": [[1.0]]}, sample, 2,
                 f"{means}: unknown fields ['offline']"),
                (means, {"online": [[1.0]]}, sample, 2, f"{means}: missing fields ['walkin']")):
            path.write_text(json.dumps(doc))
            assert run_cli(argv) == rc
            assert message in capsys.readouterr().err

    def test_uncertainty_set_file(self, tmp_path, capsys):
        walk = os.path.join(DATA, "example_walkin_p0_b160.json")
        uset = {"local_lower": {"b": [[0, 0, 0]], "o": [[]]},
                "local_upper": {"b": [[4, 4, 4]], "o": [[]]},
                "budget_lower": {"b": [0], "o": [0]}, "budget_upper": {"b": [12], "o": [0]}}
        path = tmp_path / "u.json"
        path.write_text(json.dumps(uset))
        assert run_cli(["solve", walk, "--uncertainty", str(path), "--out",
                        str(tmp_path / "run")]) == 0
        path.write_text(json.dumps({**uset, "budget": 3}))
        assert run_cli(["solve", walk, "--uncertainty", str(path), "--out",
                        str(tmp_path / "run2")]) == 1
        assert f"UncertaintyError: {path}: unknown fields ['budget']" in capsys.readouterr().err

    def test_malformed_json_names_its_file(self, tmp_path, capsys):
        walk = os.path.join(DATA, "example_walkin_p0_b160.json")
        means = os.path.join(DATA, "example_walkin_means.json")
        scen = tmp_path / "scen.json"
        assert run_cli(["sample", "--means", means, "--samples", "3",
                        "--out-file", str(scen)]) == 0
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"x": [[1.0, 1.0, 1.0]]}))
        bad = tmp_path / "bad.json"
        bad.write_text('{"walkin": [[1.0]],\n "online": }')
        capsys.readouterr()
        for argv, rc, error in (
                (["sample", "--means", str(bad), "--out-file", str(tmp_path / "s.json")], 2, ""),
                (["evaluate", walk, "--allocation", str(alloc), "--scenarios", str(bad),
                  "--out", str(tmp_path / "ev1")], 1, "UncertaintyError: "),
                (["solve", walk, "--uncertainty", str(bad), "--out", str(tmp_path / "run")],
                 1, "UncertaintyError: "),
                (["evaluate", walk, "--allocation", str(bad), "--scenarios", str(scen),
                  "--out", str(tmp_path / "ev2")], 1, "FormulationError: ")):
            assert run_cli(argv) == rc
            assert (f"error: {error}{bad}: parse error at line 2: Expecting value"
                    in capsys.readouterr().err), argv

    @pytest.mark.parametrize("command", ["evaluate", "solve", "sample"])
    def test_null_demand_names_its_file_and_record(self, tmp_path, capsys, command):
        walk = os.path.join(DATA, "example_walkin_p0_b160.json")
        means = json.load(open(os.path.join(DATA, "example_walkin_means.json")))
        scen, alloc = tmp_path / "scen.json", tmp_path / "alloc.json"
        scen.write_text(json.dumps({"seed": 0, "family": "poisson", "scenarios": [
            {"walkin": [[1.0, 1.0, 1.0]], "online": [[]]},
            {"walkin": [[1.0, None, 1.0]], "online": [[]]}]}))
        alloc.write_text(json.dumps({"x": [[1.0, 1.0, 1.0]]}))
        means["walkin"][0][1] = None
        bad = tmp_path / "means.json"
        bad.write_text(json.dumps(means))
        out = tmp_path / "out"
        argv, where = {
            "evaluate": (["evaluate", walk, "--allocation", str(alloc), "--scenarios", str(scen),
                          "--out", str(out)], f"{scen}: scenarios[1]: demands"),
            "solve": (["solve", walk, "--means", str(bad), "--out", str(out)], f"{bad}: means"),
            "sample": (["sample", "--means", str(bad), "--out-file", str(out)], f"{bad}: means"),
        }[command]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == (
            f"error: UncertaintyError: {where} must be nonnegative numbers, not NaN\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "sample"])
    def test_text_demand_names_its_file_record_and_field(self, tmp_path, capsys, command):
        walk = os.path.join(DATA, "example_walkin_p0_b160.json")
        scen, alloc, bad = tmp_path / "scen.json", tmp_path / "alloc.json", tmp_path / "means.json"
        scen.write_text(json.dumps({"scenarios": [
            {"walkin": [[1.0, 1.0, 1.0]], "online": [[]]},
            {"walkin": [[1.0, 1.0, 1.0]], "online": [[1.0, "x"]]}]}))
        alloc.write_text(json.dumps({"x": [[1.0, 1.0, 1.0]]}))
        bad.write_text(json.dumps({"walkin": [[1.0, "x", 1.0]], "online": [[]]}))
        out = tmp_path / "out"
        argv, where = {
            "evaluate": (["evaluate", walk, "--allocation", str(alloc), "--scenarios", str(scen),
                          "--out", str(out)], f"{scen}: scenarios[1]: online"),
            "sample": (["sample", "--means", str(bad), "--out-file", str(out)],
                       f"{bad}: walkin"),
        }[command]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == (
            f"error: UncertaintyError: {where}: expected numbers "
            "(could not convert string to float: 'x')\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "tune"])
    def test_wrong_width_scenario_names_its_file_and_index(self, tmp_path, capsys,
                                                           monkeypatch, command):
        # the batch is checked as the file is read: tune fails before its
        # two CCG solves, not on the first score after them
        from bioinv import tuning

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_two_stage called")
        monkeypatch.setattr(tuning, "solve_two_stage", no_solve)
        walk = os.path.join(DATA, "example_walkin_p0_b160.json")
        scen, alloc = tmp_path / "scen.json", tmp_path / "alloc.json"
        scen.write_text(json.dumps({"scenarios": [
            {"walkin": [[1.0, 1.0]], "online": [[]]},
            {"walkin": [[1.0, 1.0, 1.0]], "online": [[]]}]}))
        alloc.write_text(json.dumps({"x": [[1.0, 1.0, 1.0]]}))
        out = tmp_path / "out"
        argv = {"evaluate": ["evaluate", walk, "--allocation", str(alloc)],
                "tune": ["tune", walk, "--means", os.path.join(DATA, "example_walkin_means.json"),
                         "--method", "bisection"]}[command]
        assert run_cli(argv + ["--scenarios", str(scen), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: FormulationError: {scen}: scenarios[0]: scenario dims (1, 2)/(1, 0) "
            "do not match instance (1,3)/(1,0)\n")
        assert not out.exists()


# (dest, default, type, choices, nargs, required) of each subcommand's options,
# keyed by flag (a positional by its dest)
_INSTANCE = {"instance": ("instance", None, None, None, None, True)}
_FORCE = {"--force": ("force", False, None, None, 0, False)}
_OUT = {"--out": ("out", None, None, None, None, False), **_FORCE}
_OUT_FILE = {"--out-file": ("out_file", None, None, None, None, True), **_FORCE}
_QUANTILES = {"--lower-q": ("lower_q", 0.05, float, None, None, False),
              "--upper-q": ("upper_q", 0.95, float, None, None, False)}
_SAMPLES = {"--samples": ("samples", 1000, int, None, None, False),
            "--family": ("family", "poisson", None, ["poisson", "uniform"], None, False)}
_SEED = {"--seed": ("seed", 0, int, None, None, False)}
_INTEGER = {"--integer": ("integer", False, None, None, 0, False)}
_MODES = ["exact_mip", "alternating_heuristic"]
_CCG = {"--epsilon": ("epsilon", 1e-4, float, None, None, False),
        "--max-iterations": ("max_iterations", 20, int, None, None, False),
        "--max-seconds": ("max_seconds", 300.0, float, None, None, False),
        "--subproblem-mode": ("subproblem_mode", "exact_mip", None, _MODES, None, False)}
_SETS = {"--uncertainty": ("uncertainty", None, None, None, None, False),
         "--means": ("means", None, None, None, None, False)}
PARSER_PIN = {
    "validate": _INSTANCE,
    "solve": {**_INSTANCE, **_SETS, **_QUANTILES, **_INTEGER, **_OUT, **_CCG,
              "--lambda": ("lam", 0.0, float, None, None, False),
              "--allied": ("allied", "walkin", None, ["walkin", "both"], None, False),
              "--repositioning": ("repositioning", False, None, None, 0, False),
              "--allow-violations": ("allow_violations", False, None, None, 0, False)},
    "evaluate": {**_INSTANCE, **_OUT,
                 "--allocation": ("allocation", None, None, None, None, True),
                 "--scenarios": ("scenarios", None, None, None, None, True)},
    "tune": {**_INSTANCE, **_SETS, **_SAMPLES, **_QUANTILES, **_INTEGER, **_SEED, **_OUT,
             **_CCG,
             "--scenarios": ("scenarios", None, None, None, None, False),
             "--method": ("method", "grid", None, ["grid", "bisection"], None, False),
             "--grid": ("grid", None, None, None, None, False),
             "--objective": ("objective", "mean", None,
                             ["mean", "worst_case", "best_case", "cvar"], None, False),
             "--cvar-level": ("cvar_level", 0.05, float, None, None, False)},
    "simulate": {**_INSTANCE, **_SEED, **_OUT,
                 "--means": ("means", None, None, None, None, True),
                 "--policy": ("policy", ["basestock"], None, None, "+", False),
                 "--weeks": ("weeks", 3, int, None, None, False),
                 "--replications": ("replications", 30, int, None, None, False),
                 "--max-iterations": ("max_iterations", 12, int, None, None, False),
                 "--subproblem-mode": ("subproblem_mode", "alternating_heuristic", None,
                                       _MODES, None, False)},
    "gen-instance": {**_SEED, **_OUT_FILE,
                     "--stores": ("stores", None, int, None, None, True),
                     "--dcs": ("dcs", 0, int, None, None, False),
                     "--zones": ("zones", 0, int, None, None, False),
                     "--horizon": ("horizon", 2, int, None, None, False),
                     "--weeks": ("weeks", None, int, None, None, False),
                     "--lead-time": ("lead_time", 1, int, None, None, False),
                     "--mean-range": ("mean_range", [0.5, 3.0], float, None, 2, False),
                     "--cost-range": ("cost_range", [0.35, 0.55], float, None, 2, False),
                     "--means-out": ("means_out", None, None, None, None, False)},
    "sample": {**_SAMPLES, **_QUANTILES, **_SEED, **_OUT_FILE,
               "--means": ("means", None, None, None, None, True)},
}


class TestParser:
    def test_every_option_is_pinned(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {command: {(a.option_strings or [a.dest])[0]:
                             (a.dest, a.default, a.type, a.choices, a.nargs, a.required)
                             for a in p._actions
                             if not isinstance(a, argparse._HelpAction)}
                   for command, p in sub.choices.items()}
        assert options == PARSER_PIN

    def test_defaults_the_library_holds_are_the_library_defaults(self):
        parser = build_parser()
        cfg, objective = BioConfig(), ScoringObjective()
        solve = parser.parse_args(["solve", "inst.json"])
        assert (solve.lam, solve.allied, solve.integer, solve.repositioning) == (
            cfg.lam, cfg.allied_channels, cfg.integer_allocations, cfg.repositioning)
        tune = parser.parse_args(["tune", "inst.json"])
        assert (tune.objective, tune.cvar_level, tune.integer) == (
            objective.kind, objective.level, cfg.integer_allocations)
        assert tune.method == inspect.signature(tune_lambda).parameters["method"].default
        sample = parser.parse_args(["sample", "--means", "m.json", "--out-file", "s.json"])
        family = inspect.signature(sample_scenarios).parameters["family"].default
        assert tune.family == sample.family == family
        gen = parser.parse_args(["gen-instance", "--stores", "2", "--out-file", "g.json"])
        params = inspect.signature(synthetic_instance).parameters.values()
        defaults = {p.name: p.default for p in params if p.default is not p.empty}
        assert {name: getattr(gen, name) for name in defaults} == {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in defaults.items()}

    def test_ccg_flag_defaults_are_the_option_defaults(self):
        parser = build_parser()
        for command in ("solve", "tune"):
            assert _ccg_options(parser.parse_args([command, "inst.json"])) == CcgOptions()
        # `simulate` plans each week with the library's PolicySpec defaults
        args = parser.parse_args(["simulate", "inst.json", "--means", "means.json"])
        plan = PolicySpec("bio").ccg
        assert (args.max_iterations, args.subproblem_mode) == (
            plan.max_iterations, plan.subproblem_mode)

    def test_quantile_flag_defaults_are_the_library_defaults(self):
        params = inspect.signature(quantile_bounds_from_means).parameters
        expected = (params["lower_q"].default, params["upper_q"].default)
        parser = build_parser()
        for argv in (["solve", "inst.json"], ["tune", "inst.json"],
                     ["sample", "--means", "m.json", "--out-file", "s.json"]):
            args = parser.parse_args(argv)
            assert (args.lower_q, args.upper_q) == expected

    def test_main_builds_the_parser_once(self, monkeypatch):
        argv = ["validate", os.path.join(DATA, "example_walkin_p0_b160.json")]
        assert run_cli(argv) == 0  # builds the parser, unless an earlier call did
        built, init = [], argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(self) or init(self, *a, **k))
        for _ in range(3):
            assert run_cli(argv) == 0
        assert built == []

    def test_an_option_of_one_call_does_not_reach_the_next(self, tmp_path):
        solve = ["solve", os.path.join(DATA, "example_walkin_p80_b80.json"),
                 "--means", os.path.join(DATA, "example_walkin_means.json")]
        assert run_cli(solve + ["--lambda", "0.5", "--out", str(tmp_path / "a")]) == 0
        assert run_cli(solve + ["--out", str(tmp_path / "b")]) == 0
        assert [json.load(open(tmp_path / run / "run_manifest.json"))["config"]["lam"]
                for run in "ab"] == [0.5, BioConfig().lam]

    def test_simulate_leaves_the_policy_default(self, tmp_path):
        simulate = ["simulate", os.path.join(DATA, "reference_sim_instance.json"),
                    "--means", os.path.join(DATA, "reference_sim_means.json"),
                    "--weeks", "3", "--replications", "1"]
        for run, policy in (("a", []), ("b", ["--policy", "pwl", "basestock"])):
            assert run_cli(simulate + policy + ["--out", str(tmp_path / run)]) == 0
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert [a.default for a in sub.choices["simulate"]._actions
                if a.dest == "policy"] == [["basestock"]]
        assert list(json.load(open(tmp_path / "a" / "kpi_summary.json"))) == ["basestock"]

    def test_verbose_call_leaves_no_handler_or_level(self, tmp_path, capsys):
        log = logging.getLogger("bioinv")
        log.setLevel(logging.WARNING)
        try:
            assert run_cli(["-vv", "validate", str(tmp_path / "missing.json")]) == 1
            assert (log.handlers, log.level) == ([], logging.WARNING)
            capsys.readouterr()
            assert run_cli(["validate", os.path.join(DATA, "example_walkin_p0_b160.json")]) == 0
            assert capsys.readouterr().err == ""
        finally:
            log.setLevel(logging.NOTSET)


class TestHorizonCheck:
    @pytest.mark.parametrize("command", ["solve", "tune"])
    def test_means_of_another_horizon_rejected(self, tmp_path, capsys, command):
        # the reference instance plans 2 periods; its simulation means have 3 rows
        rc = run_cli([command, os.path.join(DATA, "reference_sim_instance.json"),
                      "--means", os.path.join(DATA, "reference_sim_means.json"),
                      "--subproblem-mode", "alternating_heuristic",
                      "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "demand horizon 3" in err and "instance horizon 2" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["solve", "tune"])
    @pytest.mark.parametrize("walkin,online,message", [
        ([[1.0] * 4], [[]], "walk-in demand has 4 columns, but the instance has 3 nodes"),
        ([[1.0] * 2], [[]], "walk-in demand has 2 columns, but the instance has 3 nodes"),
        ([[1.0] * 3], [[1.0]], "online demand has 1 columns, but the instance has 0 zones"),
    ], ids=["4-walkin", "2-walkin", "1-online"])
    def test_means_of_another_width_rejected(self, tmp_path, capsys, command,
                                             walkin, online, message):
        means = tmp_path / "means.json"
        means.write_text(json.dumps({"walkin": walkin, "online": online}))
        rc = run_cli([command, os.path.join(DATA, "example_walkin_p0_b160.json"),
                      "--means", str(means), "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{means}: {message}" in err
        assert not (tmp_path / "run").exists()

    def test_removed_flags_rejected(self, tmp_path):
        instance = os.path.join(DATA, "example_walkin_p0_b160.json")
        means = os.path.join(DATA, "example_walkin_means.json")
        out = ["--out", str(tmp_path / "run")]
        for argv in (["solve", instance, "--means", means, "--mip-node-limit", "5"],
                     ["solve", instance, "--means", means, "--subproblem-mode", "ah_then_mip"],
                     ["solve", instance, "--means", means, "--delta", "1e-5"],
                     ["tune", instance, "--means", means, "--delta", "1e-5"],
                     ["simulate", os.path.join(DATA, "reference_sim_instance.json"),
                      "--means", os.path.join(DATA, "reference_sim_means.json"),
                      "--lambda", "0.1"]):
            with pytest.raises(SystemExit):
                run_cli(argv + out)


class TestTune:
    def test_tune_on_a_scenario_file_equals_tune_on_its_draws(self, tmp_path):
        # --scenarios reads the draws that --samples/--seed would make
        walk = os.path.join(DATA, "example_walkin_p0_b160.json")
        means = os.path.join(DATA, "example_walkin_means.json")
        scen = tmp_path / "scen.json"
        assert run_cli(["sample", "--means", means, "--samples", "40", "--seed", "5",
                        "--out-file", str(scen)]) == 0
        tune = ["tune", walk, "--means", means, "--grid", "0.0,0.5"]
        assert run_cli(tune + ["--scenarios", str(scen), "--out", str(tmp_path / "file")]) == 0
        assert run_cli(tune + ["--samples", "40", "--seed", "5",
                               "--out", str(tmp_path / "drawn")]) == 0
        for name in ("tune_report.json", "lambda_curve.csv"):
            assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "drawn" / name).read_bytes()

    def test_grid_tune_writes_curve(self, tmp_path):
        out = tmp_path / "tune"
        rc = run_cli(["tune", os.path.join(DATA, "example_walkin_p0_b160.json"),
                      "--means", os.path.join(DATA, "example_walkin_means.json"),
                      "--samples", "60", "--seed", "5", "--grid", "0.0,0.5",
                      "--out", str(out)])
        assert rc == 0
        report = json.load(open(out / "tune_report.json"))
        assert report["lambda"] in (0.0, 0.5)
        curve = (out / "lambda_curve.csv").read_text().strip().splitlines()
        assert len(curve) == 3


class TestSimulate:
    def test_simulate_reference(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = run_cli(["simulate", os.path.join(DATA, "reference_sim_instance.json"),
                      "--means", os.path.join(DATA, "reference_sim_means.json"),
                      "--policy", "basestock", "--weeks", "3",
                      "--replications", "2", "--seed", "9", "--out", str(out)])
        assert rc == 0
        ledger = (out / "kpi_ledger.csv").read_text()
        assert ledger.startswith("policy,replication,replenish_qty")
        summary = json.load(open(out / "kpi_summary.json"))
        assert "basestock" in summary
        assert "realized_profit" in summary["basestock"]

    def test_unreadable_bio_policy_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = run_cli(["simulate", os.path.join(DATA, "reference_sim_instance.json"),
                      "--means", os.path.join(DATA, "reference_sim_means.json"),
                      "--policy", "basestock", "biox", "--out", str(out)])
        assert rc == 2
        assert "'biox'" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_bio_policy(self, tmp_path, monkeypatch):
        # bio10 reads as lambda 0.1, and the CCG flags reach solve_two_stage
        from bioinv import simulate
        from bioinv.ccg import CcgError
        args = ["simulate", os.path.join(DATA, "reference_sim_instance.json"),
                "--means", os.path.join(DATA, "reference_sim_means.json"),
                "--policy", "bio10", "--weeks", "3", "--replications", "1", "--seed", "7"]

        def ledger(out):
            rows = list(csv.reader(open(out / "kpi_ledger.csv")))
            assert [r[:2] for r in rows[1:]] == [["bio10", "0"], ["bio10", "aggregate"]]
            return dict(zip(rows[0], rows[1]))

        assert run_cli(args + ["--out", str(tmp_path / "run")]) == 0
        row = ledger(tmp_path / "run")
        assert row["solver_failures"] == "0" and float(row["replenish_qty"]) > 0
        seen = []

        def recording(inst, uset, cfg, options=None, fixed_x=None):
            seen.append((cfg.lam, options.max_iterations, options.subproblem_mode))
            raise CcgError("recorded")

        monkeypatch.setattr(simulate, "solve_two_stage", recording)
        assert run_cli(args + ["--max-iterations", "3", "--subproblem-mode", "exact_mip",
                               "--out", str(tmp_path / "recorded")]) == 0
        assert seen and set(seen) == {(0.1, 3, "exact_mip")}
        assert ledger(tmp_path / "recorded")["solver_failures"] == str(len(seen))


class TestLogging:
    def test_silent_by_default_and_one_line_per_ccg_iteration(self, tmp_path, capsys):
        out = tmp_path / "run"
        args = ["solve", os.path.join(DATA, "example_walkin_p80_b80.json"),
                "--means", os.path.join(DATA, "example_walkin_means.json"),
                "--lambda", "0.5", "--out", str(out), "--force"]
        assert run_cli(args) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""

        def outputs(argv):  # the manifest's argv is the call's own, and differs only there
            manifest = json.load(open(out / "run_manifest.json"))
            assert manifest["argv"] == argv
            return (out / "bound_trace.csv").read_bytes(), list({**manifest, "argv": 0}.items())
        files = outputs(args)
        iterations = json.load(open(out / "solve_report.json"))["iterations"]
        assert iterations > 1
        for _ in range(2):  # a second call in the process does not stack handlers
            assert run_cli(["-v"] + args) == 0
            loud = capsys.readouterr()
            assert loud.out == quiet.out
            lines = loud.err.splitlines()
            assert len(lines) == iterations
            assert all(line.startswith("bioinv.ccg INFO: ccg iteration") for line in lines)
            assert files == outputs(["-v"] + args)
        log = logging.getLogger("bioinv")
        assert log.handlers == [] and log.level == logging.NOTSET
        assert run_cli(["-vv"] + args) == 0
        lines = capsys.readouterr().err.splitlines()
        assert sum("ccg iteration" in line for line in lines) == iterations
        assert any(line.startswith("bioinv.solver DEBUG: solve subproblem: optimal")
                   for line in lines)

    def test_one_line_per_simulated_week(self, tmp_path, capsys):
        assert run_cli(["-v", "simulate", os.path.join(DATA, "reference_sim_instance.json"),
                        "--means", os.path.join(DATA, "reference_sim_means.json"),
                        "--policy", "basestock", "pwl", "--weeks", "3",
                        "--replications", "2", "--out", str(tmp_path / "sim")]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 * 2 * 3
        assert all(line.startswith("bioinv.simulate INFO: simulate ") for line in lines)


class TestEntrypoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bioinv.cli", "validate",
             os.path.join(DATA, "example_walkin_p0_b160.json")],
            capture_output=True, text=True)
        assert proc.returncode == 0
