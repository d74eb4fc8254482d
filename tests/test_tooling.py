"""Guards read from source without running it: the benchmark harness under
perfbench/, and which bioinv module lays out and reads model columns."""

import ast
import importlib
import inspect
import os

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


def _tracing_targets():
    with open(TRACING) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_trace_targets_exist():
    # a traced benchmark run wraps each (module, function) pair of TARGETS
    targets = _tracing_targets()
    assert targets
    for module, name in targets:
        fn = getattr(importlib.import_module(f"bioinv.{module}"), name, None)
        assert callable(fn), f"bioinv.{module}.{name}"


def _policy_attrs_unpacked():
    # the names tracing's _policy_attrs unpacks from _solve_policy's positional args
    with open(TRACING) as fh:
        tree = ast.parse(fh.read())
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name == "_policy_attrs":
            for node in ast.walk(fn):
                if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
                        and node.value.id == "args"):
                    return [t.id for t in node.targets[0].elts]
    raise AssertionError("perfbench/tracing.py unpacks no _solve_policy args")


def test_solve_policy_takes_the_arguments_tracing_unpacks():
    from bioinv import simulate
    params = list(inspect.signature(simulate._solve_policy).parameters.values())
    assert [p.name for p in params] == _policy_attrs_unpacked() == [
        "plan_inst", "policy", "means"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params)


def test_order_stream_goes_through_the_module_global(monkeypatch):
    # a traced run wraps simulate.fulfill_order_stream: one span per simulated day
    from bioinv import simulate
    from bioinv.reference import reference_sim_setup
    calls = []
    real = simulate.fulfill_order_stream
    monkeypatch.setattr(simulate, "fulfill_order_stream",
                        lambda *args: calls.append(1) or real(*args))
    inst, means = reference_sim_setup()
    simulate.run_rolling_horizon(inst, simulate.PolicySpec("basestock"), means,
                                 weeks=3, replications=2, seed=0)
    assert len(calls) == 2 * 3 * simulate.DAYS_PER_WEEK


def test_tuning_scores_go_through_the_module_global(monkeypatch):
    # a traced run counts tuning.score_allocation calls; golden-section
    # search scores one new lambda per step, about 48 in all, plus the holdout
    from bioinv import tuning
    from bioinv.reference import (example_walkin_instance, example_walkin_means,
                                  example_walkin_uncertainty)
    from bioinv.uncertainty import sample_scenarios
    calls = []
    real = tuning.score_allocation
    monkeypatch.setattr(tuning, "score_allocation",
                        lambda *args: calls.append(1) or real(*args))
    tuning.tune_lambda(example_walkin_instance(0.0, 160.0), example_walkin_uncertainty(),
                       sample_scenarios(example_walkin_means(), 40, 1), method="bisection")
    assert 0 < len(calls) <= 50


def test_bisection_tune_builds_one_fulfillment_model_per_split(monkeypatch):
    # every score of the validation split shares one model, and so does the
    # holdout's; a model per score made 49 or more.  The CCG solves skip
    # their worst-case rescore, which builds a model of its own
    from bioinv import formulations, tuning
    from bioinv.ccg import CcgOptions
    from bioinv.reference import (example_walkin_instance, example_walkin_means,
                                  example_walkin_uncertainty)
    from bioinv.uncertainty import sample_scenarios
    builds, scores = [], []
    build, score = formulations.build_fulfillment_model, tuning.score_allocation
    monkeypatch.setattr(formulations, "build_fulfillment_model",
                        lambda *args: builds.append(1) or build(*args))
    monkeypatch.setattr(tuning, "score_allocation",
                        lambda *args: scores.append(1) or score(*args))
    tuning.tune_lambda(example_walkin_instance(0.0, 160.0), example_walkin_uncertainty(),
                       sample_scenarios(example_walkin_means(), 40, 1), method="bisection",
                       options=CcgOptions(rescore_worst_case=False))
    assert len(builds) <= 2
    assert 0 < len(scores) <= 50


def test_tunes_solve_no_rescore_mip(monkeypatch):
    # nothing of a tune reads the worst-case rescore, so each CCG solve makes
    # one subproblem MIP per iteration and none after its loop; with the
    # rescore on, lam = 1 and every grid point would solve one more
    from bioinv import ccg, tuning
    from bioinv.reference import (example_walkin_instance, example_walkin_means,
                                  example_walkin_uncertainty)
    from bioinv.uncertainty import sample_scenarios
    mips, real = [], ccg.solve
    monkeypatch.setattr(ccg, "solve", lambda model, *args, **kwargs: (
        mips.append(1) if "binary" in model.kind else None) or real(model, *args, **kwargs))
    for method in ("bisection", "grid"):
        mips.clear()
        res = tuning.tune_lambda(example_walkin_instance(0.0, 160.0),
                                 example_walkin_uncertainty(),
                                 sample_scenarios(example_walkin_means(), 40, 1), method=method)
        assert len(res.reports) == (2 if method == "bisection" else 5)
        assert len(mips) == sum(rep.iterations for rep in res.reports.values()), method
        assert all(rep.worst_case_profit is None and rep.rescore_error is None
                   for rep in res.reports.values())


def _source_tree(module):
    path = os.path.join(os.path.dirname(__file__), "..", "src", "bioinv", f"{module}.py")
    with open(path) as fh:
        return ast.parse(fh.read())


def test_formulations_adds_columns_only_through_its_block_helper():
    # every block of columns, the scalar eta included, is laid out by
    # formulations._columns in row-major order; a per-cell add_var loop
    # elsewhere would take column order out of that one helper
    callers = set()
    for fn in ast.walk(_source_tree("formulations")):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "add_var"):
                    callers.add(fn.name)
    assert callers == {"_columns"}


def test_ccg_reads_no_model_columns():
    # only formulations knows where a model keeps its columns: ccg gets
    # allocations, scenarios, incumbents and demand costs from it; the one
    # `.info` in ccg is its logger's
    reads = [node.lineno for node in ast.walk(_source_tree("ccg"))
             if isinstance(node, ast.Attribute) and node.attr == "info"
             and not (isinstance(node.value, ast.Name) and node.value.id == "_log")]
    assert reads == []
