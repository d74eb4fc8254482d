import json
import os
from dataclasses import replace

import numpy as np
import pytest
from itertools import product

from bioinv import ccg
from bioinv.ccg import (
    ALTERNATING,
    CcgOptions,
    alternating_heuristic_subproblem,
    minimize_linear_over_cell,
    seed_scenario,
    solve_two_stage,
    upper_seed_scenario,
)
from bioinv.formulations import (
    Allocation,
    BioConfig,
    FormulationError,
    build_subproblem,
    evaluate_profit,
    incumbent_from_scenario,
    set_fixed_scenario,
    stage_one_value,
)
from bioinv.instance import build_instance, load_instance
from bioinv.reference import (example_walkin_instance, example_walkin_uncertainty,
                              synthetic_instance)
from bioinv.solver import solve
from bioinv.uncertainty import (DemandMeans, DemandScenario, UncertaintySet,
                                quantile_bounds_from_means)

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def walkin_set(lo, hi, bl, bu):
    return UncertaintySet(
        local_lower={"b": np.array([lo], dtype=float), "o": np.zeros((1, 0))},
        local_upper={"b": np.array([hi], dtype=float), "o": np.zeros((1, 0))},
        budget_lower={"b": np.array([bl], dtype=float), "o": np.zeros(1)},
        budget_upper={"b": np.array([bu], dtype=float), "o": np.zeros(1)},
    )


class TestAlgorithmOnExamples:
    def test_pure_ro_walkin_example(self):
        inst = example_walkin_instance(0.0, 160.0)
        uset = example_walkin_uncertainty()
        rep = solve_two_stage(inst, uset, BioConfig(lam=0.0), CcgOptions())
        assert rep.termination == "converged"
        assert rep.objective == pytest.approx(-360.0, abs=1e-6)
        assert rep.worst_case_profit == pytest.approx(-360.0, abs=1e-6)

    def test_bio50_integer_example(self):
        inst = example_walkin_instance(0.0, 160.0)
        uset = example_walkin_uncertainty()
        rep = solve_two_stage(inst, uset,
                              BioConfig(lam=0.5, integer_allocations=True),
                              CcgOptions())
        assert rep.termination == "converged"
        assert rep.objective == pytest.approx(-240.0, abs=1e-6)
        assert sorted(rep.allocation.x[0]) == pytest.approx([2.0, 2.0, 2.0])
        assert rep.worst_case_profit == pytest.approx(-560.0, abs=1e-6)

    def test_empty_demand_set(self):
        inst = example_walkin_instance(0.0, 160.0)
        uset = walkin_set([0, 0, 0], [0, 0, 0], 0, 0)
        rep = solve_two_stage(inst, uset, BioConfig(lam=0.0), CcgOptions())
        assert rep.termination == "converged"
        assert rep.iterations <= 2
        assert rep.objective == pytest.approx(0.0, abs=1e-9)
        assert rep.allocation.x.sum() == pytest.approx(0.0, abs=1e-9)


class TestBounds:
    def test_bound_traces_monotone_and_sandwich(self):
        inst = example_walkin_instance(80.0, 80.0)
        uset = example_walkin_uncertainty()
        rep = solve_two_stage(inst, uset, BioConfig(lam=0.25), CcgOptions())
        lbs, ubs = rep.lower_bounds, rep.upper_bounds
        assert all(a <= b + 1e-9 for a, b in zip(lbs, lbs[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(ubs, ubs[1:]))
        assert lbs[-1] <= ubs[-1] + 1e-9
        gap = (ubs[-1] - lbs[-1]) / (abs(lbs[-1]) + 1e-5)
        assert gap <= 1e-4

    def test_returned_allocation_rescans_to_lb(self):
        inst = example_walkin_instance(0.0, 160.0)
        uset = example_walkin_uncertainty()
        cfg = BioConfig(lam=0.5)
        rep = solve_two_stage(inst, uset, cfg, CcgOptions())
        sp = build_subproblem(inst, uset, rep.allocation, 0.5)
        val = solve(sp).objective
        stage1 = stage_one_value(inst, cfg, rep.allocation, rep.d_plus)
        assert val + stage1 == pytest.approx(rep.objective, abs=1e-6)
        assert rep.d_o_plus is None and "d_o_plus" not in rep.to_dict()

    def test_allied_both_report_rescores(self):
        # the report keeps the optimistic online demand next to the walk-in one
        inst, means = synthetic_instance(2, 0, 1, seed=1, horizon=1)
        uset = quantile_bounds_from_means(means)
        cfg = BioConfig(lam=0.3, allied_channels="both")
        rep = solve_two_stage(inst, uset, cfg, CcgOptions())
        assert rep.termination == "converged" and rep.allocation.y_plus is not None
        assert rep.d_o_plus.shape == (1, 1)
        assert rep.to_dict()["d_o_plus"] == rep.d_o_plus.tolist()
        sp = build_subproblem(inst, uset, rep.allocation, cfg.lam, cfg.allied_channels)
        stage1 = stage_one_value(inst, cfg, rep.allocation, rep.d_plus, rep.d_o_plus)
        assert solve(sp).objective + stage1 == pytest.approx(rep.objective, abs=1e-6)
        with pytest.raises(FormulationError, match="y_plus"):
            stage_one_value(inst, cfg, rep.allocation, rep.d_plus)

    def test_stage_one_value_is_the_masters_first_stage_part(self, monkeypatch):
        # a candidate lower bound adds stage_one_value, a second copy of the
        # master's first-stage prices, to the subproblem value; at every master
        # solution it must equal the master objective less eta
        inst, means = synthetic_instance(3, 1, 2, seed=1)
        pair = np.subtract.outer(np.arange(inst.num_nodes), np.arange(inst.num_nodes))
        inst = replace(inst, econ=replace(inst.econ, reposition_cost=1.0 + np.abs(pair) % 3),
                       inventory=replace(inst.inventory, reposition_lead=np.abs(pair) % 2))
        uset = quantile_bounds_from_means(means)
        real, checked = ccg.extract_allocation, []

        def checking(master, msol, inst, cfg):
            alloc, (d_plus, d_o_plus), eta = real(master, msol, inst, cfg)
            assert stage_one_value(inst, cfg, alloc, d_plus, d_o_plus) == pytest.approx(
                msol.objective - eta, rel=1e-9), cfg
            checked.append(repr(cfg))
            return alloc, (d_plus, d_o_plus), eta

        monkeypatch.setattr(ccg, "extract_allocation", checking)
        options = CcgOptions(subproblem_mode=ALTERNATING, max_iterations=6,
                             rescore_worst_case=False)
        for (lam, allied), variant in product(((0.0, "walkin"), (0.3, "walkin"), (0.3, "both")),
                                              ("plain", "integer", "repositioning")):
            solve_two_stage(inst, uset, BioConfig(
                lam=lam, allied_channels=allied, integer_allocations=variant == "integer",
                repositioning=variant == "repositioning"), options)
        assert len(set(checked)) == 9 and len(checked) > 9

    def test_ccg_equals_exhaustive_search_integer(self):
        # tiny enough for full enumeration over integer x and scenarios
        inst = build_instance(["A", "B"], [], 1, walkin_price=50.0,
                              walkin_penalty=70.0, purchase_cost=30.0)
        uset = walkin_set([0, 0], [2, 2], 1, 3)
        rep = solve_two_stage(inst, uset,
                              BioConfig(lam=0.0, integer_allocations=True),
                              CcgOptions())
        pts = uset.enumerate_discrete_points("b", 0)
        best = None
        for x in product(range(4), repeat=2):
            alloc = Allocation(np.array([list(x)], dtype=float))
            worst = min(evaluate_profit(inst, alloc, DemandScenario([list(p)], np.zeros((1, 0))))
                        for p in pts)
            if best is None or worst > best:
                best = worst
        assert rep.objective == pytest.approx(best, abs=1e-6)

    def test_scenario_pool_never_repeats(self):
        inst = example_walkin_instance(80.0, 80.0)
        uset = example_walkin_uncertainty()
        rep = solve_two_stage(inst, uset, BioConfig(lam=0.0), CcgOptions())
        keys = [s.key() for s in rep.scenario_pool]
        assert len(keys) == len(set(keys))


class TestAlternatingHeuristic:
    def test_single_location_finds_true_worst(self):
        inst = build_instance(["A"], [], 1, walkin_price=0.0, walkin_penalty=160.0,
                              purchase_cost=40.0)
        uset = walkin_set([0], [3], 0, 3)
        scen, val, _ = alternating_heuristic_subproblem(inst, uset, Allocation([[1.0]]), 0.0)
        assert scen.walkin[0, 0] == 3.0
        assert val == pytest.approx(-320.0)

    def test_zero_width_box_single_round(self):
        inst = build_instance(["A", "B"], [], 1, walkin_price=10.0,
                              walkin_penalty=5.0, purchase_cost=3.0)
        uset = walkin_set([1, 2], [1, 2], 3, 3)
        scen, val, _ = alternating_heuristic_subproblem(
            inst, uset, Allocation([[1.0, 1.0]]), 0.0)
        assert np.array_equal(scen.walkin, [[1.0, 2.0]])

    def test_value_upper_bounds_exact_min(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            inst = build_instance(
                ["A", "B"], [], 1,
                walkin_price=float(rng.integers(0, 100)),
                walkin_penalty=float(rng.integers(10, 150)),
                purchase_cost=float(rng.integers(10, 60)))
            lo = rng.integers(0, 2, size=2)
            hi = lo + rng.integers(1, 3, size=2)
            uset = walkin_set(list(lo), list(hi), int(lo.sum()), int(hi.sum()))
            alloc = Allocation(rng.integers(0, 3, size=(1, 2)).astype(float))
            _scen, val, _ = alternating_heuristic_subproblem(inst, uset, alloc, 0.0)
            exact = solve(build_subproblem(inst, uset, alloc, 0.0)).objective
            assert val >= exact - 1e-9

    def test_heuristic_mode_never_claims_convergence(self):
        inst = example_walkin_instance(0.0, 160.0)
        uset = example_walkin_uncertainty()
        rep = solve_two_stage(inst, uset, BioConfig(lam=0.0),
                              CcgOptions(subproblem_mode=ALTERNATING))
        assert rep.termination in ("iteration_limit", "time_limit", "stalled")
        assert not rep.certified

    def test_heuristic_mode_on_reference_plan_reports_stalled(self, monkeypatch):
        # the last subproblem hands back a scenario already in the pool
        inst = load_instance(os.path.join(DATA, "reference_sim_instance.json"))
        with open(os.path.join(DATA, "reference_sim_means.json")) as fh:
            doc = json.load(fh)
        uset = quantile_bounds_from_means(
            DemandMeans(np.array(doc["walkin"][:2]), np.array(doc["online"][:2])))
        repeats = []

        def recording(inst, uset, alloc, cfg, options, deadline, pool, models):
            out = subproblem(inst, uset, alloc, cfg, options, deadline, pool, models)
            repeats.append(out[0].key() in {p.key() for p in pool})
            return out

        subproblem = ccg._solve_subproblem
        monkeypatch.setattr(ccg, "_solve_subproblem", recording)
        rep = solve_two_stage(inst, uset, BioConfig(lam=0.1), CcgOptions(
            subproblem_mode=ALTERNATING, rescore_worst_case=False))
        assert rep.termination == "stalled" and not rep.certified
        assert repeats[-1] and not any(repeats[:-1])
        assert rep.iterations == len(repeats) < CcgOptions().max_iterations

    def test_heuristic_scenario_is_integral_and_contained(self):
        inst = example_walkin_instance(80.0, 80.0)
        uset = example_walkin_uncertainty()
        scen, _, _ = alternating_heuristic_subproblem(
            inst, uset, Allocation([[1.5, 2.0, 0.5]]), 0.0)
        assert uset.contains(scen)
        assert np.allclose(scen.walkin, np.round(scen.walkin))


class TestGreedyDemandStep:
    def test_matches_lp_on_random_cells(self):
        rng = np.random.default_rng(9)
        from bioinv.solver import LinearModel
        for _ in range(40):
            n = int(rng.integers(1, 6))
            lo = rng.integers(0, 3, size=n).astype(float)
            hi = lo + rng.integers(0, 4, size=n)
            bl = float(rng.integers(int(lo.sum()), int(hi.sum()) + 1))
            bu = float(rng.integers(int(bl), int(hi.sum()) + 1))
            c = rng.normal(size=n)
            d = minimize_linear_over_cell(c, lo, hi, bl, bu)
            m = LinearModel(sense="min")
            cols = [m.add_var(f"d{i}", lo[i], hi[i]) for i in range(n)]
            m.add_constr({j: 1.0 for j in cols}, ">=", bl)
            m.add_constr({j: 1.0 for j in cols}, "<=", bu)
            m.set_objective({cols[i]: c[i] for i in range(n)})
            ref = solve(m)
            assert float(c @ d) == pytest.approx(ref.objective, abs=1e-8)
            assert bl - 1e-9 <= d.sum() <= bu + 1e-9

    def test_seed_scenarios_feasible(self):
        uset = example_walkin_uncertainty()
        assert uset.contains(seed_scenario(uset))
        assert uset.contains(upper_seed_scenario(uset))
        assert seed_scenario(uset).walkin.sum() == pytest.approx(1.0)
        assert upper_seed_scenario(uset).walkin.sum() == pytest.approx(6.0)


class TestAlliedBothMode:
    def test_ccg_matches_full_pool_master(self):
        # omnichannel instance: the CCG optimum equals the exact master over
        # every discrete scenario, in the fully blended mode
        from bioinv.formulations import build_master
        from bioinv.uncertainty import DemandScenario as DS
        inst = build_instance(
            ["A", "B"], ["Z"], 1,
            walkin_price=50.0, walkin_penalty=79.0,
            online_price=11.0, online_penalty=23.0,
            fulfill_cost=[[5.0], [6.0]], purchase_cost=25.0)
        uset = UncertaintySet(
            local_lower={"b": [[1, 0]], "o": [[1]]},
            local_upper={"b": [[3, 2]], "o": [[2]]},
            budget_lower={"b": [1], "o": [1]},
            budget_upper={"b": [5], "o": [2]})
        scens = [DS([list(b)], [list(o)])
                 for b in uset.enumerate_discrete_points("b", 0)
                 for o in uset.enumerate_discrete_points("o", 0)]
        for lam in (0.0, 0.5, 1.0):
            cfg = BioConfig(lam=lam, allied_channels="both")
            full = solve(build_master(inst, uset, scens, cfg)).objective
            rep = solve_two_stage(inst, uset, cfg, CcgOptions())
            assert rep.termination == "converged"
            assert rep.objective == pytest.approx(full, abs=1e-6)


class TestMipIncumbent:
    def test_incumbent_is_feasible_and_carries_the_dual_lp_value(self):
        # walk-in stores plus one zone; every scenario of U seeds an incumbent
        inst = build_instance(
            ["A", "B"], ["Z"], 1,
            walkin_price=50.0, walkin_penalty=79.0,
            online_price=11.0, online_penalty=23.0,
            fulfill_cost=[[5.0], [6.0]], purchase_cost=25.0)
        uset = UncertaintySet(
            local_lower={"b": [[1, 0]], "o": [[0]]},
            local_upper={"b": [[3, 2]], "o": [[2]]},
            budget_lower={"b": [1], "o": [0]},
            budget_upper={"b": [4], "o": [2]})
        alloc = Allocation([[2.0, 1.0]], s_plus=[[0.5, 0.0]])
        for lam, allied in ((0.0, "walkin"), (0.5, "walkin"), (0.5, "both")):
            model = build_subproblem(inst, uset, alloc, lam, allied)
            dual_lp = build_subproblem(inst, uset, alloc, lam, allied,
                                       fixed_scenario=seed_scenario(uset))
            lb, ub = np.array(model.lb), np.array(model.ub)
            for b in uset.enumerate_discrete_points("b", 0):
                for o in uset.enumerate_discrete_points("o", 0):
                    scen = DemandScenario([list(b)], [list(o)])
                    set_fixed_scenario(dual_lp, scen)
                    fixed = solve(dual_lp)
                    val, x = incumbent_from_scenario(model, scen, fixed)
                    assert val == fixed.objective
                    assert (x >= lb - 1e-7).all() and (x <= ub + 1e-7).all()
                    for con in model.constraints:
                        lhs = float(np.dot(con.vals, x[con.cols]))
                        gap = {"<=": lhs - con.rhs, ">=": con.rhs - lhs,
                               "==": abs(lhs - con.rhs)}[con.sense]
                        assert gap <= 1e-7, (lam, allied, b, o, con.name)
                    obj = sum(c * x[j] for j, c in model.obj.items()) + model.obj_const
                    assert obj == pytest.approx(val, abs=1e-7)


    def test_heuristic_builds_one_dual_model_and_hands_on_its_solution(self, monkeypatch):
        # the multi-start re-solves one fixed-demand model; the winner's dual
        # LP solution is what a freshly built model gives at its scenario
        builds = []
        real = ccg.build_subproblem

        def counting(*args, **kwargs):
            builds.append(kwargs.get("fixed_scenario") is not None)
            return real(*args, **kwargs)

        monkeypatch.setattr(ccg, "build_subproblem", counting)
        inst, uset = example_walkin_instance(80.0, 80.0), example_walkin_uncertainty()
        alloc = Allocation([[1.5, 2.0, 0.5]])
        scen, val, sol = ccg._best_heuristic_scenario(inst, uset, alloc, 0.0, "walkin")
        assert builds == [True]
        ref = solve(real(inst, uset, alloc, 0.0, "walkin", fixed_scenario=scen))
        assert (ref.objective, ref.stats.simplex_iterations) == (val, sol.stats.simplex_iterations)
        assert ref.x.tobytes() == sol.x.tobytes()


class TestRunAdversary:
    def test_one_dual_model_and_one_mip_per_run(self, monkeypatch):
        # the run builds the fixed-demand dual model and the MIP once and
        # re-points them each iteration (the exact MIP serves the rescore as
        # well); the reports equal those of runs that build every model afresh
        builds = []
        real_build, real_adversary = ccg.build_subproblem, ccg._adversary

        def counting(*args, **kwargs):
            builds.append("dual" if kwargs.get("fixed_scenario") is not None else "mip")
            return real_build(*args, **kwargs)

        def fresh(models, *args, **kwargs):
            return real_adversary({}, *args, **kwargs)

        def timeless(rep):
            d = rep.to_dict()
            del d["wall_time"], d["rescore_s"]
            return d

        monkeypatch.setattr(ccg, "build_subproblem", counting)
        uset = example_walkin_uncertainty()
        iterations = set()
        for (p, b), lam, mode in product(((0.0, 160.0), (160.0, 0.0), (80.0, 80.0)),
                                         (0.0, 0.5), (ccg.EXACT_MIP, ALTERNATING)):
            inst, options = example_walkin_instance(p, b), CcgOptions(subproblem_mode=mode)
            builds.clear()
            rep = solve_two_stage(inst, uset, BioConfig(lam=lam), options)
            assert builds == ["dual", "mip"], (p, b, lam, mode)
            iterations.add(rep.iterations)
            with monkeypatch.context() as patched:
                patched.setattr(ccg, "_adversary", fresh)
                builds.clear()
                ref = solve_two_stage(inst, uset, BioConfig(lam=lam), options)
            assert len(builds) > 2
            assert timeless(rep) == timeless(ref), (p, b, lam, mode)
        assert len(iterations) >= 2 and max(iterations) >= 3


class TestSubproblemErrors:
    def test_extraction_failure_surfaces(self, monkeypatch):
        # a selector read that fails must stop the solve, not fall back to the
        # heuristic's scenario under the MIP's certified value
        import bioinv.ccg as ccg

        def broken(model, sol):
            raise FormulationError("no selector chosen")

        monkeypatch.setattr(ccg, "extract_worst_scenario", broken)
        inst = example_walkin_instance(0.0, 160.0)
        with pytest.raises(FormulationError, match="no selector"):
            solve_two_stage(inst, example_walkin_uncertainty(), BioConfig(lam=0.0),
                            CcgOptions())


class TestRescore:
    """The worst-case rescore MIP (the only model with binaries in an
    alternating-heuristic solve) fails in three ways."""

    @staticmethod
    def solve_with_rescore(monkeypatch, rescore):
        import bioinv.ccg as ccg
        real = ccg.solve

        def patched(model, *args, **kwargs):
            if "binary" in model.kind:
                return rescore(model)
            return real(model, *args, **kwargs)

        monkeypatch.setattr(ccg, "solve", patched)
        inst = example_walkin_instance(0.0, 160.0)
        return solve_two_stage(inst, example_walkin_uncertainty(), BioConfig(lam=0.0),
                               CcgOptions(subproblem_mode=ALTERNATING))

    def test_solver_error_is_reported(self, monkeypatch):
        from bioinv.solver import SolverError

        def fail(model):
            raise SolverError("simplex iteration safety cap reached")

        rep = self.solve_with_rescore(monkeypatch, fail)
        assert rep.worst_case_profit is None
        assert rep.rescore_error == "SolverError: simplex iteration safety cap reached"
        assert rep.to_dict()["rescore_error"] == rep.rescore_error

    def test_limit_status_is_reported(self, monkeypatch):
        from bioinv.solver import Solution

        rep = self.solve_with_rescore(
            monkeypatch, lambda model: Solution("limit", float("nan"), None))
        assert rep.worst_case_profit is None
        assert rep.rescore_error == "rescore MIP ended limit"

    def test_other_errors_propagate(self, monkeypatch):
        def bug(model):
            raise KeyError("x")

        with pytest.raises(KeyError):
            self.solve_with_rescore(monkeypatch, bug)

    def test_clean_rescore_has_no_error(self):
        inst = example_walkin_instance(0.0, 160.0)
        rep = solve_two_stage(inst, example_walkin_uncertainty(), BioConfig(lam=0.0),
                              CcgOptions(subproblem_mode=ALTERNATING))
        assert rep.worst_case_profit is not None
        assert rep.rescore_error is None
        assert rep.to_dict()["rescore_error"] is None


    def test_wall_time_covers_the_rescore(self, monkeypatch):
        import time
        real = ccg.evaluate_profit

        def slow(*args):
            time.sleep(0.3)
            return real(*args)

        monkeypatch.setattr(ccg, "evaluate_profit", slow)
        inst = example_walkin_instance(0.0, 160.0)
        t0 = time.perf_counter()
        rep = solve_two_stage(inst, example_walkin_uncertainty(), BioConfig(lam=0.0),
                              CcgOptions(subproblem_mode=ALTERNATING))
        elapsed = time.perf_counter() - t0
        assert rep.worst_case_profit is not None
        assert 0.3 <= rep.rescore_s <= rep.wall_time <= elapsed
        assert rep.to_dict()["rescore_s"] == rep.rescore_s


class TestLoopExits:
    """The exits of the CCG loop that the shipped inputs do not reach."""

    @staticmethod
    def patch_master(monkeypatch, change):
        # `change(k, sol)` edits or replaces the solution of master solve k
        real, calls = ccg.solve, []

        def patched(model, *args, **kwargs):
            sol = real(model, *args, **kwargs)
            if model.name != "master":
                return sol
            calls.append(model)
            return change(len(calls), sol)

        monkeypatch.setattr(ccg, "solve", patched)
        return calls

    def test_failed_master_raises_with_the_report_so_far(self, monkeypatch):
        from bioinv.ccg import CcgError
        from bioinv.solver import Solution
        inst, uset = example_walkin_instance(80.0, 80.0), example_walkin_uncertainty()
        first = solve_two_stage(inst, uset, BioConfig(lam=0.0), CcgOptions(max_iterations=1))
        self.patch_master(monkeypatch, lambda k, sol: (
            sol if k == 1 else Solution("infeasible", float("nan"), None)))
        with pytest.raises(CcgError, match="infeasible") as info:
            solve_two_stage(inst, uset, BioConfig(lam=0.0))
        rep = info.value.report
        assert rep.termination == "master_failed" and rep.iterations == 2
        assert rep.lower_bounds == first.lower_bounds and len(rep.lower_bounds) == 1
        assert rep.upper_bounds == first.upper_bounds
        assert rep.objective == first.objective
        assert np.array_equal(rep.allocation.x, first.allocation.x)
        assert [s.key() for s in rep.scenario_pool] == [s.key() for s in first.scenario_pool]
        assert rep.worst_case_profit == first.worst_case_profit
        assert rep.certified

    def test_first_master_failure_report_serializes(self, monkeypatch):
        # no allocation exists yet; the report still converts to JSON
        from bioinv.ccg import CcgError
        from bioinv.solver import Solution
        self.patch_master(monkeypatch, lambda k, sol: Solution("infeasible", float("nan"), None))
        with pytest.raises(CcgError, match="infeasible") as info:
            solve_two_stage(example_walkin_instance(80.0, 80.0), example_walkin_uncertainty(),
                            BioConfig(lam=0.0))
        rep = info.value.report
        assert rep.termination == "master_failed" and rep.allocation is None
        d = rep.to_dict()
        assert d["allocation"] is None and d["objective"] is None
        assert d["lower_bounds"] == d["upper_bounds"] == [] and d["worst_case_profit"] is None
        json.dumps(d)

    def test_master_at_its_limit_clears_certified(self, monkeypatch):
        inst, uset = example_walkin_instance(0.0, 160.0), example_walkin_uncertainty()
        exact = solve_two_stage(inst, uset, BioConfig(lam=0.0))
        assert exact.termination == "converged" and exact.certified

        def at_limit(k, sol):
            sol.status = "limit"
            return sol

        calls = self.patch_master(monkeypatch, at_limit)
        rep = solve_two_stage(inst, uset, BioConfig(lam=0.0))
        assert len(calls) == rep.iterations == exact.iterations
        assert rep.termination == "stalled" and not rep.certified
        assert rep.lower_bounds == exact.lower_bounds
        assert rep.upper_bounds == exact.upper_bounds

    def test_run_past_its_deadline_ends_time_limit(self):
        # the first iteration grows the pool; the deadline has passed by then
        rep = solve_two_stage(example_walkin_instance(80.0, 80.0),
                              example_walkin_uncertainty(), BioConfig(lam=0.0),
                              CcgOptions(subproblem_mode=ALTERNATING, max_seconds=1e-6))
        assert rep.termination == "time_limit" and not rep.certified
        assert rep.iterations == 1 and len(rep.scenario_pool) == 2
        assert rep.allocation is not None and np.isfinite(rep.objective)

    def test_master_is_freed_before_the_rescore(self, monkeypatch):
        import gc
        import weakref
        masters, alive = [], []
        build, evaluate = ccg.build_master, ccg.evaluate_profit

        def building(*args, **kwargs):
            master = build(*args, **kwargs)
            masters.append(weakref.ref(master))
            return master

        def evaluating(*args, **kwargs):
            alive.append([ref() is not None for ref in masters])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(ccg, "build_master", building)
        monkeypatch.setattr(ccg, "evaluate_profit", evaluating)
        gc.disable()
        try:
            rep = solve_two_stage(example_walkin_instance(0.0, 160.0),
                                  example_walkin_uncertainty(), BioConfig(lam=0.0))
        finally:
            gc.enable()
        assert rep.worst_case_profit is not None
        assert alive == [[False]]


class TestOptions:
    def test_bad_options_rejected(self):
        from bioinv.ccg import CcgError
        with pytest.raises(CcgError):
            CcgOptions(epsilon=0.0)
        with pytest.raises(CcgError):
            CcgOptions(max_iterations=0)
        with pytest.raises(CcgError):
            CcgOptions(subproblem_mode="magic")
        with pytest.raises(CcgError):
            CcgOptions(subproblem_mode="ah_then_mip")

    def test_iteration_limit_respected(self):
        inst = example_walkin_instance(80.0, 80.0)
        uset = example_walkin_uncertainty()
        rep = solve_two_stage(inst, uset, BioConfig(lam=0.0),
                              CcgOptions(max_iterations=1))
        assert rep.iterations == 1

    def test_report_serializes(self):
        inst = example_walkin_instance(0.0, 160.0)
        uset = example_walkin_uncertainty()
        rep = solve_two_stage(inst, uset, BioConfig(lam=0.5), CcgOptions())
        d = rep.to_dict()
        assert d["termination"] == "converged"
        assert isinstance(d["lower_bounds"], list)
        assert d["allocation"]["x"]
        import json
        json.dumps(d)
