import hashlib
import json
import os
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from bioinv.formulations import (
    Allocation,
    BioConfig,
    FormulationError,
    ScenarioBatch,
    add_master_scenario,
    basestock_policy,
    pipeline_arrival,
    build_fulfillment_model,
    build_master,
    build_pwl_baseline,
    build_saa_model,
    build_subproblem,
    evaluate_allocation,
    evaluate_profit,
    evaluate_profits,
    extract_worst_scenario,
    first_stage_cost,
    pwl_allocation,
    set_allocation,
    set_fixed_scenario,
)
from bioinv.instance import BusinessRules, build_instance, load_instance
from bioinv.reference import (
    example_walkin_instance,
    example_walkin_means,
    example_walkin_uncertainty,
    synthetic_instance,
)
from bioinv.solver import solve
from bioinv.tuning import superpose
from bioinv.uncertainty import (DemandMeans, DemandScenario, UncertaintySet,
                                quantile_bounds_from_means, sample_scenarios)

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def walkin_set(lo, hi, bl, bu, periods=1):
    n = len(lo)
    return UncertaintySet(
        local_lower={"b": np.tile(lo, (periods, 1)).astype(float), "o": np.zeros((periods, 0))},
        local_upper={"b": np.tile(hi, (periods, 1)).astype(float), "o": np.zeros((periods, 0))},
        budget_lower={"b": np.full(periods, bl, dtype=float), "o": np.zeros(periods)},
        budget_upper={"b": np.full(periods, bu, dtype=float), "o": np.zeros(periods)},
    )


def wscen(walkin):
    w = np.atleast_2d(np.asarray(walkin, dtype=float))
    return DemandScenario(w, np.zeros((w.shape[0], 0)))


def brute_force_subproblem(inst, uset, alloc):
    """Min over every budget-feasible discrete scenario combination of the
    fulfillment value plus the first-stage cost."""
    T = inst.horizon
    per_period = []
    for t in range(T):
        pb = uset.enumerate_discrete_points("b", t)
        po = uset.enumerate_discrete_points("o", t) or [()]
        per_period.append([(b, o) for b in pb for o in po])
    fsc = first_stage_cost(inst, alloc)
    best = None
    for combo in product(*per_period):
        walkin = np.array([list(c[0]) for c in combo], dtype=float)
        online = np.array([list(c[1]) for c in combo], dtype=float)
        v = evaluate_profit(inst, alloc, DemandScenario(walkin, online)) + fsc
        if best is None or v < best:
            best = v
    return best


ONE_ZONE = build_instance(
    ["L1"], ["Z1"], 1,
    walkin_price=100.0, walkin_penalty=0.0,
    online_price=100.0, online_penalty=0.0,
    fulfill_cost=[[10.0]], purchase_cost=0.0, holding=0.0, lead_time=0,
    pipeline=[[3.0]],
)


class TestFulfillmentModel:
    def test_store_and_zone_split(self):
        # 3 on hand, walk-in demand 2, online 1: sell 2 locally, ship 1
        scen = DemandScenario([[2.0]], [[1.0]])
        plan = evaluate_allocation(ONE_ZONE, Allocation(np.zeros((1, 1))), scen)
        assert plan.profit == pytest.approx(290.0)
        assert plan.walkin_sales[0, 0] == pytest.approx(2.0)
        assert plan.shipments[0, 0, 0] == pytest.approx(1.0)

    def test_profit_oracle_by_enumeration(self):
        # brute force over integer fulfillments of the same tiny instance
        scen = DemandScenario([[2.0]], [[1.0]])
        best = None
        for s in range(3):
            for y in range(2):
                if s + y <= 3:
                    best = max(best or -1e9, 100 * s + 90 * y)
        assert best == 290
        assert evaluate_profit(ONE_ZONE, Allocation(np.zeros((1, 1))), scen) == pytest.approx(best)

    def test_example_table_row(self):
        inst = example_walkin_instance(0.0, 160.0)
        v = evaluate_profit(inst, Allocation([[3.0, 3.0, 3.0]]), wscen([3, 3, 0]))
        assert v == pytest.approx(-360.0)

    def test_zero_demand_zero_allocation(self):
        inst = example_walkin_instance(0.0, 160.0)
        v = evaluate_profit(inst, Allocation(np.zeros((1, 3))), wscen([0, 0, 0]))
        assert v == pytest.approx(0.0)

    def test_bio50_worst_case_profit(self):
        inst = example_walkin_instance(0.0, 160.0)
        v = evaluate_profit(inst, Allocation([[2.0, 2.0, 2.0]]), wscen([3, 3, 0]))
        assert v == pytest.approx(-560.0)

    def test_lead_time_shifts_arrivals(self):
        inst = build_instance(["A"], [], 2, walkin_price=[[10.0], [10.0]],
                              walkin_penalty=0.0, purchase_cost=1.0, lead_time=1,
                              pipeline=[[0.0, 2.0]])
        # x ordered in period 0 arrives in period 1; pipeline unit arrives at 0
        alloc = Allocation([[4.0], [0.0]])
        scen = wscen([[2.0], [6.0]])
        plan = evaluate_allocation(inst, alloc, scen)
        assert plan.walkin_sales[0, 0] == pytest.approx(2.0)
        assert plan.walkin_sales[1, 0] == pytest.approx(4.0)

    def test_scenario_dimension_mismatch(self):
        inst = example_walkin_instance(0.0, 160.0)
        with pytest.raises(FormulationError, match="dims"):
            build_fulfillment_model(inst, Allocation(np.zeros((1, 3))), wscen([1, 1]))


class TestSubproblem:
    def test_single_location_worst_demand(self):
        inst = build_instance(["A"], [], 1, walkin_price=0.0, walkin_penalty=160.0,
                              purchase_cost=40.0)
        uset = walkin_set([0], [3], 0, 3)
        m = build_subproblem(inst, uset, Allocation([[1.0]]), 0.0)
        sol = solve(m)
        # oracle: min over d in {0..3} of -160*(d-1)^+ = -320 at d = 3
        assert sol.objective == pytest.approx(-320.0)
        assert extract_worst_scenario(m, sol).walkin[0, 0] == 3.0

    def test_example_zero_allocation(self):
        inst = example_walkin_instance(0.0, 160.0)
        uset = example_walkin_uncertainty()
        m = build_subproblem(inst, uset, Allocation(np.zeros((1, 3))), 0.0)
        sol = solve(m)
        assert sol.objective == pytest.approx(-960.0)  # 160 * budget cap 6

    def test_example_full_allocation(self):
        inst = example_walkin_instance(0.0, 160.0)
        uset = example_walkin_uncertainty()
        m = build_subproblem(inst, uset, Allocation([[3.0, 3.0, 3.0]]), 0.0)
        sol = solve(m)
        assert sol.objective == pytest.approx(0.0, abs=1e-7)
        scen = extract_worst_scenario(m, sol)
        assert uset.contains(scen)

    def test_exactness_random_instances(self):
        rng = np.random.default_rng(2024)
        for trial in range(12):
            nl = int(rng.integers(1, 3))
            nz = int(rng.integers(0, 2))
            T = int(rng.integers(1, 3))
            zones = [f"Z{k}" for k in range(nz)]
            price = float(rng.integers(0, 3)) * 40.0
            pen = float(rng.integers(1, 4)) * 40.0
            inst = build_instance(
                [f"L{k}" for k in range(nl)], zones, T,
                walkin_price=price, walkin_penalty=pen,
                online_price=max(0.0, price - 10.0), online_penalty=pen / 2,
                fulfill_cost=np.full((nl, nz), 7.0), purchase_cost=25.0,
                holding=float(rng.integers(0, 3)),
                lead_time=int(rng.integers(0, 2)) if T > 1 else 0,
            )
            lo = rng.integers(0, 2, size=(T, nl)).astype(float)
            hi = lo + rng.integers(0, 3, size=(T, nl))
            lo_o = rng.integers(0, 2, size=(T, nz)).astype(float)
            hi_o = lo_o + rng.integers(0, 2, size=(T, nz))
            uset = UncertaintySet(
                local_lower={"b": lo, "o": lo_o},
                local_upper={"b": hi, "o": hi_o},
                budget_lower={"b": lo.sum(axis=1), "o": lo_o.sum(axis=1)},
                budget_upper={"b": np.maximum(lo.sum(axis=1), hi.sum(axis=1) - 1),
                              "o": hi_o.sum(axis=1)},
            )
            alloc = Allocation(rng.integers(0, 3, size=(T, nl)).astype(float))
            m = build_subproblem(inst, uset, alloc, 0.0)
            sol = solve(m)
            assert sol.status == "optimal", f"trial {trial}"
            brute = brute_force_subproblem(inst, uset, alloc)
            assert sol.objective == pytest.approx(brute, abs=1e-6), f"trial {trial}"

    def test_exactness_with_optimism_commitments(self):
        # lam > 0: the selector MIP must equal the minimum over discrete
        # scenarios of an independently built multi-class primal LP
        from bioinv.solver import INF, LinearModel

        def primal_value(inst, uset, alloc, lam, scen):
            T, L, Z = inst.horizon, inst.num_nodes, inst.num_zones
            e = inst.econ
            s_plus = alloc.s_plus
            m = LinearModel(sense="max")
            obj, const = {}, 0.0
            s = {}
            I = {}
            y = {}
            for t in range(T):
                for l in range(L):
                    s[t, l] = m.add_var(f"s{t}{l}", 0.0,
                                        (1 - lam) * float(scen.walkin[t, l]))
                    obj[s[t, l]] = e.walkin_price[t, l] + e.walkin_penalty[t, l]
                    const -= e.walkin_penalty[t, l] * (1 - lam) * scen.walkin[t, l]
                    I[t, l] = m.add_var(f"I{t}{l}", 0.0, INF)
                    obj[I[t, l]] = -e.holding[l]
                for li, zi, _d in inst.network.edges:
                    y[t, li, zi] = m.add_var(f"y{t}{li}{zi}", 0.0, INF)
                    obj[y[t, li, zi]] = (e.online_price[t] + e.online_penalty[t]
                                         - e.fulfill_cost[li, zi])
                for z in range(Z):
                    const -= e.online_penalty[t] * scen.online[t, z]
                    m.add_constr({y[t, l, z]: 1.0 for l in range(L)
                                  if (t, l, z) in y}, "<=", float(scen.online[t, z]))
                for l in range(L):
                    row = {s[t, l]: 1.0, I[t, l]: 1.0}
                    for z in range(Z):
                        if (t, l, z) in y:
                            row[y[t, l, z]] = 1.0
                    rhs = (pipeline_arrival(inst, t, l)
                           + _x_arrival_const(inst, t, l, alloc)
                           - float(s_plus[t, l]))
                    if t == 0:
                        rhs += inst.inventory.on_hand(l)
                    else:
                        row[I[t - 1, l]] = -1.0
                    m.add_constr(row, "==", rhs)
            m.set_objective(obj, const=const)
            return solve(m).objective

        from bioinv.formulations import _x_arrival_const
        rng = np.random.default_rng(99)
        for trial in range(6):
            inst = build_instance(
                ["A", "B"], ["Z"], 1,
                walkin_price=float(rng.integers(20, 120)),
                walkin_penalty=float(rng.integers(20, 120)),
                online_price=float(rng.integers(5, 40)),
                online_penalty=float(rng.integers(0, 30)),
                fulfill_cost=[[4.0], [7.0]], purchase_cost=20.0,
                holding=float(rng.integers(0, 2)))
            uset = UncertaintySet(
                local_lower={"b": [[0, 0]], "o": [[0]]},
                local_upper={"b": [[2, 2]], "o": [[2]]},
                budget_lower={"b": [1], "o": [0]},
                budget_upper={"b": [3], "o": [2]})
            lam = float(rng.choice([0.3, 0.7]))
            x = rng.integers(1, 4, size=(1, 2)).astype(float)
            s_plus = np.minimum(lam * rng.integers(0, 3, size=(1, 2)), x).astype(float)
            alloc = Allocation(x, s_plus=s_plus)
            sol = solve(build_subproblem(inst, uset, alloc, lam))
            brute = min(
                primal_value(inst, uset, alloc, lam,
                             DemandScenario([list(b)], [list(o)]))
                for b in uset.enumerate_discrete_points("b", 0)
                for o in uset.enumerate_discrete_points("o", 0))
            assert sol.objective == pytest.approx(brute, abs=1e-6), f"trial {trial}"

    def test_dual_consistency_fixed_scenario(self):
        # strong duality: dual LP at a pinned scenario equals the fulfillment
        # optimum plus the first-stage cost
        inst = ONE_ZONE
        alloc = Allocation([[2.0]])
        scen = DemandScenario([[2.0]], [[1.0]])
        val = solve(build_subproblem(inst, None, alloc, 0.0, fixed_scenario=scen)).objective
        primal = evaluate_profit(inst, alloc, scen) + first_stage_cost(inst, alloc)
        assert val == pytest.approx(primal, abs=1e-7)

    def test_dual_consistency_with_business_rules(self):
        inst = build_instance(
            ["A", "B"], ["Z1", "Z2"], 1,
            walkin_price=100.0, walkin_penalty=20.0,
            online_price=90.0, online_penalty=10.0,
            fulfill_cost=[[5.0, 9.0], [8.0, 4.0]], purchase_cost=30.0,
            holding=1.0,
            ship_edges=[("A", "Z1", 1), ("A", "Z2", 3), ("B", "Z1", 2), ("B", "Z2", 1)],
            business_rules=BusinessRules(
                fulfill_capacity=np.array([[1.0, 2.0]]),
                service_window_fraction=0.6, service_window_days=2),
        )
        alloc = Allocation([[2.0, 2.0]])
        scen = DemandScenario([[1.0, 0.0]], [[2.0, 1.0]])
        val = solve(build_subproblem(inst, None, alloc, 0.0, fixed_scenario=scen)).objective
        primal = evaluate_profit(inst, alloc, scen) + first_stage_cost(inst, alloc)
        assert val == pytest.approx(primal, abs=1e-6)

    def test_monotone_in_box_growth(self):
        inst = example_walkin_instance(0.0, 160.0)
        small = walkin_set([0, 0, 0], [2, 2, 2], 1, 6)
        big = walkin_set([0, 0, 0], [3, 3, 3], 1, 6)
        alloc = Allocation([[2.0, 2.0, 2.0]])
        v_small = solve(build_subproblem(inst, small, alloc, 0.0)).objective
        v_big = solve(build_subproblem(inst, big, alloc, 0.0)).objective
        assert v_big <= v_small + 1e-9

    def test_selector_semantics(self):
        inst = build_instance(["A"], [], 1, walkin_price=0.0, walkin_penalty=160.0,
                              purchase_cost=40.0)
        uset = walkin_set([0], [3], 0, 3)
        m = build_subproblem(inst, uset, Allocation([[0.0]]), 0.0)
        sol = solve(m)
        scen = extract_worst_scenario(m, sol)
        assert scen.walkin[0, 0] == 3.0  # adversary maxes lost sales


class TestMaster:
    def test_single_scenario_master(self):
        inst = example_walkin_instance(0.0, 160.0)
        uset = example_walkin_uncertainty()
        m = build_master(inst, uset, [wscen([3, 3, 0])], BioConfig(lam=0.0))
        sol = solve(m)
        assert sol.objective == pytest.approx(-240.0)

    def test_empty_pool_has_no_epigraph(self):
        inst = example_walkin_instance(0.0, 160.0)
        uset = example_walkin_uncertainty()
        m = build_master(inst, uset, [], BioConfig(lam=0.0))
        assert m.info["eta"] is None
        sol = solve(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0)  # nothing forces purchases

    def test_lam1_master_optimistic_value(self):
        inst = example_walkin_instance(160.0, 0.0)
        uset = example_walkin_uncertainty()
        m = build_master(inst, uset, [wscen([3, 3, 0])], BioConfig(lam=1.0))
        sol = solve(m)
        assert sol.objective == pytest.approx(720.0)

    def test_full_pool_equals_exact_optimum(self):
        # master over every discrete scenario = exact two-stage optimum
        inst = example_walkin_instance(0.0, 160.0)
        uset = example_walkin_uncertainty()
        pool = [wscen(list(p)) for p in uset.enumerate_discrete_points("b", 0)]
        m = build_master(inst, uset, pool, BioConfig(lam=0.0))
        sol = solve(m)
        assert sol.objective == pytest.approx(-360.0)

    @pytest.mark.parametrize("shape", [(2, 0, 1, 1), (3, 1, 2, 2), (2, 1, 1, 3)])
    def test_master_grown_in_place_equals_a_fresh_build(self, shape):
        # the CCG loop solves its master, then grows it by one scenario; each
        # grown master equals build_master of the pool so far; a cold solve
        # of it equals the fresh build's bit for bit, and its warm solve,
        # from the last optimum, equals it to 1e-9
        import copy
        import dataclasses
        from bioinv.ccg import seed_scenario
        from bioinv.uncertainty import quantile_bounds_from_means
        stores, dcs, zones, seed = shape
        inst, means = synthetic_instance(stores, dcs, zones, seed=seed)
        L = inst.num_nodes
        rng = np.random.default_rng(seed)
        repo_cost = rng.uniform(1.0, 5.0, size=(L, L)) * (1.0 - np.eye(L))
        inst = dataclasses.replace(
            inst, econ=dataclasses.replace(inst.econ, reposition_cost=repo_cost))
        uset = quantile_bounds_from_means(means)
        pool = [seed_scenario(uset)] + sample_scenarios(means, 2, seed=seed)
        fixed = rng.integers(0, 4, size=(inst.horizon, L)).astype(float)
        for lam, allied, repositioning, fixed_x in product(
                (0.0, 0.3), ("walkin", "both"), (False, True), (None, fixed)):
            cfg = BioConfig(lam=lam, allied_channels=allied, repositioning=repositioning)
            grown = build_master(inst, uset, [], cfg, fixed_x)
            for k in range(len(pool) + 1):
                if k:
                    add_master_scenario(grown, inst, pool[k - 1], cfg)
                fresh = build_master(inst, uset, pool[:k], cfg, fixed_x)
                case = (lam, allied, repositioning, fixed_x is not None, k)
                assert _model_fields(grown) == _model_fields(fresh), case
                assert grown.info.keys() == fresh.info.keys(), case
                for key, v in grown.info.items():
                    w = fresh.info[key]
                    assert (np.array_equal(v, w) if isinstance(v, np.ndarray)
                            else v == w), (case, key)
                cold = copy.copy(grown)
                cold._phase1 = None
                a, b = solve(cold), solve(fresh)
                assert a.status == b.status == "optimal", case
                assert repr(a.objective) == repr(b.objective), case
                assert a.stats.simplex_iterations == b.stats.simplex_iterations, case
                assert a.x.tobytes() == b.x.tobytes(), case
                warm = solve(grown)
                assert warm.status == "optimal", case
                assert warm.objective == pytest.approx(b.objective, rel=1e-9, abs=1e-9), case

    @pytest.mark.parametrize("shape", [(2, 0, 1, 1), (3, 1, 2, 2), (2, 1, 1, 3)])
    def test_grown_master_warm_solves_match_highs(self, shape, monkeypatch):
        # each solve after a scenario block is a dual simplex from the last
        # optimum (or a cold solve where that gives up): its objective is
        # HiGHS's, and its x meets every row and bound
        runs, warm = _count_phase1(monkeypatch), 0
        for lam, allied, repositioning, fixed in product(
                (0.0, 0.3), ("walkin", "both"), (False, True), (False, True)):
            cfg = BioConfig(lam=lam, allied_channels=allied, repositioning=repositioning)
            case = (lam, allied, repositioning, fixed)
            warm += _check_grown_master(runs, shape, cfg, fixed, 3, case)
        assert warm >= 40  # of 48

    @pytest.mark.parametrize("shape", [(2, 0, 1, 1), (3, 1, 2, 2), (2, 1, 1, 3)])
    def test_master_grown_twenty_times_matches_highs(self, shape, monkeypatch):
        # a CCG run grows its master up to 20 times (CcgOptions.max_iterations);
        # the tableau carried through all of them stays accurate
        runs = _count_phase1(monkeypatch)
        cfg = BioConfig(lam=0.3, allied_channels="both", repositioning=True)
        warm = sum(_check_grown_master(runs, shape, cfg, fixed, 20, fixed)
                   for fixed in (False, True))
        assert warm >= 30  # of 40


def _count_phase1(monkeypatch):
    """A list that gains one entry per simplex phase 1 run from now on."""
    from bioinv import solver
    runs, phase1 = [], solver._Simplex.phase1
    monkeypatch.setattr(solver._Simplex, "phase1", lambda sx: runs.append(sx) or phase1(sx))
    return runs


def _check_grown_master(runs, shape, cfg, fixed, growths, case):
    """Grows a master for `synthetic_instance(*shape)`, with a random
    repositioning cost and, when `fixed`, fixed orders, by `growths` sampled
    scenarios.  Each solve must equal HiGHS's objective to 1e-9 relative,
    and its x must meet every row and bound to 1e-9.  Returns how many of
    the solves were warm: ran no phase 1 (`runs`, from `_count_phase1`)."""
    import dataclasses
    from bioinv.ccg import seed_scenario
    from bioinv.uncertainty import quantile_bounds_from_means
    stores, dcs, zones, seed = shape
    inst, means = synthetic_instance(stores, dcs, zones, seed=seed)
    L = inst.num_nodes
    rng = np.random.default_rng(seed)
    repo_cost = rng.uniform(1.0, 5.0, size=(L, L)) * (1.0 - np.eye(L))
    inst = dataclasses.replace(
        inst, econ=dataclasses.replace(inst.econ, reposition_cost=repo_cost))
    uset = quantile_bounds_from_means(means)
    pool = sample_scenarios(means, growths, seed=seed + 10)
    fixed_x = rng.integers(0, 4, size=(inst.horizon, L)).astype(float) if fixed else None
    master = build_master(inst, uset, [seed_scenario(uset)], cfg, fixed_x)
    assert solve(master).status == "optimal"
    warm = 0
    for k, scen in enumerate(pool):
        add_master_scenario(master, inst, scen, cfg)
        before = len(runs)
        sol = solve(master)
        assert sol.status == "optimal", (case, k)
        assert sol.objective == pytest.approx(_highs_lp(master), rel=1e-9), (case, k)
        _assert_meets_rows_and_bounds(master, sol.x, 1e-9)
        warm += len(runs) == before
    return warm

def _highs_lp(model):
    """The optimal objective of the LP `model` under scipy's HiGHS `linprog`."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    A = np.zeros((model.num_constraints, model.num_vars))
    for i, con in enumerate(model.constraints):
        A[i, con.cols] = con.vals
    b = np.array([con.rhs for con in model.constraints])
    senses = np.array([con.sense for con in model.constraints])
    le, ge, eq = senses == "<=", senses == ">=", senses == "=="
    c = np.zeros(model.num_vars)
    c[list(model.obj)] = list(model.obj.values())
    sign = 1.0 if model.obj_sense == "min" else -1.0
    res = linprog(sign * c, A_ub=np.vstack([A[le], -A[ge]]),
                  b_ub=np.concatenate([b[le], -b[ge]]), A_eq=A[eq], b_eq=b[eq],
                  bounds=list(zip(model.lb, model.ub)), method="highs")
    assert res.status == 0, res.message
    return sign * res.fun + model.obj_const


def _assert_meets_rows_and_bounds(model, x, tol):
    assert np.all(x >= np.array(model.lb) - tol) and np.all(x <= np.array(model.ub) + tol)
    for con in model.constraints:
        lhs = float(np.dot(con.vals, x[con.cols]))
        assert (con.sense == ">=" or lhs <= con.rhs + tol) and \
            (con.sense == "<=" or lhs >= con.rhs - tol), con.name


def _model_fields(m):
    return (m.obj_sense, m.var_names, m.lb, m.ub, m.kind,
            [(c.cols, c.vals, c.sense, c.rhs, c.name) for c in m.constraints],
            list(m.obj.items()), m.obj_const)


def _same_info(a, b):
    """Field-for-field equality of `info` maps: arrays by dtype, shape and
    bytes, scenarios by their arrays, numbers by type and repr."""
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(_same_info(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same_info, a, b))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, DemandScenario):
        return _same_info((a.walkin, a.online), (b.walkin, b.online))
    return type(a) is type(b) and repr(a) == repr(b)


def _random_commitments(rng, inst, allied):
    T, L, Z = inst.horizon, inst.num_nodes, inst.num_zones
    repo = rng.integers(0, 3, size=(T, L, L)).astype(float)
    repo[:, np.arange(L), np.arange(L)] = 0.0
    return Allocation(rng.integers(0, 6, size=(T, L)).astype(float), repo,
                      rng.uniform(0.0, 2.0, size=(T, L)),
                      rng.uniform(0.0, 1.0, size=(T, L, Z)) if allied == "both" else None)


class TestSetAllocation:
    def test_repointed_models_equal_fresh_builds(self):
        # a model built for one allocation, lambda and channel setting and
        # re-pointed to another (and then to the rescore's lambda = 0 and
        # plain orders) is field for field the model built for it
        rules = BusinessRules(fulfill_capacity=np.full((2, 2), 3.0),
                              service_window_fraction=0.6, service_window_days=2)
        cases = [synthetic_instance(s, d, z, seed=seed, horizon=h)[0]
                 for s, d, z, h, seed in ((2, 0, 1, 1, 11), (3, 1, 2, 1, 12), (2, 1, 1, 2, 14))]
        cases.append(build_instance(
            ["A", "B"], ["Z1"], 2, walkin_price=50.0, walkin_penalty=20.0,
            online_price=40.0, online_penalty=10.0, fulfill_cost=[[2.0], [5.0]],
            purchase_cost=10.0, reposition_cost=[[0.0, 1.0], [1.0, 0.0]],
            reposition_lead=[[0, 1], [1, 0]], pipeline=[[3.0, 1.0], [0.0]], lead_time=[1, 0],
            ship_edges=[("A", "Z1", 1), ("B", "Z1", 4)], business_rules=rules))
        rng = np.random.default_rng(5)
        checked = 0
        for inst in cases:
            uset = UncertaintySet(
                local_lower={"b": np.zeros((inst.horizon, inst.num_nodes)),
                             "o": np.zeros((inst.horizon, inst.num_zones))},
                local_upper={"b": np.full((inst.horizon, inst.num_nodes), 2.0),
                             "o": np.full((inst.horizon, inst.num_zones), 3.0)},
                budget_lower={"b": np.ones(inst.horizon), "o": np.ones(inst.horizon)},
                budget_upper={"b": np.full(inst.horizon, 3.0), "o": np.full(inst.horizon, 4.0)})
            scen = sample_scenarios(None, 1, 3, "uniform", uset=uset)[0]
            for lam, allied, fixed in product((0.0, 0.1, 0.3, 1.0), ("walkin", "both"),
                                              (None, scen)):
                a = _random_commitments(rng, inst, allied)
                b = _random_commitments(rng, inst, allied)
                other = "both" if allied == "walkin" else "walkin"
                m = build_subproblem(inst, uset, a, float(rng.uniform()), other,
                                     fixed_scenario=fixed)
                for alloc, lam_b, allied_b in ((b, lam, allied),
                                               (Allocation(b.x, b.x_repo), 0.0, "walkin")):
                    set_allocation(m, inst, alloc, lam_b, allied_b)
                    ref = build_subproblem(inst, uset, alloc, lam_b, allied_b,
                                           fixed_scenario=fixed)
                    case = (inst.num_nodes, lam, allied, fixed is None, lam_b)
                    assert _model_fields(m) == _model_fields(ref), case
                    assert repr(sorted(m.obj.items())) == repr(sorted(ref.obj.items())), case
                    assert repr(m.obj_const) == repr(ref.obj_const), case
                    assert m.sos1 == ref.sos1, case
                    assert _same_info(m.info, ref.info), case
                    checked += 1
        assert checked == 4 * 4 * 2 * 2 * 2

    def test_fixed_demand_follows_the_allocation_and_the_scenario(self):
        # set_allocation keeps a fixed-demand model's scenario, and a later
        # set_fixed_scenario keeps its allocation
        inst, means = synthetic_instance(3, 1, 2, seed=12, horizon=1)
        scens = sample_scenarios(means, 2, 4)
        rng = np.random.default_rng(8)
        a, b = (_random_commitments(rng, inst, "both") for _ in range(2))
        m = build_subproblem(inst, None, a, 0.3, "both", fixed_scenario=scens[0])
        set_allocation(m, inst, b, 0.3, "both")
        set_fixed_scenario(m, scens[1])
        ref = build_subproblem(inst, None, b, 0.3, "both", fixed_scenario=scens[1])
        assert _model_fields(m) == _model_fields(ref)
        assert _same_info(m.info, ref.info)


class TestRepositioning:
    def setup_method(self):
        self.inst = build_instance(
            ["A", "B"], [], 1,
            walkin_price=100.0, walkin_penalty=50.0,
            purchase_cost=1000.0,  # buying is prohibitive; moving may pay
            reposition_cost=[[0.0, 0.0], [0.0, 0.0]],
            reposition_lead=[[0, 0], [0, 0]],
            pipeline=[[5.0], [0.0]], lead_time=0,
        )

    def test_free_move_covers_demand(self):
        alloc = Allocation(np.zeros((1, 2)),
                           x_repo=np.array([[[0.0, 5.0], [0.0, 0.0]]]))
        scen = wscen([0, 5])
        v = evaluate_profit(self.inst, alloc, scen)
        assert v == pytest.approx(500.0)

    def test_expensive_arc_unused(self):
        from bioinv.ccg import solve_two_stage, CcgOptions
        import dataclasses
        inst = dataclasses.replace(
            self.inst,
            econ=dataclasses.replace(self.inst.econ,
                                     reposition_cost=np.array([[0.0, 1000.0],
                                                               [1000.0, 0.0]])))
        uset = walkin_set([0, 0], [0, 2], 0, 2)
        rep = solve_two_stage(inst, uset, BioConfig(lam=0.0, repositioning=True),
                              CcgOptions())
        assert rep.allocation.x_repo.max() == pytest.approx(0.0, abs=1e-7)

    def test_flag_off_keeps_base_model(self):
        uset = walkin_set([0, 0], [1, 1], 0, 2)
        m_off = build_master(self.inst, uset, [wscen([1, 1])], BioConfig(lam=0.0))
        assert m_off.info["repo"] is None


class TestPwlBaseline:
    def test_mean_equals_quantile_collapses(self):
        means = DemandMeans([[2.0]], [[1.0]])
        m = build_pwl_baseline(ONE_ZONE, means, means)
        sol = solve(m)
        assert sol.status == "optimal"

    def test_zero_means_zero_allocation(self):
        means = DemandMeans([[0.0]], [[0.0]])
        alloc = pwl_allocation(ONE_ZONE, means, means)
        assert alloc.x.sum() == pytest.approx(0.0)

    def test_two_class_allocation_oracle(self):
        # single store, p=100 b=0 C=40: class 1 = mean 2 (net 60/unit),
        # class 2 = one more unit at half price (net 10/unit): buys 3
        inst = build_instance(["A"], [], 1, walkin_price=100.0, walkin_penalty=0.0,
                              purchase_cost=40.0)
        alloc = pwl_allocation(inst, DemandMeans([[2.0]], np.zeros((1, 0))),
                               DemandMeans([[3.0]], np.zeros((1, 0))), discount=0.5)
        assert alloc.x[0, 0] == pytest.approx(3.0)
        # a steeper discount makes the excess class unprofitable
        alloc = pwl_allocation(inst, DemandMeans([[2.0]], np.zeros((1, 0))),
                               DemandMeans([[3.0]], np.zeros((1, 0))), discount=0.3)
        assert alloc.x[0, 0] == pytest.approx(2.0)

    def test_quantile_below_mean_rejected(self):
        with pytest.raises(FormulationError, match="dominate"):
            build_pwl_baseline(ONE_ZONE, DemandMeans([[2.0]], [[1.0]]),
                               DemandMeans([[1.0]], [[1.0]]))


class TestBasestock:
    def test_critical_ratio_order_up_to(self):
        # p=100, C=40 -> CR=0.6; Poisson(2) -> order-up-to 2
        inst = build_instance(["A"], [], 1, walkin_price=100.0, walkin_penalty=0.0,
                              purchase_cost=40.0)
        alloc = basestock_policy(inst, DemandMeans([[2.0]], np.zeros((1, 0))))
        assert alloc.x[0, 0] == pytest.approx(2.0)

    def test_zero_everything(self):
        inst = build_instance(["A"], [], 1, walkin_price=100.0, walkin_penalty=0.0,
                              purchase_cost=40.0)
        alloc = basestock_policy(inst, DemandMeans([[0.0]], np.zeros((1, 0))))
        assert alloc.x.sum() == 0.0

    def test_never_negative_orders(self):
        inst = build_instance(["A"], [], 1, walkin_price=100.0, walkin_penalty=0.0,
                              purchase_cost=40.0, pipeline=[[50.0]], lead_time=0)
        alloc = basestock_policy(inst, DemandMeans([[2.0]], np.zeros((1, 0))))
        assert (alloc.x >= 0).all()
        assert alloc.x.sum() == 0.0

    def test_ecom_split_proportional(self):
        inst = build_instance(
            ["S1", "D1", "D2"], ["Z1", "Z2"], 1,
            walkin_price=100.0, walkin_penalty=0.0,
            online_price=100.0, online_penalty=0.0,
            fulfill_cost=[[9.0, 9.0], [1.0, 8.0], [8.0, 1.0]],
            purchase_cost=40.0,
        )
        means = DemandMeans([[1.0, 0.0, 0.0]], [[4.0, 4.0]])
        alloc = basestock_policy(inst, means)
        # D1 serves Z1, D2 serves Z2 symmetrically; equal split, store gets
        # its own walk-in order only
        assert alloc.x[0, 1] == pytest.approx(alloc.x[0, 2])
        assert alloc.x[0, 1] > 0


    def test_zero_purchase_cost_store(self):
        # a free store's critical ratio is 1, capped just below it so that it
        # stays a valid quantile level
        inst = build_instance(["S1", "D1"], ["Z1"], 2, walkin_price=100.0,
                              walkin_penalty=100.0, online_price=100.0,
                              online_penalty=100.0, fulfill_cost=[[9.0], [3.0]],
                              purchase_cost=[0.0, 30.0], lead_time=1)
        alloc = basestock_policy(inst, DemandMeans([[2.0, 0.0]] * 2, [[1.5]] * 2))
        assert np.isfinite(alloc.x).all()
        assert alloc.x[0, 0] > 0 and alloc.x[0, 1] > 0


class TestBusinessRuleRows:
    def test_transport_capacity_bounds_orders(self):
        from bioinv.ccg import solve_two_stage, CcgOptions
        inst = build_instance(
            ["A"], [], 1, walkin_price=0.0, walkin_penalty=160.0, purchase_cost=40.0,
            business_rules=BusinessRules(transport_capacity=np.array([[1.0]])))
        uset = walkin_set([0], [3], 0, 3)
        rep = solve_two_stage(inst, uset, BioConfig(lam=0.0), CcgOptions())
        assert rep.allocation.x[0, 0] <= 1.0 + 1e-9

    def test_fulfill_capacity_caps_shipments(self):
        inst = build_instance(
            ["A"], ["Z1"], 1, walkin_price=100.0, walkin_penalty=0.0,
            online_price=100.0, online_penalty=0.0, fulfill_cost=[[10.0]],
            purchase_cost=0.0, pipeline=[[5.0]],
            business_rules=BusinessRules(fulfill_capacity=np.array([[1.0]])))
        plan = evaluate_allocation(inst, Allocation(np.zeros((1, 1))),
                                   DemandScenario([[0.0]], [[4.0]]))
        assert plan.shipments.sum() == pytest.approx(1.0)

    def test_service_window_forces_fast_edges(self):
        inst = build_instance(
            ["A", "B"], ["Z1"], 1,
            walkin_price=100.0, walkin_penalty=0.0,
            online_price=100.0, online_penalty=0.0,
            fulfill_cost=[[2.0], [20.0]], purchase_cost=0.0,
            pipeline=[[4.0], [4.0]],
            ship_edges=[("A", "Z1", 5), ("B", "Z1", 1)],
            business_rules=BusinessRules(service_window_fraction=0.8,
                                         service_window_days=2))
        plan = evaluate_allocation(inst, Allocation(np.zeros((1, 2))),
                                   DemandScenario([[0.0, 0.0]], [[4.0]]))
        fast = plan.shipments[0, 1, 0]
        total = plan.shipments.sum()
        assert fast >= 0.8 * total - 1e-9


class TestEvaluateProfits:
    """The batch evaluation against one cold `solve` per scenario."""

    @staticmethod
    def check(inst, alloc, scenarios):
        got = evaluate_profits(inst, alloc, scenarios)
        ref = []
        for scen in scenarios:
            sol = solve(build_fulfillment_model(inst, alloc, scen))
            assert sol.status == "optimal"
            ref.append(sol.objective)
        ref = np.array(ref)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))
        # the first scenario is solved cold, as `solve` solves it
        assert got[0] == ref[0]
        return got

    @staticmethod
    def scenarios(means, count, seed):
        """Poisson draws with some cells zeroed, and the first five repeated
        at the end."""
        scens = sample_scenarios(means, count, seed=seed)
        for k, s in enumerate(scens[::3]):
            s.walkin[:, k % s.walkin.shape[1]] = 0.0
            if s.online.size:
                s.online[k % s.online.shape[0]] = 0.0
        return scens + scens[:5]

    @pytest.mark.parametrize("shape", [(1, 0, 1, 1, 0), (2, 1, 2, 2, 1), (3, 2, 3, 3, 0),
                                       (2, 0, 0, 4, 1), (4, 1, 2, 5, 0)])
    @pytest.mark.parametrize("rules", [False, True])
    def test_synthetic_instances(self, shape, rules):
        import dataclasses
        stores, dcs, zones, seed, lead = shape
        inst, means = synthetic_instance(stores, dcs, zones, seed=seed, lead_time=lead)
        T, L = inst.horizon, inst.num_nodes
        if rules:
            inst = dataclasses.replace(inst, business_rules=BusinessRules(
                fulfill_capacity=np.full((T, L), 1.5), service_window_fraction=0.6,
                service_window_days=2))
        rng = np.random.default_rng(seed)
        alloc = Allocation(rng.integers(0, 4, size=(T, L)) + rng.choice([0.0, 0.5], size=(T, L)))
        got = self.check(inst, alloc, self.scenarios(means, 40, seed))
        assert np.array_equal(got[-5:], got[:5])

    def test_repositioning(self):
        inst = build_instance(
            ["A", "B", "C"], ["Z1", "Z2"], 2,
            walkin_price=100.0, walkin_penalty=60.0, online_price=90.0,
            online_penalty=40.0, holding=1.0,
            fulfill_cost=[[5.0, 9.0], [7.0, 4.0], [3.0, 3.0]], purchase_cost=45.0,
            reposition_cost=[[0.0, 2.0, 3.0], [2.0, 0.0, 2.5], [3.0, 2.5, 0.0]],
            reposition_lead=[[0, 1, 0], [1, 0, 0], [0, 1, 0]],
            pipeline=[[4.0, 1.0], [0.0, 2.0], [6.0, 0.0]], lead_time=1)
        rng = np.random.default_rng(3)
        x_repo = rng.choice([0.0, 1.0, 2.0], size=(2, 3, 3))
        x_repo[:, np.arange(3), np.arange(3)] = 0.0
        alloc = Allocation(rng.integers(0, 5, size=(2, 3)).astype(float), x_repo=x_repo)
        means = DemandMeans(np.full((2, 3), 2.5), np.full((2, 2), 1.5))
        self.check(inst, alloc, self.scenarios(means, 40, 3))

    @pytest.mark.parametrize("lam", [0.5 - 1e-9, 0.5, 0.5 + 1e-9])
    def test_superposed_allocations(self, lam):
        inst, means = synthetic_instance(3, 1, 2, seed=6)
        rng = np.random.default_rng(6)
        x0 = Allocation(rng.integers(0, 3, size=(2, 4)).astype(float))
        x1 = Allocation(rng.integers(2, 6, size=(2, 4)).astype(float))
        self.check(inst, superpose(x0, x1, lam), self.scenarios(means, 60, 6))

    def test_empty_batch_and_bad_shapes(self):
        inst = example_walkin_instance(0.0, 160.0)
        alloc = Allocation(np.zeros((1, 3)))
        assert evaluate_profits(inst, alloc, []).shape == (0,)
        with pytest.raises(FormulationError, match="dims"):
            evaluate_profits(inst, alloc, [wscen([1, 1, 1]), wscen([1, 1])])


class TestScenarioBatch:
    """One batch scoring many allocations: its model, standard form and
    stacked demands are built once, and only the balance rows' right-hand
    sides and the constant follow the allocation."""

    @pytest.mark.parametrize("shape", [(1, 0, 1, 1, 0), (2, 1, 2, 2, 1), (3, 1, 2, 3, 0)])
    @pytest.mark.parametrize("variant", ["plain", "rules", "repositioning"])
    def test_interleaved_allocations_match_fresh_batches(self, shape, variant):
        # lambda at 0, 1, a hair off either end and at random points, then
        # back to 0 and 1: a right-hand side left over from the allocation
        # before would move the profits' bits
        stores, dcs, zones, seed, lead = shape
        inst, means = synthetic_instance(stores, dcs, zones, seed=seed, lead_time=lead)
        T, L = inst.horizon, inst.num_nodes
        rng = np.random.default_rng(seed)
        repo = [None, None]
        if variant == "rules":
            inst = replace(inst, business_rules=BusinessRules(
                fulfill_capacity=np.full((T, L), 1.5), service_window_fraction=0.6,
                service_window_days=2))
        elif variant == "repositioning":
            inst = replace(inst, econ=replace(inst.econ, reposition_cost=np.full((L, L), 0.5)),
                           inventory=replace(inst.inventory,
                                             reposition_lead=rng.integers(0, 2, (L, L))))
            # flows out of a node stay below the orders that reach it
            repo = [rng.choice([0.0, 1.0], size=(T, L, L)) for _ in range(2)]
            for flows in repo:
                flows[:lead] = 0.0
        x0 = Allocation(rng.integers(L, L + 3, size=(T, L)).astype(float), repo[0])
        x1 = Allocation(rng.integers(L + 2, L + 6, size=(T, L))
                        + rng.choice([0.0, 0.5], size=(T, L)), repo[1])
        scenarios = TestEvaluateProfits.scenarios(means, 20, seed)
        batch = ScenarioBatch(inst, scenarios)
        lams = [0.0, 1.0, 1e-9, 1.0 - 1e-9, *rng.uniform(0.0, 1.0, 18).tolist(), 0.0, 1.0]
        family = None
        for lam in lams:
            alloc = superpose(x0, x1, lam)
            got = evaluate_profits(inst, alloc, batch)
            assert got.tobytes() == evaluate_profits(inst, alloc, scenarios).tobytes(), lam
            family = family or batch.family
            assert batch.family is family
        assert np.array_equal(got[-5:], got[:5])

    def test_a_wrong_width_names_its_index_before_any_solve(self, monkeypatch):
        from bioinv import formulations
        monkeypatch.setattr(formulations, "build_fulfillment_model", None)
        inst = example_walkin_instance(0.0, 160.0)
        with pytest.raises(FormulationError, match=r"^f\.json: scenarios\[2\]: scenario dims"):
            ScenarioBatch(inst, [wscen([1, 1, 1])] * 2 + [wscen([1, 1])], "f.json: scenarios")
        batch = ScenarioBatch(inst, [wscen([1, 2, 3])])
        assert ScenarioBatch(inst, batch) is batch
        assert ScenarioBatch(inst, batch[:1]) is not batch


# ---------------------------------------------------------------------------
# business rules in the adversary: committed y+ and the window's big-M
# ---------------------------------------------------------------------------

def _two_by_two(rules, days=(1, 3, 2, 1), **econ):
    """Two nodes, two zones, one period; by default A->Z1 and B->Z2 ship in
    1 day, B->Z1 in 2 and A->Z2 in 3."""
    kw = dict(walkin_price=100.0, walkin_penalty=20.0, online_price=90.0, online_penalty=10.0,
              fulfill_cost=[[5.0, 9.0], [8.0, 4.0]], purchase_cost=30.0, holding=1.0)
    kw.update(econ)
    edges = [(n, z, d) for (n, z), d in zip(product("AB", ("Z1", "Z2")), days)]
    return build_instance(["A", "B"], ["Z1", "Z2"], 1, ship_edges=edges,
                          business_rules=BusinessRules(**rules), **kw)


def _box(hi, bl, bu):
    """One period, two cells per channel, box [0, hi] and budget [bl, bu]."""
    return UncertaintySet(
        local_lower={"b": np.zeros((1, 2)), "o": np.zeros((1, 2))},
        local_upper={"b": np.full((1, 2), float(hi)), "o": np.full((1, 2), float(hi))},
        budget_lower={"b": [float(bl)], "o": [float(bl)]},
        budget_upper={"b": [float(bu)], "o": [float(bu)]})


def _points(uset):
    """Every integer scenario of a one-period set."""
    return [DemandScenario([list(b)], [list(o)]) for b in uset.enumerate_discrete_points("b", 0)
            for o in uset.enumerate_discrete_points("o", 0)]


def _full_pool_optimum(inst, uset, cfg):
    """The BIO optimum: the master over every integer scenario of U, by HiGHS."""
    return _highs_lp(build_master(inst, uset, _points(uset), cfg))


def _random_rule_instance(rng):
    """A two-by-two instance with random economics and edge days, and a
    fulfillment capacity, a service window, or both."""
    kind = rng.integers(3)
    rules = {}
    if kind != 1:
        rules["fulfill_capacity"] = rng.integers(0, 4, size=(1, 2)).astype(float)
    if kind != 0:
        rules.update(service_window_fraction=float(rng.choice([0.2, 0.3, 0.5, 0.7])),
                     service_window_days=2)
    econ = dict(walkin_price=float(rng.integers(60, 121)), walkin_penalty=float(rng.integers(0, 41)),
                online_price=float(rng.integers(40, 100)), online_penalty=float(rng.integers(0, 31)),
                fulfill_cost=rng.integers(1, 15, size=(2, 2)).astype(float),
                purchase_cost=float(rng.integers(20, 50)), holding=float(rng.integers(0, 3)))
    return _two_by_two(rules, [int(d) for d in rng.integers(1, 4, size=4)], **econ)


class TestBusinessRulesInTheAdversary:
    @pytest.mark.parametrize("rules,x,edge,eta", [
        ({"fulfill_capacity": np.array([[1.0, 2.0]])}, [4.0, 4.0], [(0, 0), (1, 1)], 213.5),
        ({"service_window_fraction": 0.3, "service_window_days": 2}, [2.0, 1.5], [(0, 1)],
         109.71428571428571),
    ])
    def test_committed_y_plus_counts_in_the_rule_terms(self, rules, x, edge, eta):
        # the master's recourse value at pinned commitments is the fixed-demand
        # dual's value: committed y+ fills the capacity and window rows of both
        inst = _two_by_two(rules)
        uset, cfg = _box(4, 0, 8), BioConfig(lam=0.5, allied_channels="both")
        scen = DemandScenario([[1.0, 2.0]], [[3.0, 3.0]])
        y_plus = np.zeros((1, 2, 2))
        for l, z in edge:
            y_plus[0, l, z] = 1.0
        m = build_master(inst, uset, [scen], cfg, fixed_x=np.array([x]))
        pins = {**{c: 0.5 for c in m.info["splus"].ravel()},
                **{c: 2.0 for c in m.info["dplus"].ravel()},
                **{c: 3.0 for c in m.info["doplus"].ravel()},
                **{c: y_plus[0, l, z] for c, (l, z, _d) in zip(m.info["yplus"][0],
                                                                inst.network.edges)}}
        for c, v in pins.items():
            m.lb[c] = m.ub[c] = v
        sol = solve(m)
        assert sol.status == "optimal"
        alloc = Allocation([x], s_plus=np.full((1, 2), 0.5), y_plus=y_plus)
        dual = solve(build_subproblem(inst, uset, alloc, 0.5, "both", fixed_scenario=scen))
        assert dual.status == "optimal"
        assert sol.x[m.info["eta"]] == pytest.approx(eta, abs=1e-9)
        assert dual.objective == pytest.approx(eta, abs=1e-9)

    @pytest.mark.parametrize("rules,lam,allied,optimum", [
        ({"fulfill_capacity": np.array([[1.0, 1.0]])}, 0.5, "both", 225.06768988587186),
        ({"service_window_fraction": 0.5, "service_window_days": 2}, 0.0, "walkin",
         96.88429752066112),
    ])
    def test_certified_objective_is_the_full_pool_optimum(self, rules, lam, allied, optimum):
        from bioinv.ccg import solve_two_stage
        inst, uset = _two_by_two(rules), _box(2, 1, 3)
        cfg = BioConfig(lam=lam, allied_channels=allied)
        rep = solve_two_stage(inst, uset, cfg)
        assert (rep.termination, rep.certified) == ("converged", True)
        assert _full_pool_optimum(inst, uset, cfg) == pytest.approx(optimum, abs=1e-6)
        assert rep.objective == pytest.approx(optimum, abs=1e-6)
        if lam == 0.0:
            assert rep.worst_case_profit == pytest.approx(optimum, abs=1e-6)

    def test_window_big_m_keeps_the_adversary_optimum(self):
        # a fast edge's dual row carries (1 - rho) * sigma, so the online duals
        # can exceed the window-free bound; the MIP still equals enumeration
        inst = _two_by_two({"service_window_fraction": 0.5, "service_window_days": 2})
        uset = _box(2, 1, 3)
        points = _points(uset)
        for x in product(np.arange(0.0, 4.0, 0.5), repeat=2):
            alloc = Allocation([list(x)])
            sol = solve(build_subproblem(inst, uset, alloc, 0.0))
            assert sol.status == "optimal"
            worst = evaluate_profits(inst, alloc, points).min() + first_stage_cost(inst, alloc)
            assert sol.objective == pytest.approx(worst, abs=1e-6), x


class TestRandomizedCertification:
    """Random two-by-two instances with a capacity and/or a window
    (seed 1), the full-pool optimum by HiGHS and the adversary by
    enumeration as oracles."""

    def test_no_certified_objective_above_the_full_pool_optimum(self):
        from bioinv.ccg import CcgOptions, solve_two_stage
        rng = np.random.default_rng(1)
        uset = _box(2, 1, 3)
        certified = 0
        for n in range(10):
            inst = _random_rule_instance(rng)
            for lam, allied in ((0.0, "walkin"), (0.4, "walkin"), (0.4, "both"), (0.8, "both")):
                cfg = BioConfig(lam=lam, allied_channels=allied)
                try:
                    rep = solve_two_stage(inst, uset, cfg, CcgOptions(rescore_worst_case=False))
                except FormulationError as exc:
                    # committed y+ left a scenario of U without recourse
                    assert "unbounded" in str(exc)
                    assert allied == "both"
                    assert inst.business_rules.service_window_fraction is not None
                    continue
                if rep.certified:
                    certified += 1
                    full = _full_pool_optimum(inst, uset, cfg)
                    assert rep.objective <= full + 1e-6 * max(1.0, abs(full)), (n, lam, allied)
        assert certified >= 30

    def test_subproblem_mip_equals_enumeration(self):
        rng = np.random.default_rng(1)
        uset = _box(2, 1, 3)
        points = _points(uset)
        for n in range(40):
            inst = _random_rule_instance(rng)
            alloc = Allocation(rng.integers(0, 8, size=(1, 2)) / 2.0)
            sol = solve(build_subproblem(inst, uset, alloc, 0.0))
            assert sol.status == "optimal"
            worst = evaluate_profits(inst, alloc, points).min() + first_stage_cost(inst, alloc)
            assert sol.objective == pytest.approx(worst, abs=1e-6), n


def _model_digest(m):
    """sha256 of a model's content without its names: the ordered columns
    (lb, ub, kind), rows (cols, vals, sense, rhs), objective by column,
    constant and SOS1 groups; floats by repr, so the digest is exact."""
    content = (m.obj_sense,
               [(repr(float(lo)), repr(float(hi)), kd) for lo, hi, kd in zip(m.lb, m.ub, m.kind)],
               [([int(j) for j in c.cols], [repr(float(v)) for v in c.vals], c.sense,
                 repr(float(c.rhs))) for c in m.constraints],
               [(int(j), repr(float(v))) for j, v in sorted(m.obj.items())],
               repr(float(m.obj_const)),
               [([int(j) for j in cols], [repr(float(v)) for v in vals]) for cols, vals in m.sos1])
    return hashlib.sha256(repr(content).encode()).hexdigest()


def _pinned_builds():
    """(case, model) for every model class on the walk-in fixture, the
    reference plan and a synthetic instance with capacity and window rules;
    each instance gets repositioning costs and lead times for the
    repositioning masters."""
    with open(os.path.join(DATA, "reference_sim_means.json")) as fh:
        doc = json.load(fh)
    plan = DemandMeans(np.array(doc["walkin"][:2]), np.array(doc["online"][:2]))
    syn, syn_means = synthetic_instance(3, 1, 2, seed=2)
    syn = replace(syn, business_rules=BusinessRules(
        fulfill_capacity=np.full((2, 4), 2.0), service_window_fraction=0.3,
        service_window_days=2))
    cases = [("walkin", example_walkin_instance(80.0, 80.0), example_walkin_means(),
              example_walkin_uncertainty()),
             ("reference", load_instance(os.path.join(DATA, "reference_sim_instance.json")),
              plan, quantile_bounds_from_means(plan)),
             ("synthetic-rules", syn, syn_means, quantile_bounds_from_means(syn_means))]
    for name, inst, means, uset in cases:
        T, L, Z = inst.horizon, inst.num_nodes, inst.num_zones
        pair = np.subtract.outer(np.arange(L), np.arange(L))
        inst = replace(inst, econ=replace(inst.econ, reposition_cost=1.0 + np.abs(pair) % 3),
                       inventory=replace(inst.inventory, reposition_lead=np.abs(pair) % 2))
        scens = sample_scenarios(means, 2, 11, "uniform", uset=uset)
        x = (np.arange(T * L).reshape(T, L) % 3).astype(float)
        y_plus = np.zeros((T, L, Z))
        for l, z, _d in inst.network.edges:
            y_plus[:, l, z] = 0.5
        alloc = Allocation(x, s_plus=0.25 * x, y_plus=y_plus)
        yield f"{name}/fulfillment", build_fulfillment_model(inst, Allocation(x), scens[0])
        for (lam, allied), variant in product(((0.0, "walkin"), (0.3, "both")),
                                              ("plain", "integer", "repositioning", "fixed-x")):
            cfg = BioConfig(lam=lam, allied_channels=allied,
                            integer_allocations=variant == "integer",
                            repositioning=variant == "repositioning")
            m = build_master(inst, uset, scens[:1], cfg, x if variant == "fixed-x" else None)
            add_master_scenario(m, inst, scens[1], cfg)
            yield f"{name}/master/{lam}/{allied}/{variant}", m
        yield f"{name}/subproblem-mip", build_subproblem(inst, uset, alloc, 0.3, "both")
        yield f"{name}/dual-lp", build_subproblem(inst, uset, alloc, 0.3, "both",
                                                  fixed_scenario=scens[0])
        quantile = DemandMeans(np.atleast_2d(means.walkin)[:T] + 1.0,
                               np.atleast_2d(means.online)[:T] + 2.0)
        yield f"{name}/pwl", build_pwl_baseline(inst, DemandMeans(
            np.atleast_2d(means.walkin)[:T], np.atleast_2d(means.online)[:T]), quantile)
        yield f"{name}/saa", build_saa_model(inst, scens)


# Digests of the models of `_pinned_builds`.  Column order is part of every
# result (the simplex breaks pricing ties by lowest index), so a change that
# moves a column, row, bound or coefficient fails here; one that changes a
# model on purpose updates these digests and says so.
PINNED_DIGESTS = {
    "walkin/fulfillment":
        "7c123e86dd096688f634c2d758fa49889be947617cec76a93dbbf2a793698b11",
    "walkin/master/0.0/walkin/plain":
        "8b4387f9eaa67ed7496f328070d84b0287c7c65b329ef2c8fa5d07f3b427b653",
    "walkin/master/0.0/walkin/integer":
        "d522b2c581cd6e73bd82d45c35691eba491cfccf99bc2eca99361c15cbf90a8d",
    "walkin/master/0.0/walkin/repositioning":
        "13e453d8c71f83f1a014efa1498e6838f908b606d1b91cb3a47fd02a14c1e411",
    "walkin/master/0.0/walkin/fixed-x":
        "cca65913374fea452e9f70a09e87d5ee022307924aaa535d0f97fe9e4c773328",
    "walkin/master/0.3/both/plain":
        "c924c312f5d71feb06ad10f2109c2d01f3a27c3e17345b7872aa3259332396e3",
    "walkin/master/0.3/both/integer":
        "35ca3ab98688452149623f39f671b6ab770f457fc7843bae1834658d8769d784",
    "walkin/master/0.3/both/repositioning":
        "8962f29422d3eda8ad4fb0ca37de65c37bc9da53b85e6c6b0d41c82d7669ac98",
    "walkin/master/0.3/both/fixed-x":
        "4e9e20ecc88293cc8b5bd8ac93105a3583f810df81817ee1fbed4a90e4e6fd15",
    "walkin/subproblem-mip":
        "bf4a19bc55f49990039cd3683248f7ac6c12be071e4089cc4019c7df41490384",
    "walkin/dual-lp":
        "330d24d68488634579b63c1632c89f91547415522704d3d70c6fb7c0f1ae9fc8",
    "walkin/pwl":
        "8afb808ecfce340bc56def083333ef03c7d1fafdb7308fb55f22542ebf5ce6bd",
    "walkin/saa":
        "aa717c8be71fe4bd4e1c3fb912f6b5636ab2440742e00674100a01fd064d0fa5",
    "reference/fulfillment":
        "dc0a5cf24b963fc3922d038f6661014a0000fcb4e5c3d6f9c87dce09fce0e9e8",
    "reference/master/0.0/walkin/plain":
        "8f791863315433dc680e9a82d9a52b83da47fc34d7704a2c041cbeaa649103bb",
    "reference/master/0.0/walkin/integer":
        "b31d3aa02ca09b264baed57386822a62fda02d6bfcc2ee67bd2ef38e544973f1",
    "reference/master/0.0/walkin/repositioning":
        "886b40234f4d301754a5a8e8b9c17f3ac7fe4c7c2bd56c62c69dfe1490dc4ec2",
    "reference/master/0.0/walkin/fixed-x":
        "4d668b634b7b16f2177e7200af2a4768324ed47a438e01f25dd08c0928055585",
    "reference/master/0.3/both/plain":
        "42acfb71fe107263ed83860b1511c03d4b848ba4e61e7d71e038d45fc443dbe1",
    "reference/master/0.3/both/integer":
        "9ddf5d5c66690fdf3fe0431a335a4018ad94a129bb3ef83759aad71c19f44f39",
    "reference/master/0.3/both/repositioning":
        "2e27ed934f925850efcaebd41e7f52feb9b7aa54a5bfee06ce1e7e31bb30e80f",
    "reference/master/0.3/both/fixed-x":
        "557c5daad466ade8faa0d097a82bb83da6d1685567709139d8a2e3d2fafb296b",
    "reference/subproblem-mip":
        "b110b73418a36da1069b77b1dc75b56e66d893381c4901fa0e07f47bbfba0da1",
    "reference/dual-lp":
        "2e6821d30434b2939415d803149a834018927efd3e67e378ce4376abb1eafed8",
    "reference/pwl":
        "6fbb8c6cd482ea121899fd636b6659d1d43fab379bbca78981c00cb770889200",
    "reference/saa":
        "9773aac6d97465b15d97f0b170fc7ad3e8a456f6ee6666d589e53bb0f0bff647",
    "synthetic-rules/fulfillment":
        "34b3806f1cf3a67b7649ec72b2ba8e93913dafd010f68780402942e1a3041df8",
    "synthetic-rules/master/0.0/walkin/plain":
        "7d150691ba6f8ce7fcafeef7d458446a3e2944429f73bb9637748fb36db64414",
    "synthetic-rules/master/0.0/walkin/integer":
        "f85da125dc507048f64f5de14646136f6472772deca8cc184f2a9e625f613e2a",
    "synthetic-rules/master/0.0/walkin/repositioning":
        "fdc612b3c323a923c3e09f7b5609f35ec1eec7a223f6d65bb13892a4e98136eb",
    "synthetic-rules/master/0.0/walkin/fixed-x":
        "fe4b23245a0e978e032678e95b199eb79d0eabe8e3e693aba561ccbadfc582d6",
    "synthetic-rules/master/0.3/both/plain":
        "3eaeeb87cf8b887c8662cc1a2cf3f019ea84d786eccfdd065c68bbfdc83a61c4",
    "synthetic-rules/master/0.3/both/integer":
        "e5f1f6676e87f6bdeb0c246398d756f60e9549e5a3cae3608c8e074db427eaff",
    "synthetic-rules/master/0.3/both/repositioning":
        "c8d839024767fb3b6dfd706b7c20f9cb6e2d305524e3d34a68bec9338571cd45",
    "synthetic-rules/master/0.3/both/fixed-x":
        "8bedf2ba509c0b00896a2c38ea54edbc9bed3e24d11945b21e5e4427d30c317b",
    "synthetic-rules/subproblem-mip":
        "d37303a5a8caf5746d69b1e0ad504ca0918cfbf0156e1e68e1c4540391afc1c9",
    "synthetic-rules/dual-lp":
        "a702d5efb51624e6d0afe3f74ab463b725eff0e0c1bb3526d4df15aa11e103a1",
    "synthetic-rules/pwl":
        "6d6131fdd486e8bc600d510d42d190ddb56a6691c8a2f3fcc81a68d752159f2c",
    "synthetic-rules/saa":
        "383099e293194d6a87a86c8c5c1f2eb3337752836e07885009c0435ff5d1c1a7",
}


def test_every_model_keeps_its_content_and_order():
    digests = {case: _model_digest(m) for case, m in _pinned_builds()}
    assert digests == PINNED_DIGESTS
