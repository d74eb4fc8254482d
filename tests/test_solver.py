import copy
import functools
import heapq
import itertools
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from itertools import product

from bioinv import ccg, simulate, solver
from bioinv.ccg import ALTERNATING, CcgOptions, seed_scenario, solve_two_stage
from bioinv.formulations import (Allocation, BioConfig, add_master_scenario, build_master,
                                 build_subproblem, extract_allocation, set_allocation)
from bioinv.instance import load_instance
from bioinv.reference import synthetic_instance
from bioinv.solver import (BINARY, INF, INT_TOL, OPT_TOL, LinearModel, LPFamily, Solution,
                           SolverError, SolveStats, solve)
from bioinv.uncertainty import DemandMeans, quantile_bounds_from_means, sample_scenarios

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def test_single_variable_lp():
    m = LinearModel(sense="max")
    x = m.add_var("x")
    m.add_constr({x: 1.0}, "<=", 3.0)
    m.set_objective({x: 1.0})
    s = solve(m)
    assert s.status == "optimal"
    assert s.objective == pytest.approx(3.0, abs=1e-9)


def test_infeasible_lp():
    m = LinearModel(sense="min")
    x = m.add_var("x", lb=0.0)
    m.add_constr({x: 1.0}, "<=", -1.0)
    m.set_objective({})
    assert solve(m).status == "infeasible"


def test_unbounded_lp():
    m = LinearModel(sense="max")
    x = m.add_var("x")
    m.set_objective({x: 1.0})
    assert solve(m).status == "unbounded"


def test_unit_knapsack_binary():
    m = LinearModel(sense="max")
    a = m.add_var("a", 0, 1, "binary")
    b = m.add_var("b", 0, 1, "binary")
    m.add_constr({a: 1.0, b: 1.0}, "<=", 1.0)
    m.set_objective({a: 1.0, b: 1.0})
    s = solve(m)
    assert s.status == "optimal"
    assert s.objective == pytest.approx(1.0)
    assert sorted(s.x) == [0.0, 1.0]


def test_free_variable_and_equality():
    m = LinearModel(sense="min")
    g = m.add_var("g", lb=-INF, ub=INF)
    h = m.add_var("h", lb=-INF, ub=5.0)
    m.add_constr({g: 1.0, h: 1.0}, "==", 2.0)
    m.add_constr({g: 1.0}, ">=", -4.0)
    m.set_objective({g: 1.0, h: 0.5})
    s = solve(m)
    assert s.status == "optimal"
    # g = -4, h = 6 violates h <= 5, so h = 5, g = -3
    assert s.objective == pytest.approx(-3 + 2.5)


def test_invalid_models_rejected():
    m = LinearModel(sense="max")
    with pytest.raises(SolverError):
        m.add_var("w", lb=-1.0, ub=1.0, kind="binary")
    with pytest.raises(SolverError):
        m.add_var("x", lb=2.0, ub=1.0)
    x = m.add_var("x")
    with pytest.raises(SolverError):
        m.add_constr({x + 5: 1.0}, "<=", 1.0)
    with pytest.raises(SolverError):
        m.add_constr({x: 1.0}, "<<", 1.0)


def test_resolve_determinism():
    def build():
        m = LinearModel(sense="max")
        v = [m.add_var(f"x{j}", 0, 4.0) for j in range(5)]
        m.add_constr({v[0]: 1, v[1]: 2, v[2]: 1}, "<=", 6)
        m.add_constr({v[2]: 1, v[3]: 1, v[4]: 3}, "<=", 7)
        m.add_constr({v[0]: 1, v[4]: 1}, ">=", 1)
        m.set_objective({v[j]: c for j, c in enumerate([3, 1, 4, 1, 5])})
        return m

    a = solve(build())
    b = solve(build())
    assert a.status == b.status == "optimal"
    assert a.objective == b.objective
    assert np.array_equal(a.x, b.x)


def test_degenerate_cycling_prone_lp():
    # Beale-style degenerate LP; Bland fallback must terminate
    m = LinearModel(sense="min")
    v = [m.add_var(f"x{j}") for j in range(4)]
    m.add_constr({v[0]: 0.25, v[1]: -8, v[2]: -1, v[3]: 9}, "<=", 0)
    m.add_constr({v[0]: 0.5, v[1]: -12, v[2]: -0.5, v[3]: 3}, "<=", 0)
    m.add_constr({v[2]: 1.0}, "<=", 1)
    m.set_objective({v[0]: -0.75, v[1]: 150, v[2]: -0.02, v[3]: 6})
    s = solve(m)
    assert s.status == "optimal"
    assert s.objective == pytest.approx(-0.77, abs=1e-9)


def test_random_lps_match_scipy():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(0)
    for trial in range(120):
        n = int(rng.integers(2, 7))
        rows = int(rng.integers(1, 7))
        A = rng.integers(-4, 5, size=(rows, n)).astype(float)
        b = rng.integers(-3, 12, size=rows).astype(float)
        c = rng.integers(-5, 6, size=n).astype(float)
        ub = np.where(rng.random(n) < 0.5,
                      rng.integers(1, 8, size=n).astype(float), np.inf)
        senses = rng.choice(["<=", ">=", "=="], size=rows, p=[0.6, 0.25, 0.15])
        m = LinearModel(sense="min")
        for j in range(n):
            m.add_var(f"x{j}", 0.0, ub[j])
        for i in range(rows):
            m.add_constr({j: A[i, j] for j in range(n)}, senses[i], b[i])
        m.set_objective({j: c[j] for j in range(n)})
        s = solve(m)
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for i in range(rows):
            if senses[i] == "<=":
                a_ub.append(A[i]); b_ub.append(b[i])
            elif senses[i] == ">=":
                a_ub.append(-A[i]); b_ub.append(-b[i])
            else:
                a_eq.append(A[i]); b_eq.append(b[i])
        ref = linprog(c, A_ub=np.array(a_ub) if a_ub else None,
                      b_ub=np.array(b_ub) if b_ub else None,
                      A_eq=np.array(a_eq) if a_eq else None,
                      b_eq=np.array(b_eq) if b_eq else None,
                      bounds=[(0.0, None if u == np.inf else u) for u in ub],
                      method="highs")
        ref_status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        assert s.status == ref_status, f"trial {trial}"
        if s.status == "optimal":
            assert s.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6), f"trial {trial}"


def test_weak_duality_spot_check():
    # max c'x, Ax <= b, x >= 0 against its dual min b'y, A'y >= c, y >= 0
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, rows = 4, 3
        A = rng.integers(1, 5, size=(rows, n)).astype(float)
        b = rng.integers(4, 12, size=rows).astype(float)
        c = rng.integers(1, 6, size=n).astype(float)
        p = LinearModel(sense="max")
        xs = [p.add_var(f"x{j}") for j in range(n)]
        for i in range(rows):
            p.add_constr({xs[j]: A[i, j] for j in range(n)}, "<=", b[i])
        p.set_objective({xs[j]: c[j] for j in range(n)})
        d = LinearModel(sense="min")
        ys = [d.add_var(f"y{i}") for i in range(rows)]
        for j in range(n):
            d.add_constr({ys[i]: A[i, j] for i in range(rows)}, ">=", c[j])
        d.set_objective({ys[i]: b[i] for i in range(rows)})
        ps, ds = solve(p), solve(d)
        assert ps.status == ds.status == "optimal"
        assert ps.objective <= ds.objective + 1e-7
        # strong duality holds for these bounded feasible pairs
        assert ps.objective == pytest.approx(ds.objective, rel=1e-7, abs=1e-7)


def test_branch_and_bound_matches_enumeration():
    rng = np.random.default_rng(7)
    for trial in range(60):
        nb = int(rng.integers(1, 9))
        rows = int(rng.integers(1, 6))
        A = rng.integers(-4, 5, size=(rows, nb)).astype(float)
        b = rng.integers(0, 10, size=rows).astype(float)
        c = rng.integers(-5, 6, size=nb).astype(float)
        m = LinearModel(sense="max")
        for j in range(nb):
            m.add_var(f"w{j}", 0, 1, "binary")
        for i in range(rows):
            m.add_constr({j: A[i, j] for j in range(nb)}, "<=", b[i])
        m.set_objective({j: c[j] for j in range(nb)})
        s = solve(m)
        best = None
        for assign in product([0, 1], repeat=nb):
            if all(sum(A[i, j] * assign[j] for j in range(nb)) <= b[i] + 1e-9
                   for i in range(rows)):
                val = sum(c[j] * assign[j] for j in range(nb))
                best = val if best is None else max(best, val)
        if best is None:
            assert s.status == "infeasible", f"trial {trial}"
        else:
            assert s.status == "optimal", f"trial {trial}"
            assert s.objective == pytest.approx(best, abs=1e-7), f"trial {trial}"


def test_node_limit_returns_limit_status():
    rng = np.random.default_rng(3)
    m = LinearModel(sense="max")
    n = 14
    w = rng.uniform(1, 5, n)
    v = rng.uniform(1, 5, n)
    cols = [m.add_var(f"w{j}", 0, 1, "binary") for j in range(n)]
    m.add_constr({cols[j]: w[j] for j in range(n)}, "<=", float(w.sum()) / 2)
    m.set_objective({cols[j]: v[j] for j in range(n)})
    s = solve(m, limits={"nodes": 2})
    assert s.status in ("limit", "optimal")


def test_solve_leaves_model_bounds_untouched():
    # a solve that branches must not write its node fixings into the model
    rng = np.random.default_rng(3)
    m = LinearModel(sense="max")
    n = 10
    w = rng.uniform(1, 5, n)
    v = rng.uniform(1, 5, n)
    cols = [m.add_var(f"w{j}", 0, 1, "binary") for j in range(n)]
    m.add_constr({cols[j]: w[j] for j in range(n)}, "<=", float(w.sum()) / 2)
    m.set_objective({cols[j]: v[j] for j in range(n)})
    lb, ub = m.lb, m.ub
    s = solve(m)
    assert s.status == "optimal" and s.stats.nodes > 1
    assert m.lb is lb and m.ub is ub
    assert lb == [0.0] * n and ub == [1.0] * n


def _highs_mip(model):
    """Status and objective of `model` under scipy's HiGHS `milp`."""
    opt = pytest.importorskip("scipy.optimize")
    n, rows = model.num_vars, model.num_constraints
    c = np.zeros(n)
    for j, v in model.obj.items():
        c[j] = v
    sign = 1.0 if model.obj_sense == "min" else -1.0
    A = np.zeros((rows, n))
    lo, hi = np.full(rows, -np.inf), np.full(rows, np.inf)
    for i, con in enumerate(model.constraints):
        A[i, con.cols] = con.vals
        if con.sense != ">=":
            hi[i] = con.rhs
        if con.sense != "<=":
            lo[i] = con.rhs
    res = opt.milp(sign * c, constraints=opt.LinearConstraint(A, lo, hi),
                   bounds=opt.Bounds(model.lb, model.ub),
                   integrality=[int(k == solver.BINARY) for k in model.kind],
                   options={"mip_rel_gap": 1e-9})
    status = {0: "optimal", 2: "infeasible"}[res.status]
    return status, sign * res.fun + model.obj_const if status == "optimal" else None


def _assert_matches_highs(model, sol):
    status, ref = _highs_mip(model)
    assert sol.status == status, model.name
    if status == "optimal":
        assert sol.objective == pytest.approx(ref, rel=1e-6, abs=1e-9), model.name
        bins = np.array(model.kind) == solver.BINARY
        assert np.all(np.isin(sol.x[bins], (0.0, 1.0)))
        value = sum(v * sol.x[j] for j, v in model.obj.items()) + model.obj_const
        assert value == pytest.approx(sol.objective, rel=1e-9, abs=1e-9)


def _random_mixed_binary(rng, trial):
    """Binaries next to free, upper-bounded-only (mirrored) and boxed
    continuous columns; rows keep every unbounded column within +-8."""
    nb, nc = int(rng.integers(2, 8)), int(rng.integers(1, 5))
    m = LinearModel(f"trial{trial}", sense=str(rng.choice(["min", "max"])))
    for j, shape in enumerate(rng.permutation(
            ["binary"] * nb + list(rng.choice(["free", "upper", "boxed"], size=nc)))):
        if shape == "binary":
            m.add_var(f"v{j}", 0, 1, "binary")
            continue
        lo = -INF if shape != "boxed" else float(rng.integers(-4, 2))
        hi = {"free": INF, "upper": float(rng.integers(-2, 6)),
              "boxed": lo + float(rng.integers(0, 6))}[shape]
        col = m.add_var(f"v{j}", lo, hi)
        m.add_constr({col: 1.0}, ">=", -8.0)
        if hi == INF:
            m.add_constr({col: 1.0}, "<=", 8.0)
    for i in range(int(rng.integers(1, 5))):
        coeffs = rng.integers(-4, 5, size=nb + nc)
        m.add_constr({j: float(a) for j, a in enumerate(coeffs)},
                     str(rng.choice(["<=", ">=", "=="], p=[0.6, 0.25, 0.15])),
                     float(rng.integers(-4, 10)))
    m.set_objective({j: float(v) for j, v in enumerate(rng.integers(-5, 6, size=nb + nc))},
                    const=float(rng.integers(-3, 4)))
    return m


def test_mixed_binary_models_match_highs_milp():
    rng = np.random.default_rng(13)
    statuses, branched = [], 0
    for trial in range(80):
        m = _random_mixed_binary(rng, trial)
        s = solve(m)
        _assert_matches_highs(m, s)
        statuses.append(s.status)
        branched += s.stats.nodes > 1
    assert statuses.count("infeasible") >= 5 and statuses.count("optimal") >= 40
    assert branched >= 10


def test_subproblem_and_integer_master_mips_match_highs_milp():
    nodes = {"subproblem": [], "master": []}
    for stores, dcs, zones, horizon, seed in ((2, 0, 1, 1, 1), (2, 1, 1, 1, 2), (2, 0, 1, 2, 1)):
        inst, means = synthetic_instance(stores, dcs, zones, seed=seed, horizon=horizon)
        uset = quantile_bounds_from_means(means)
        pool = [seed_scenario(uset), *sample_scenarios(means, 2, seed)]
        for lam in (0.0, 0.5, 1.0):
            cfg = BioConfig(lam=lam)
            master = build_master(inst, uset, pool[:1], cfg)
            alloc = extract_allocation(master, solve(master), inst, cfg)[0]
            sub = build_subproblem(inst, uset, alloc, lam)
            assert sub.sos1
            s = solve(sub)
            _assert_matches_highs(sub, s)
            nodes["subproblem"].append(s.stats.nodes)
        master = build_master(inst, uset, pool, BioConfig(lam=0.5, integer_allocations=True))
        assert solver.BINARY in master.kind
        s = solve(master)
        _assert_matches_highs(master, s)
        nodes["master"].append(s.stats.nodes)
    # both model classes reached branch-and-bound nodes below the root
    assert max(nodes["subproblem"]) > 1 and max(nodes["master"]) > 1


def _reference_plan():
    """The shipped 7-node reference instance and its week-0 plan means."""
    inst = load_instance(os.path.join(DATA, "reference_sim_instance.json"))
    with open(os.path.join(DATA, "reference_sim_means.json")) as fh:
        doc = json.load(fh)
    return inst, DemandMeans(np.array(doc["walkin"][:2]), np.array(doc["online"][:2]))


def test_reference_rescore_mip_matches_highs_milp():
    # the worst-case rescore MIP of the alternating-heuristic plan of the
    # reference plan on its 35%/65% quantile set
    inst, means = _reference_plan()
    uset = quantile_bounds_from_means(means, 0.35, 0.65)
    rep = solve_two_stage(inst, uset, BioConfig(lam=0.1), CcgOptions(
        subproblem_mode=ALTERNATING, rescore_worst_case=False))
    model = build_subproblem(inst, uset, Allocation(rep.allocation.x), 0.0)
    assert sum(k == solver.BINARY for k in model.kind) == 36
    s = solve(model)
    assert s.stats.nodes > 1
    _assert_matches_highs(model, s)


def _degenerate_mixed_binary(rng, trial):
    """0/1 objective and small nonnegative rows: many optimal vertices."""
    nb, nc = int(rng.integers(4, 9)), int(rng.integers(1, 4))
    m = LinearModel(f"degenerate{trial}", sense="max")
    for j in range(nb):
        m.add_var(f"w{j}", 0, 1, "binary")
    for j in range(nc):
        m.add_var(f"y{j}", 0.0, float(rng.integers(1, 4)))
    for i in range(int(rng.integers(2, 5))):
        m.add_constr({j: float(a) for j, a in enumerate(rng.integers(0, 3, size=nb + nc))},
                     "<=", float(rng.integers(2, 6)))
    m.set_objective({j: float(v) for j, v in enumerate(rng.integers(0, 2, size=nb + nc))})
    return m


def test_warm_and_cold_nodes_reach_different_optima_of_equal_value(monkeypatch):
    rng = np.random.default_rng(23)
    models = [_degenerate_mixed_binary(rng, trial) for trial in range(40)]
    warm = [solve(m) for m in models]
    # every node solved cold, as when no parent basis can be rebuilt
    monkeypatch.setattr(solver._Simplex, "from_basis", classmethod(lambda cls, *a: None))
    cold = [solve(m) for m in models]
    differ = 0
    for m, w, c in zip(models, warm, cold):
        _assert_matches_highs(m, w)
        _assert_matches_highs(m, c)
        differ += not np.array_equal(w.x, c.x)
    assert differ >= 3


def test_warm_infeasible_reports_agree_with_cold_and_highs(monkeypatch):
    # every LP that a re-optimization reports infeasible, in branch-and-bound
    # nodes and in family members, is infeasible for a cold solve and HiGHS
    linprog = pytest.importorskip("scipy.optimize").linprog
    reported = []
    std_solve = solver._StandardLP.solve

    def recording(std, b, lb, ub, warm=None):
        sol, sx = std_solve(std, b, lb, ub, warm)
        if sol.status == "infeasible" and sx is warm:
            reported.append((std, b.copy(), lb.copy(), ub.copy()))
        return sol, sx

    monkeypatch.setattr(solver._StandardLP, "solve", recording)
    rng = np.random.default_rng(29)
    for trial in range(150):
        solve(_random_mixed_binary(rng, trial))
    from_nodes = len(reported)
    for trial in range(60):
        n, rows, k = int(rng.integers(2, 8)), int(rng.integers(1, 7)), 12
        m, _A, _senses, frows, rhs, fcols, ub = _random_family(rng, n, rows, k)
        LPFamily(m, frows, rhs, fcols, ub).solve()
    assert from_nodes >= 15 and len(reported) - from_nodes >= 40
    for std, b, lb, ub in reported:
        assert solver._Simplex(std.A, b, std.c, lb, ub).solve() == "infeasible"
        ref = linprog(std.c, A_eq=std.A, b_eq=b, method="highs",
                      bounds=[(lo, None if hi == INF else hi) for lo, hi in zip(lb, ub)])
        assert ref.status == 2


def test_warm_infeasibility_needs_a_row_beyond_reach_of_small_entries():
    # the second member violates x <= ub by 5e-7 at the warm basis; only y
    # can repair that, through a coefficient below the pivot tolerance over
    # a span of 1e4, so the member is feasible and must not be reported
    # infeasible (HiGHS: optimal)
    m = LinearModel(sense="min")
    x, y = m.add_var("x", 0.0, 10.0), m.add_var("y", 0.0, 1e4)
    m.add_constr({x: 1.0, y: 1e-10}, "==", 5.0)
    m.set_objective({x: 1.0})
    sols = LPFamily(m, [], np.zeros((0, 2)), [x], np.array([[10.0, 5.0 - 5e-7]])).solve()
    assert [s.status for s in sols] == ["optimal", "optimal"]
    assert sols[1].objective == pytest.approx(5.0 - 5e-7, abs=1e-9)


def test_ratio_test_never_overflows():
    # the row's coefficient 1e-300 on the entering column is below the pivot
    # tolerance; dividing by it before masking overflowed
    m = LinearModel(sense="max")
    x1 = m.add_var("x1", 0.0, 1.0)
    x2 = m.add_var("x2", 0.0, 2e300)
    m.add_constr({x1: 1e-300, x2: 1.0}, "<=", 1e300)
    m.set_objective({x1: 1.0, x2: 1e-9})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = solve(m)
    assert s.status == "optimal"
    assert s.x[0] == 1.0 and s.x[1] == pytest.approx(1e300)


def _dense_pivot(T, row, col):
    """The pivot step's tableau update as a dense rank-1 update."""
    T = T.copy()
    T[row] = T[row] / T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    return T


def test_row_sparse_pivot_matches_dense_update():
    # the pivot column holds zeros (both signs) outside the pivot row, one
    # nonzero, or nonzeros only; the tableau has signed zeros elsewhere
    rng = np.random.default_rng(17)
    for trial in range(60):
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        sx = solver._Simplex(np.ones((m, n)), np.ones(m), np.ones(n), np.zeros(n), np.ones(n))
        T = rng.normal(size=(m, n + m)) * (rng.random((m, n + m)) < 0.6)
        T[rng.random((m, n + m)) < 0.1] = -0.0
        row, col = int(rng.integers(m)), int(rng.integers(n + m))
        others = np.arange(m) != row
        kind = trial % 3
        if kind == 0:
            T[others, col] = rng.choice([0.0, -0.0], size=m - 1)
        elif kind == 1:
            T[others, col] = 0.0
            T[int(rng.choice(np.nonzero(others)[0])), col] = rng.normal()
        else:
            T[others, col] = rng.uniform(0.5, 2.0, size=m - 1) * rng.choice([-1, 1], size=m - 1)
        T[row, col] = rng.uniform(0.5, 2.0)
        sx.T = T.copy()
        sx._pivot(row, col, solver._AT_LOWER)
        ref = _dense_pivot(T, row, col)
        # equal values; bit patterns differ at most in the sign of a zero
        assert np.array_equal(sx.T, ref), f"trial {trial}"
        differ = sx.T.view(np.int64) != ref.view(np.int64)
        assert np.all(ref[differ] == 0.0), f"trial {trial}"
        assert sx.basis[row] == col and sx.status[col] == solver._BASIC


def _reference_pivot(sx, row, col, leave_at):
    """`_Simplex._pivot` as it stood before its in-place row update."""
    sx.status[sx.basis[row]] = leave_at
    sx.T[row] = sx.T[row] / sx.T[row, col]
    colvals = sx.T[:, col].copy()
    colvals[row] = 0.0
    nz = np.nonzero(colvals)[0]
    sx.T[nz] -= np.outer(colvals[nz], sx.T[row])
    sx.T[:, col] = 0.0
    sx.T[row, col] = 1.0
    sx.basis[row] = col
    sx.status[col] = solver._BASIC


def _reference_run(sx, cost, allow, bland):
    """`_Simplex._run` as it stood before its loop invariants were hoisted;
    appends to `bland` at each entering choice by Bland's rule."""
    degenerate = 0
    max_iter = 50000 + 200 * (sx.m + sx.n)
    while True:
        sx.iterations += 1
        if sx.iterations > max_iter:
            raise SolverError("simplex iteration safety cap reached")
        z = cost - cost[sx.basis] @ sx.T
        span = sx.ub - sx.lb
        cand = allow & (span > 0) & (
            ((sx.status == solver._AT_LOWER) & (z < -solver.REDUCED_COST_TOL))
            | ((sx.status == solver._AT_UPPER) & (z > solver.REDUCED_COST_TOL))
        )
        cand[sx.basis] = False
        idx = np.nonzero(cand)[0]
        if idx.size == 0:
            return "optimal"
        if degenerate >= solver._BLAND_TRIGGER:
            bland.append(sx.iterations)
            enter = int(idx[0])
        else:
            enter = int(idx[int(np.argmax(np.abs(z[idx])))])
        increasing = sx.status[enter] == solver._AT_LOWER
        d = sx.T[:, enter].copy()
        if not increasing:
            d = -d
        bl = sx.lb[sx.basis]
        bu = sx.ub[sx.basis]
        drop = np.divide(sx.bhat - bl, d, out=np.full(sx.m, INF),
                         where=(d > solver._PIVOT_TOL) & np.isfinite(bl))
        rise = np.divide(bu - sx.bhat, -d, out=np.full(sx.m, INF),
                         where=(d < -solver._PIVOT_TOL) & np.isfinite(bu))
        row_ratio = np.minimum(drop, rise)
        row_ratio = np.maximum(row_ratio, 0.0)
        if sx.m:
            r = int(np.argmin(row_ratio))
            theta_rows = float(row_ratio[r])
            if degenerate >= solver._BLAND_TRIGGER and theta_rows < INF:
                ties = np.nonzero(row_ratio <= theta_rows + 1e-12)[0]
                r = int(ties[int(np.argmin(sx.basis[ties]))])
                theta_rows = float(row_ratio[r])
        else:
            r, theta_rows = -1, INF
        theta_enter = span[enter]
        theta = min(theta_rows, theta_enter)
        if theta == INF:
            return "unbounded"
        degenerate = degenerate + 1 if theta <= 1e-11 else 0
        if theta_enter <= theta_rows:
            sx.bhat -= d * theta_enter
            sx.status[enter] = solver._AT_UPPER if increasing else solver._AT_LOWER
            continue
        sx.bhat = sx.bhat - d * theta
        sx.bhat[r] = (sx.lb[enter] + theta) if increasing else (sx.ub[enter] - theta)
        sx._pivot(r, enter, solver._AT_LOWER if drop[r] <= rise[r] else solver._AT_UPPER)


def test_simplex_loop_matches_the_reference_loop_bit_for_bit():
    # boxed LPs, every other one with most right-hand sides zero (degenerate
    # enough for Bland's rule) and some negative (flipped phase-1 rows); both
    # loops leave the same tableau bytes after each phase
    rng = np.random.default_rng(23)
    bland_lps = 0
    for trial in range(60):
        m, n = int(rng.integers(3, 50)), int(rng.integers(3, 50))
        A = rng.integers(-3, 4, size=(m, n)) * (rng.random((m, n)) < 0.4)
        b = rng.integers(-2, 6, size=m).astype(float)
        if trial % 2:
            b[rng.random(m) < 0.9] = 0.0
        data = (np.hstack([A, np.eye(m)]), b,
                np.concatenate([rng.integers(-5, 6, size=n), np.zeros(m)]).astype(float),
                np.zeros(n + m),
                np.concatenate([rng.integers(1, 5, size=n), np.full(m, INF)]).astype(float))
        lean, ref = solver._Simplex(*data), solver._Simplex(*data)
        bland = []
        ref._pivot = functools.partial(_reference_pivot, ref)
        ref._run = functools.partial(_reference_run, ref, bland=bland)
        for phase in ("phase1", "phase2"):
            status = getattr(lean, phase)()
            assert status == getattr(ref, phase)(), (trial, phase)
            assert lean.iterations == ref.iterations, (trial, phase)
            assert np.array_equal(lean.basis, ref.basis), (trial, phase)
            assert np.array_equal(lean.status, ref.status), (trial, phase)
            assert lean.T.tobytes() == ref.T.tobytes(), (trial, phase)
            assert lean.bhat.tobytes() == ref.bhat.tobytes(), (trial, phase)
            if status == "infeasible":
                break
        bland_lps += bool(bland)
    assert bland_lps >= 1


def test_tableau_rebuilt_from_basis_matches_pivoted_tableau():
    # the optimal tableau of a cold solve, rebuilt from its basis alone; a
    # rebuilt row may sit elsewhere, so rows are matched by their basic column
    rng = np.random.default_rng(19)
    rebuilt = 0
    for trial in range(80):
        std = solver._StandardLP(_random_mixed_binary(rng, trial))
        sx = solver._Simplex(std.A, std.b, std.c, std.lb, std.ub)
        if sx.solve() != "optimal":
            continue
        wx = solver._Simplex.from_basis(std.A, std.b, std.c, std.lb, std.ub,
                                        sx.basis, sx.status, sx.flip)
        assert wx is not None, f"trial {trial}"
        assert sorted(wx.basis) == sorted(sx.basis)
        row_of = {col: i for i, col in enumerate(wx.basis)}
        order = [row_of[col] for col in sx.basis]
        assert np.allclose(wx.T[order], sx.T, rtol=1e-9, atol=1e-9), f"trial {trial}"
        assert np.array_equal(wx.status, sx.status)
        assert wx.reoptimize(std.b, std.lb, std.ub) == "optimal"
        assert np.allclose(wx._assemble(), sx._assemble(), rtol=1e-9, atol=1e-9)
        rebuilt += 1
    assert rebuilt >= 40
    # singular bases: two basic columns on one unit vector (a column of A or
    # an artificial), and two parallel columns with two nonzeros each
    A = np.array([[1.0, 2.0, 0.0, 1.0, 2.0], [0.0, 0.0, 1.0, 1.0, 2.0]])
    for basis in ([0, 1], [0, 5], [3, 4]):
        assert solver._Simplex.from_basis(
            A, np.zeros(2), np.zeros(5), np.zeros(5), np.ones(5), np.array(basis),
            np.zeros(7, dtype=np.int8), np.zeros(2, dtype=bool)) is None


def _arrays(sx):
    return {k: v.tobytes() for k, v in vars(sx).items() if isinstance(v, np.ndarray)}


def test_copies_of_rebuilt_and_grown_simplexes_are_independent():
    # neither a rebuilt nor a grown simplex has basic values before its
    # re-optimization; a copy re-optimized under other bounds leaves the
    # original as it was, and a copy of a rebuild is bit for bit the rebuild
    # made under the copy's bounds
    rng = np.random.default_rng(23)
    rebuilt = grown = 0
    for trial in range(60):
        std = solver._StandardLP(_random_mixed_binary(rng, trial))
        sx = solver._Simplex(std.A, std.b, std.c, std.lb, std.ub)
        if sx.solve() != "optimal":
            continue
        state = (sx.basis, sx.status, sx.flip)
        lb, ub = std.lb.copy(), std.ub.copy()
        j = int(rng.integers(std.ncols))
        if np.isfinite(ub[j]):
            lb[j] = ub[j]
        else:
            ub[j] = lb[j] + 1.0
        wx = solver._Simplex.from_basis(std.A, std.b, std.c, std.lb, std.ub, *state)
        # a grown simplex: one new row, the sum of the columns pinned to its
        # value at the optimum
        xs = sx._assemble()[: sx.n]
        row = np.ones((1, sx.n))
        gx = sx.grown(row, np.append(std.b, xs.sum()), std.c, std.lb, std.ub, sx.n, 0)
        for orig, bounds in ((wx, (lb, ub)), (gx, (std.lb, std.ub))):
            before = _arrays(orig)
            cp = orig.copy()
            assert cp.reoptimize(cp.b, *bounds) in ("optimal", "infeasible", None)
            assert _arrays(orig) == before, trial
        fresh = solver._Simplex.from_basis(std.A, std.b, std.c, lb, ub, *state)
        cp = wx.copy()
        assert cp.reoptimize(std.b, lb, ub) == fresh.reoptimize(std.b, lb, ub)
        assert _arrays(cp) == _arrays(fresh) and cp.iterations == fresh.iterations, trial
        rebuilt += 1
        grown += gx.reoptimize(gx.b, std.lb, std.ub) == "optimal"
    assert rebuilt >= 25 and grown >= 25


def _random_family(rng, n, rows, k):
    """A random LP with finite bounds, plus right-hand sides of its first
    rows and upper bounds of its first columns for k members (some repeated,
    some with zero-width bounds)."""
    A = rng.integers(-4, 5, size=(rows, n)).astype(float)
    b = rng.integers(0, 12, size=rows).astype(float)
    c = rng.integers(-5, 6, size=n).astype(float)
    senses = rng.choice(["<=", ">=", "=="], size=rows, p=[0.7, 0.2, 0.1])
    m = LinearModel(sense=str(rng.choice(["min", "max"])))
    for j in range(n):
        m.add_var(f"x{j}", 0.0, float(rng.integers(1, 8)))
    for i in range(rows):
        m.add_constr({j: A[i, j] for j in range(n)}, senses[i], b[i])
    m.set_objective({j: c[j] for j in range(n)}, const=float(rng.integers(-3, 4)))
    frows = np.arange(int(rng.integers(0, rows + 1)))
    fcols = np.arange(int(rng.integers(1, n + 1)))
    rhs = b[frows, None] + rng.integers(-3, 4, size=(frows.size, k))
    ub = rng.integers(0, 8, size=(fcols.size, k)).astype(float)
    rhs[:, k // 2] = rhs[:, 0]
    ub[:, k // 2] = ub[:, 0]
    return m, A, senses, frows, rhs, fcols, ub


def _member(m, frows, rhs_k, fcols, ub_k):
    mk = LinearModel(sense=m.obj_sense)
    for j in range(m.num_vars):
        mk.add_var(m.var_names[j], m.lb[j], m.ub[j])
    for i, con in enumerate(m.constraints):
        mk.add_constr(list(zip(con.cols, con.vals)), con.sense, con.rhs)
    mk.set_objective(m.obj, const=m.obj_const)
    for i, v in zip(frows, rhs_k):
        mk.constraints[i].rhs = float(v)
    for j, v in zip(fcols, ub_k):
        mk.ub[j] = float(v)
    return mk


def test_solve_family_matches_member_solves_and_highs(monkeypatch):
    linprog = pytest.importorskip("scipy.optimize").linprog
    cold = []
    cold_solve = solver._Simplex.solve
    monkeypatch.setattr(solver._Simplex, "solve",
                        lambda self: cold.append(1) or cold_solve(self))
    rng = np.random.default_rng(11)
    members = family_cold = 0
    for trial in range(60):
        n, rows, k = int(rng.integers(2, 8)), int(rng.integers(1, 7)), 12
        m, A, senses, frows, rhs, fcols, ub = _random_family(rng, n, rows, k)
        before = len(cold)
        sols = LPFamily(m, frows, rhs, fcols, ub).solve()
        family_cold += len(cold) - before
        assert len(sols) == k
        assert sols[k // 2] is sols[0]
        for i in range(k):
            mk = _member(m, frows, rhs[:, i], fcols, ub[:, i])
            ref = solve(mk)
            assert sols[i].status == ref.status, f"trial {trial} member {i}"
            bounds = [(0.0, u) for u in mk.ub]
            sign = 1.0 if m.obj_sense == "min" else -1.0
            b_k = np.array([con.rhs for con in mk.constraints])
            le, ge, eq = senses == "<=", senses == ">=", senses == "=="
            hi = linprog(sign * np.array([m.obj.get(j, 0.0) for j in range(n)]),
                         A_ub=np.vstack([A[le], -A[ge]]),
                         b_ub=np.concatenate([b_k[le], -b_k[ge]]),
                         A_eq=A[eq] if eq.any() else None,
                         b_eq=b_k[eq] if eq.any() else None,
                         bounds=bounds, method="highs")
            assert sols[i].status == {0: "optimal", 2: "infeasible"}[hi.status]
            if ref.status == "optimal":
                assert sols[i].objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
                assert sols[i].objective == pytest.approx(
                    sign * hi.fun + m.obj_const, rel=1e-7, abs=1e-7)
                x = sols[i].x
                assert np.all(x >= -1e-9) and np.all(x <= np.array(mk.ub) + 1e-9)
        members += k
    # most members are re-optimized from a basis, not solved cold
    assert family_cold < members / 2


def test_family_with_other_rows_is_a_fresh_family_bit_for_bit():
    # one LPFamily solved again and again with right-hand sides on rows
    # outside the family, against a fresh family of the model with those
    # right-hand sides; a value or basis left over from the call before
    # would show in a status, an iteration count or a bit of x
    rng = np.random.default_rng(23)
    for trial in range(40):
        n, rows, k = int(rng.integers(2, 8)), int(rng.integers(2, 7)), 8
        m, _A, _senses, frows, rhs, fcols, ub = _random_family(rng, n, rows, k)
        other = np.arange(frows.size, rows)
        base = np.array([con.rhs for con in m.constraints])[other]
        family = LPFamily(m, frows, rhs, fcols, ub)
        shifts = rng.integers(-3, 4, size=(5, other.size))
        for shift in [*shifts, shifts[0], np.zeros(other.size)]:
            got = family.solve(other, base + shift)
            member = _member(m, other, base + shift, [], [])
            ref = LPFamily(member, frows, rhs, fcols, ub).solve()
            for g, r in zip(got, ref, strict=True):
                assert (g.status, g.stats.simplex_iterations) == \
                    (r.status, r.stats.simplex_iterations), trial
                if r.status == "optimal":
                    assert (g.objective, g.x.tobytes()) == (r.objective, r.x.tobytes()), trial


def test_solve_family_rejects_bad_input():
    m = LinearModel(sense="max")
    x = m.add_var("x", 0.0, 3.0)
    f = m.add_var("f", -INF, INF)
    m.add_constr({x: 1.0, f: 1.0}, "<=", 2.0)
    m.set_objective({x: 1.0})
    with pytest.raises(SolverError):
        LPFamily(m, [0], np.ones((1, 2)), [x], np.ones((1, 3))).solve()
    with pytest.raises(SolverError):
        LPFamily(m, [0], np.ones((1, 2)), [f], np.ones((1, 2))).solve()
    m.lb[x] = 1.0
    with pytest.raises(SolverError):
        LPFamily(m, [0], np.ones((1, 2)), [x], np.zeros((1, 2))).solve()
    # family rows and columns must be distinct indices into the model; numpy
    # would read an index of -1 as the last row or column
    m = LinearModel(sense="max")
    x, y = m.add_var("x", 0.0, 3.0), m.add_var("y", 0.0, 3.0)
    m.add_constr({x: 1.0, y: 1.0}, "<=", 4.0)
    m.add_constr({x: 1.0}, "<=", 2.0)
    m.set_objective({x: 1.0, y: 1.0})
    assert [s.objective for s in LPFamily(m, [0], [[3.0]], [y], [[2.0]]).solve()] == [3.0]
    for rows, cols, what in (([0], [-1], "columns"), ([0], [2], "columns"),
                             ([0], [0, 0], "columns"), ([-1], [y], "rows"),
                             ([2], [y], "rows"), ([1, 1], [y], "rows")):
        with pytest.raises(SolverError, match=f"family {what} "):
            LPFamily(m, rows, np.ones((len(rows), 1)), cols, np.ones((len(cols), 1))).solve()


def _random_lp_data(rng):
    """Rows, senses, right-hand sides and column bounds of a random LP; some
    columns are free or bounded above only, and some LPs are infeasible or
    unbounded under some objectives."""
    n, rows = int(rng.integers(2, 7)), int(rng.integers(1, 6))
    A = rng.integers(-4, 5, size=(rows, n)).astype(float)
    b = rng.integers(-3, 12, size=rows).astype(float)
    senses = rng.choice(["<=", ">=", "=="], size=rows, p=[0.6, 0.25, 0.15])
    kinds = rng.choice(["box", "lower", "free", "upper"], size=n, p=[0.4, 0.3, 0.15, 0.15])
    bounds = [{"box": (0.0, float(rng.integers(1, 8))), "lower": (0.0, INF),
               "free": (-INF, INF), "upper": (-INF, float(rng.integers(0, 5)))}[k]
              for k in kinds]
    return A, b, senses, bounds


def _lp_from(data, coeffs, sense, const):
    A, b, senses, bounds = data
    m = LinearModel(sense=sense)
    for j, (lo, hi) in enumerate(bounds):
        m.add_var(f"x{j}", lo, hi)
    for i in range(len(b)):
        m.add_constr({j: A[i, j] for j in range(A.shape[1])}, senses[i], b[i])
    m.set_objective(coeffs, const=const)
    return m


def _same_solution(a, b):
    return (a.status == b.status and repr(a.objective) == repr(b.objective)
            and a.stats.simplex_iterations == b.stats.simplex_iterations
            and a.stats.nodes == b.stats.nodes
            and (a.x is None and b.x is None
                 or a.x is not None and b.x is not None
                 and a.x.tobytes() == b.x.tobytes()))


def _count_phase1(monkeypatch):
    runs = []
    phase1 = solver._Simplex.phase1

    def counting(sx):
        runs.append(sx)
        return phase1(sx)

    monkeypatch.setattr(solver._Simplex, "phase1", counting)
    return runs


def test_objective_only_resolves_repeat_cold_solves(monkeypatch):
    # one model re-solved under several objectives, senses and constants
    # gives field for field what a freshly built model gives, phase-1 pivots
    # included, and runs phase 1 on its first solve only
    runs = _count_phase1(monkeypatch)
    rng = np.random.default_rng(41)
    statuses = []
    for trial in range(80):
        data = _random_lp_data(rng)
        n = data[0].shape[1]
        m = None
        for k in range(5):
            coeffs = {j: float(rng.integers(-5, 6)) for j in range(n)}
            sense, const = str(rng.choice(["min", "max"])), float(rng.integers(-3, 4))
            if m is None:
                m = _lp_from(data, coeffs, sense, const)
            else:
                m.set_objective(coeffs, sense=sense, const=const)
            before = len(runs)
            sol = solve(m)
            reused = len(runs) == before
            ref = solve(_lp_from(data, coeffs, sense, const))
            assert _same_solution(sol, ref), (trial, k)
            assert reused == (k >= 1), (trial, k)
            statuses.append(sol.status)
    assert {statuses.count(s) >= 20 for s in ("optimal", "infeasible", "unbounded")} == {True}


def test_objective_only_mip_resolves_repeat_cold_solves(monkeypatch):
    # a mixed-binary model re-solved under new objectives, senses and
    # constants, with and without an incumbent and limits, gives field for
    # field what a freshly built model gives, nodes included: its root runs
    # phase 2 from the kept phase 1, which only its first solve runs
    runs = _count_phase1(monkeypatch)
    statuses, branched = [], 0
    for trial in range(60):
        m = _random_mixed_binary(np.random.default_rng([47, trial]), trial)
        rng = np.random.default_rng([48, trial])
        prev = None
        for k in range(4):
            if k:
                m.set_objective({j: float(v) for j, v in enumerate(
                    rng.integers(-5, 6, size=m.num_vars))},
                    sense=str(rng.choice(["min", "max"])), const=float(rng.integers(-3, 4)))
            fresh = _random_mixed_binary(np.random.default_rng([47, trial]), trial)
            fresh.set_objective(m.obj, sense=m.obj_sense, const=m.obj_const)
            kw = [{}, {"limits": {"nodes": 2}}, {"limits": {"time": 60.0}}, {}][k]
            if k == 3 and prev is not None and prev.x is not None:
                kw["incumbent"] = (sum(v * prev.x[j] for j, v in m.obj.items()) + m.obj_const,
                                   prev.x)
            before = len(runs)
            ref = solve(fresh, **kw)
            cold_runs, kept, before = len(runs) - before, m._phase1, len(runs)
            sol = solve(m, **kw)
            assert _same_solution(sol, ref), (trial, k)
            # phase 1 of the root only; cold nodes run their own
            assert len(runs) - before == cold_runs - (k >= 1), (trial, k)
            assert k == 0 or m._phase1 is kept, (trial, k)
            statuses.append(sol.status)
            branched += sol.stats.nodes > 1
            prev = ref
    assert statuses.count("infeasible") >= 10 and statuses.count("limit") >= 10
    assert statuses.count("optimal") >= 200 and branched >= 30


def test_structure_edits_force_a_fresh_phase1(monkeypatch):
    runs = _count_phase1(monkeypatch)
    data = (np.array([[1.0, 2.0], [3.0, -1.0]]), np.array([8.0, 6.0]),
            np.array(["<=", ">="]), [(0.0, 5.0), (0.0, INF)])
    edits = [
        lambda m: m.add_constr({0: 1.0, 1: 1.0}, "<=", 4.5),
        lambda m: m.add_var("z", 0.0, 2.0),
        lambda m: m.add_constr({1: 1.0, 2: -1.0}, ">=", 0.5),
        lambda m: m.ub.__setitem__(0, 1.5),
        lambda m: m.lb.__setitem__(2, 1.0),
        lambda m: setattr(m.constraints[0], "rhs", 7.0),
        lambda m: m.constraints[1].vals.__setitem__(0, 2.5),
        lambda m: setattr(m.constraints[2], "sense", "=="),
    ]
    coeffs = {0: -1.0, 1: -2.0}
    m = _lp_from(data, coeffs, "min", 0.0)
    solve(m)
    solve(m)
    for k, edit in enumerate(edits):
        edit(m)
        fresh = _lp_from(data, coeffs, "min", 0.0)
        for e in edits[: k + 1]:
            e(fresh)
        before = len(runs)
        sol = solve(m)
        assert len(runs) == before + 1, k
        assert _same_solution(sol, solve(fresh)), k
        # the same structure again reuses the new phase 1
        m.set_objective({0: -1.0, 1: -1.0})
        before = len(runs)
        solve(m)
        assert len(runs) == before, k
        m.set_objective(coeffs)


def test_extending_a_model_releases_its_phase1_state(monkeypatch):
    # add_var and add_constr drop the kept phase 1 at once but keep the last
    # optimal simplex; the next solve re-optimizes from it and runs no phase
    # 1, unless the re-optimization gives up
    runs = _count_phase1(monkeypatch)
    data = (np.array([[1.0, 2.0], [3.0, -1.0]]), np.array([8.0, 6.0]),
            np.array(["<=", ">="]), [(0.0, 5.0), (0.0, INF)])
    m = _lp_from(data, {0: -1.0, 1: -2.0}, "min", 0.0)
    for extend in (lambda: m.add_var("z", 0.0, 2.0),
                   lambda: m.add_constr({0: 1.0, 2: 1.0}, "<=", 4.5),
                   lambda: m.add_constr({1: 1.0}, "<=", 1.0)):
        assert solve(m).status == "optimal"
        optimal = m._phase1.optimal
        assert optimal is not None
        extend()
        assert m._phase1.phase1 is None and m._phase1.optimal is optimal
        assert not hasattr(m._phase1.std, "A")
        before = len(runs)
        assert solve(m).status == "optimal"
        assert len(runs) == before and m._phase1.phase1 is None
    # a re-optimization that gives up is solved cold, with a fresh phase 1;
    # the growing model keeps the optimum of that solve, not its phase 1
    monkeypatch.setattr(solver._Simplex, "reoptimize", lambda sx, b, lb, ub: None)
    m.add_var("w", 0.0, 1.0)
    before = len(runs)
    assert solve(m).status == "optimal"
    assert len(runs) == before + 1
    assert m._phase1.phase1 is None and m._phase1.optimal is not None


def _grown_lp(rng):
    """A random LP as `_random_lp_data` gives, and the same LP with new
    columns and rows: each new row reads old and new columns, and some make
    the LP infeasible."""
    data = _random_lp_data(rng)
    A, b, senses, bounds = data
    k, r = int(rng.integers(0, 3)), int(rng.integers(0, 4))
    new_bounds = [(0.0, float(rng.integers(1, 6))) if rng.random() < 0.5 else (-INF, INF)
                  for _ in range(k)]
    n = A.shape[1] + k
    A2 = np.vstack([np.hstack([A, np.zeros((A.shape[0], k))]),
                    rng.integers(-4, 5, size=(r, n)) * (rng.random((r, n)) < 0.6)])
    grown = (A2, np.concatenate([b, rng.integers(-3, 12, size=r)]).astype(float),
             np.concatenate([senses, rng.choice(["<=", ">=", "=="], size=r, p=[0.6, 0.3, 0.1])]),
             bounds + new_bounds)
    return data, grown


def test_grown_lps_reoptimize_to_the_cold_optimum(monkeypatch):
    # an LP solved optimal, grown by columns and rows and solved again: the
    # warm solve's status and objective are the cold solve's; a new free
    # column with a cost may leave the old basis dual infeasible, and the
    # solve then goes cold, as it does for an infeasible LP
    runs = _count_phase1(monkeypatch)
    rng = np.random.default_rng(53)
    grown_solves = warm = 0
    statuses = []
    for trial in range(150):
        data, grown = _grown_lp(rng)
        n0, n = data[0].shape[1], grown[0].shape[1]
        coeffs = {j: float(rng.integers(-5, 6)) for j in range(n0)}
        sense = str(rng.choice(["min", "max"]))
        m = _lp_from(data, coeffs, sense, 0.0)
        if solve(m).status != "optimal":
            continue
        for j in range(n0, n):
            m.add_var(f"x{j}", *grown[3][j])
        A, b, senses = grown[0], grown[1], grown[2]
        for i in range(data[0].shape[0], A.shape[0]):
            m.add_constr({j: A[i, j] for j in range(n)}, senses[i], b[i])
        m.set_objective({**coeffs, **{j: float(rng.integers(-1, 2)) for j in range(n0, n)}})
        before = len(runs)
        sol = solve(m)
        warm += len(runs) == before
        ref = solve(_lp_from(grown, m.obj, sense, 0.0))
        assert sol.status == ref.status, trial
        if ref.status == "optimal":
            assert sol.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9), trial
        grown_solves += 1
        statuses.append(sol.status)
    assert grown_solves >= 60 and statuses.count("infeasible") >= 5
    assert statuses.count("optimal") >= 40 and warm >= 25


def _grown_reference_master():
    """A CCG master solved once and grown by one scenario block, its config,
    and a third scenario."""
    inst, means = synthetic_instance(3, 1, 2, seed=2)
    uset = quantile_bounds_from_means(means)
    cfg = BioConfig(lam=0.3)
    pool = [seed_scenario(uset), *sample_scenarios(means, 2, seed=5)]
    master = build_master(inst, uset, pool[:1], cfg)
    assert solve(master).status == "optimal"
    add_master_scenario(master, inst, pool[1], cfg)
    return master, inst, uset, cfg, pool


def test_grown_master_reoptimizes_without_phase1(monkeypatch):
    runs = _count_phase1(monkeypatch)
    master = _grown_reference_master()[0]
    reoptimize, ended = solver._Simplex.reoptimize, []
    monkeypatch.setattr(solver._Simplex, "reoptimize",
                        lambda sx, *a: ended.append(reoptimize(sx, *a)) or ended[-1])
    before = len(runs)
    sol = solve(master)
    assert ended == ["optimal"] and len(runs) == before
    # simplex_iterations counts the dual pivots
    assert sol.status == "optimal" and sol.stats.simplex_iterations > 0


@pytest.mark.parametrize("refuse", ["gives up", "misses a row"])
def test_grown_master_falls_back_to_the_cold_solve(monkeypatch, refuse):
    # a grown master whose re-optimization gives up, or whose warm x misses
    # a row, equals a cold solve of the same model bit for bit
    runs = _count_phase1(monkeypatch)
    master, inst, uset, cfg, pool = _grown_reference_master()
    add_master_scenario(master, inst, pool[2], cfg)
    if refuse == "gives up":
        monkeypatch.setattr(solver._Simplex, "reoptimize", lambda sx, *a: None)
    else:
        monkeypatch.setattr(solver, "_ROW_TOL", -1.0)
    before = len(runs)
    sol = solve(master)
    assert len(runs) == before + 1
    assert _same_solution(sol, solve(build_master(inst, uset, pool, cfg)))


@pytest.mark.parametrize("lam, iterations, objective", [(0.0, 7, -2200.6492151209145),
                                                        (0.1, 6, -2027.9747460753208)])
def test_reference_plan_masters_run_phase1_once(monkeypatch, lam, iterations, objective):
    # the week-0 plans of `simulate --policy bio0 bio10` on the shipped
    # reference fixtures: one grown master of each ends its dual simplex with
    # a row 1-2e-12 outside its bound and no column to enter; refactorized,
    # it re-optimizes warm, so phase 1 runs on the first master only
    runs = _count_phase1(monkeypatch)
    inst = load_instance(os.path.join(DATA, "reference_sim_instance.json"))
    with open(os.path.join(DATA, "reference_sim_means.json")) as fh:
        doc = json.load(fh)
    uset = quantile_bounds_from_means(
        DemandMeans(np.array(doc["walkin"][:2]), np.array(doc["online"][:2])))
    masters, solve_ = [], ccg.solve

    def solving(model, *args, **kwargs):
        before = len(runs)
        sol = solve_(model, *args, **kwargs)
        if model.name == "master":
            masters.append(len(runs) - before)
        return sol

    monkeypatch.setattr(ccg, "solve", solving)
    rep = solve_two_stage(inst, uset, BioConfig(lam=lam), simulate.PolicySpec("bio", lam).ccg)
    assert rep.iterations == iterations and masters == [1] + [0] * (iterations - 1)
    assert rep.objective == pytest.approx(objective, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("pivoted", [False, True])
def test_grown_master_refactorizes_when_the_dual_simplex_gives_up(monkeypatch, pivoted):
    # the first re-optimization of a grown master gives up, at once or after
    # its pivots; the tableau rebuilt from the basis it reached re-optimizes
    # to the cold solve's objective with no phase 1, and simplex_iterations
    # counts the dual pivots of both runs
    runs = _count_phase1(monkeypatch)
    master, inst, uset, cfg, pool = _grown_reference_master()
    add_master_scenario(master, inst, pool[2], cfg)
    reoptimize, pivots = solver._Simplex.reoptimize, []

    def first_gives_up(sx, *args):
        status = reoptimize(sx, *args) if pivots or pivoted else None
        pivots.append(sx.iterations)
        return status if len(pivots) > 1 else None

    monkeypatch.setattr(solver._Simplex, "reoptimize", first_gives_up)
    before = len(runs)
    sol = solve(master)
    assert len(runs) == before and len(pivots) == 2
    assert (pivots[0] > 0) == pivoted
    assert sol.status == "optimal" and sol.stats.simplex_iterations == sum(pivots)
    # the rebuilt simplex is kept for the next growth, without the matrix
    assert master._phase1.optimal is not None and not hasattr(master._phase1.std, "A")
    monkeypatch.undo()
    cold = solve(build_master(inst, uset, pool, cfg))
    assert sol.objective == pytest.approx(cold.objective, rel=1e-9)


@pytest.mark.parametrize("refuse, why", [("gives up", "gave up"),
                                         ("ends infeasible", "ended infeasible"),
                                         ("misses a row", "row missed"),
                                         ("gives up once", "gave up")])
def test_grown_lp_logs_its_refactorization_and_cold_solve(monkeypatch, caplog, capsys,
                                                          refuse, why):
    # one DEBUG line when a grown LP is refactorized and one when it still
    # goes cold, each with the model, the dual pivots so far and the reason
    master, inst, uset, cfg, pool = _grown_reference_master()
    add_master_scenario(master, inst, pool[2], cfg)
    reoptimize, pivots = solver._Simplex.reoptimize, []

    def refusing(sx, *args):
        status = reoptimize(sx, *args)
        pivots.append(sx.iterations)
        if refuse == "misses a row" or refuse == "gives up once" and len(pivots) > 1:
            return status
        return "infeasible" if refuse == "ends infeasible" else None

    monkeypatch.setattr(solver._Simplex, "reoptimize", refusing)
    if refuse == "misses a row":
        monkeypatch.setattr(solver, "_ROW_TOL", -1.0)
    with caplog.at_level("DEBUG", logger="bioinv"):
        assert solve(master).status == "optimal"
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("grown LP")]
    expected = [f"grown LP master refactorized after {pivots[0]} dual pivots: {why}"]
    if refuse != "gives up once":
        expected.append(f"grown LP master solved cold after {sum(pivots)} dual pivots: {why}")
    assert len(pivots) == 2 and pivots[0] > 0 and lines == expected
    assert all(r.levelname == "DEBUG" and r.name == "bioinv.solver" for r in caplog.records)
    assert capsys.readouterr().out == ""


def test_solved_models_are_freed_without_the_cycle_collector():
    import gc
    import weakref
    inst, means = synthetic_instance(2, 1, 1, seed=1, horizon=2)
    uset = quantile_bounds_from_means(means)
    alloc = Allocation(np.ones((inst.horizon, inst.num_nodes)))
    data = (np.array([[1.0, 1.0]]), np.array([4.0]), np.array(["<="]),
            [(0.0, 3.0), (0.0, 3.0)])
    lp, once = _lp_from(data, {0: 1.0}, "max", 0.0), _lp_from(data, {1: 1.0}, "max", 0.0)
    dual = build_subproblem(inst, uset, alloc, 0.1, fixed_scenario=seed_scenario(uset))
    mip = build_subproblem(inst, uset, alloc, 0.1)
    # a CCG master, solved, grown by a scenario and solved again
    cfg = BioConfig(lam=0.1)
    master = build_master(inst, uset, [seed_scenario(uset)], cfg)
    solve(master)
    add_master_scenario(master, inst, sample_scenarios(means, 1, seed=1)[0], cfg)
    gc.disable()
    try:
        for m, solves in ((lp, 3), (once, 1), (dual, 3), (master, 1), (mip, 2)):
            for _ in range(solves):
                assert solve(m).status == "optimal"
            assert m._phase1   # phase-1 state held
            # with the dense matrix only for branch-and-bound's node rebuilds
            assert hasattr(m._phase1[1], "A") == (m is mip)
        refs = [weakref.ref(m) for m in (lp, once, dual, master, mip)]
        del m, lp, once, dual, master, mip
        assert [r() for r in refs] == [None] * 5
    finally:
        gc.enable()


def _reference_solve(model, limits=None, incumbent=None):
    """The branch-and-bound of `solve` as it stood with its nested closures
    and the tree in the model's own sense; mixed-binary models only."""
    t0 = time.perf_counter()
    limits = limits or {}
    time_limit = limits.get("time")
    node_limit = limits.get("nodes")

    binaries = [j for j in range(model.num_vars) if model.kind[j] == BINARY]
    std, sol, root = solver._solve_from_phase1(model, solver._key(model), t0)
    stats = SolveStats(simplex_iterations=sol.stats.simplex_iterations, nodes=1)

    maximize = model.obj_sense == "max"

    def better(a, b):
        return a > b if maximize else a < b

    best_obj = None
    best_x = None
    if incumbent is not None:
        best_obj = float(incumbent[0])
        best_x = np.asarray(incumbent[1], dtype=float).copy()

    def prune_target():
        slack = abs(best_obj) * OPT_TOL + 1e-9
        return best_obj + (slack if maximize else -slack)

    def frac_binary(xv):
        worst_j, worst_f = -1, INT_TOL
        for j in binaries:
            f = abs(xv[j] - round(xv[j]))
            if f > worst_f:
                worst_f, worst_j = f, j
        return worst_j

    def accept(xv, ob):
        nonlocal best_obj, best_x
        if best_obj is None or better(ob, best_obj):
            best_obj = ob
            best_x = xv.copy()
            for j in binaries:
                best_x[j] = round(best_x[j])

    def branch_children(xv, fixings):
        best_g, best_spread = -1, 0.0
        for gi, (cols, weights) in enumerate(model.sos1):
            support = [(c, w) for c, w in zip(cols, weights)
                       if fixings.get(c, (0.0, 1.0))[1] > 0.5 and xv[c] > INT_TOL]
            if len(support) <= 1:
                continue
            spread = max(w for _, w in support) - min(w for _, w in support)
            if spread > best_spread + 1e-12:
                best_spread, best_g = spread, gi
        if best_g >= 0:
            cols, weights = model.sos1[best_g]
            support = [(c, w) for c, w in zip(cols, weights)
                       if fixings.get(c, (0.0, 1.0))[1] > 0.5]
            support.sort(key=lambda cw: cw[1])
            mass = 0.0
            cut = len(support) // 2
            for i, (c, _w) in enumerate(support):
                mass += xv[c]
                if mass >= 0.5 - 1e-12:
                    cut = min(max(i + 1, 1), len(support) - 1)
                    break
            low = [c for c, _ in support[:cut]]
            high = [c for c, _ in support[cut:]]
            low_mass = sum(xv[c] for c in low)
            halves = (low, high) if low_mass >= 0.5 else (high, low)
            return [{**fixings, **dict.fromkeys(drop, (0.0, 0.0))}
                    for drop in (halves[1], halves[0])]
        j = frac_binary(xv)
        if j < 0:
            return None
        return [{**fixings, j: (v, v)} for v in ((1.0, 0.0) if xv[j] >= 0.5 else (0.0, 1.0))]

    def relaxation(fixings, parent):
        lb, ub = std.lb.copy(), std.ub.copy()
        for j, (lo, hi) in fixings.items():
            lb[std.pos[j]], ub[std.pos[j]] = lo, hi
        sol, sx = std.solve(std.b, lb, ub, solver._Simplex.from_basis(
            std.A, std.b, std.c, lb, ub, *parent))
        stats.simplex_iterations += sol.stats.simplex_iterations
        stats.nodes += 1
        return sol.status, sol.objective, sol.x, (sx.basis, sx.status, sx.flip)

    status, obj, x, state = sol.status, sol.objective, sol.x, (root.basis, root.status, root.flip)
    del root
    if status == "unbounded":
        stats.wall_time = time.perf_counter() - t0
        return Solution("unbounded", float("nan"), None, stats)

    heap = []
    tick = itertools.count()

    def push(bound, fixings, parent):
        heapq.heappush(heap, (-bound if maximize else bound, next(tick), fixings, bound, parent))

    if status == "optimal":
        if frac_binary(x) < 0:
            accept(x, obj)
        else:
            push(obj, {}, state)

    hit_limit = False
    while heap:
        if (time_limit is not None and time.perf_counter() - t0 > time_limit
                or node_limit is not None and stats.nodes >= node_limit):
            hit_limit = True
            break
        _, _, fixings, bound, parent = heapq.heappop(heap)
        if best_obj is not None and not better(bound, prune_target()):
            continue
        status, obj, x, state = relaxation(fixings, parent)
        if status != "optimal":
            continue
        if best_obj is not None and not better(obj, prune_target()):
            continue
        children = branch_children(x, fixings)
        if children is None:
            accept(x, obj)
            continue
        for child in children:
            push(obj, child, state)

    stats.wall_time = time.perf_counter() - t0
    if best_x is None:
        return Solution("limit" if hit_limit else "infeasible", float("nan"), None, stats)
    return Solution("limit" if hit_limit else "optimal", best_obj, best_x, stats)


def _random_sos1_model(rng, trial):
    """SOS1 groups of binaries, each choosing one weight (some tied, in no
    order) for a free level column, next to plain binaries and boxed
    continuous columns; random rows over the levels and the other columns."""
    m = LinearModel(f"sos{trial}", sense=str(rng.choice(["min", "max"])))
    levels = []
    for g in range(int(rng.integers(2, 5))):
        weights = rng.integers(-3, 10, size=int(rng.integers(2, 7))).astype(float)
        cols = [m.add_var(f"z{g}_{i}", 0, 1, "binary") for i in range(weights.size)]
        m.add_constr({c: 1.0 for c in cols}, "==", 1.0)
        levels.append(m.add_var(f"d{g}", -INF, INF))
        m.add_constr({levels[-1]: 1.0, **{c: -w for c, w in zip(cols, weights)}}, "==", 0.0)
        m.add_sos1(cols, weights)
    others = [m.add_var(f"w{j}", 0, 1, "binary") for j in range(int(rng.integers(0, 4)))]
    others += [m.add_var(f"y{j}", 0.0, float(rng.integers(1, 6)))
               for j in range(int(rng.integers(1, 4)))]
    cols = levels + others
    for i in range(int(rng.integers(2, 6))):
        m.add_constr({j: float(a) for j, a in zip(cols, rng.integers(-4, 5, size=len(cols)))},
                     str(rng.choice(["<=", ">="], p=[0.7, 0.3])), float(rng.integers(-2, 16)))
    m.set_objective({j: float(v) for j, v in zip(cols, rng.integers(-5, 6, size=len(cols)))},
                    const=float(rng.integers(-3, 4)))
    return m


def _random_knapsack(rng, trial):
    """Binaries under one or two knapsack rows at half their weight: deep
    trees of fractional nodes."""
    n = int(rng.integers(6, 13))
    m = LinearModel(f"knapsack{trial}", sense=str(rng.choice(["min", "max"])))
    cols = [m.add_var(f"w{j}", 0, 1, "binary") for j in range(n)]
    for i in range(int(rng.integers(1, 3))):
        w = rng.uniform(1, 5, n)
        m.add_constr({c: a for c, a in zip(cols, w)}, "<=" if m.obj_sense == "max" else ">=",
                     float(w.sum()) / 2)
    m.set_objective({c: v for c, v in zip(cols, rng.uniform(1, 5, n))})
    return m


def _assert_same_tree(model, **kw):
    """`solve` and `_reference_solve` agree on status, objective repr, x
    bytes, nodes and simplex iterations; returns the solution."""
    sol = solve(model, **kw)
    ref = _reference_solve(model, **kw)
    assert _same_solution(sol, ref), (model.name, kw)
    return sol


def _compare_with_incumbents(model, seen):
    """Plain, under node limits of 2 and 3 (the limit of 3 falls between
    the root's first two children), and with the plain optimum (and that
    optimum less a relative 1e-7) as the incumbent."""
    sol = _assert_same_tree(model)
    seen.append(sol)
    for nodes in (2, 3):
        seen.append(_assert_same_tree(model, limits={"nodes": nodes}))
    if sol.x is not None:
        value = sum(v * sol.x[j] for j, v in model.obj.items()) + model.obj_const
        worse = value - (1e-7 * abs(value) + 1e-9) * (1 if model.obj_sense == "max" else -1)
        for inc in (value, worse):
            seen.append(_assert_same_tree(model, incumbent=(inc, sol.x)))
            for nodes in (2, 3):
                seen.append(_assert_same_tree(model, limits={"nodes": nodes},
                                              incumbent=(inc, sol.x)))


def _random_models():
    for seed, make, trials in ((61, _random_mixed_binary, 60), (62, _random_sos1_model, 50),
                               (63, _random_knapsack, 30)):
        for trial in range(trials):
            yield make(np.random.default_rng([seed, trial]), trial)


def _subproblem_mips():
    """Subproblem MIPs of three small instances, each at three weights: one
    model per instance, re-pointed between the yields."""
    for stores, dcs, zones, horizon, seed in ((2, 0, 1, 1, 1), (2, 1, 1, 1, 2), (2, 0, 1, 2, 1)):
        inst, means = synthetic_instance(stores, dcs, zones, seed=seed, horizon=horizon)
        uset = quantile_bounds_from_means(means)
        cfg = BioConfig(lam=0.3)
        master = build_master(inst, uset, [seed_scenario(uset)], cfg)
        alloc = extract_allocation(master, solve(master), inst, cfg)[0]
        sub = build_subproblem(inst, uset, alloc, 0.3)
        for lam in (0.0, 0.3, 1.0):
            set_allocation(sub, inst, alloc, lam)
            yield sub


def test_branch_and_bound_matches_the_reference_tree_on_random_models():
    seen = []
    for model in _random_models():
        _compare_with_incumbents(model, seen)
    statuses = [s.status for s in seen]
    assert statuses.count("limit") >= 150 and statuses.count("infeasible") >= 50
    assert sum(s.stats.nodes > 4 for s in seen) >= 120


def test_branch_and_bound_matches_the_reference_tree_on_subproblem_mips():
    seen = []
    for sub in _subproblem_mips():
        _compare_with_incumbents(sub, seen)
    assert max(s.stats.nodes for s in seen) > 4


def test_each_parent_basis_is_rebuilt_once_for_both_children(monkeypatch):
    # a node's two children re-optimize from one rebuild of its basis: no
    # parent state is rebuilt twice, and a tree makes about one rebuild per
    # sibling pair
    rebuilt = {}  # id of each rebuilt basis -> the basis, held so ids stay unique
    plain = solver._Simplex.from_basis.__func__

    def counting(cls, A, b, c, lb, ub, basis, status, flip):
        assert id(basis) not in rebuilt, "a parent state rebuilt twice"
        rebuilt[id(basis)] = basis
        return plain(cls, A, b, c, lb, ub, basis, status, flip)

    monkeypatch.setattr(solver._Simplex, "from_basis", classmethod(counting))
    trees = 0
    for model in itertools.chain(_subproblem_mips(), _random_models()):
        before = len(rebuilt)
        sol = solve(model)
        if sol.stats.nodes > 10:
            assert len(rebuilt) - before <= sol.stats.nodes // 2 + 1, model.name
            trees += 1
    assert trees >= 20


def test_the_root_pop_takes_no_spare_copy(monkeypatch):
    # the fractional root, the first node popped, has no sibling: its
    # rebuild is not copied, while every later rebuild keeps a copy for its
    # sibling
    events = []
    plain, copy_ = solver._Simplex.from_basis.__func__, solver._Simplex.copy

    def rebuilding(cls, *args):
        sx = plain(cls, *args)
        events.append("singular" if sx is None else "rebuild")
        return sx

    monkeypatch.setattr(solver._Simplex, "from_basis", classmethod(rebuilding))
    monkeypatch.setattr(solver._Simplex, "copy", lambda sx: events.append("copy") or copy_(sx))
    roots = later = 0
    for model in itertools.chain(_subproblem_mips(), _random_models()):
        events.clear()
        solve(model)
        nodes = [i for i, e in enumerate(events) if e != "copy"]
        if not nodes:
            continue
        if events[nodes[0]] == "rebuild":
            assert events[nodes[0] + 1: nodes[0] + 2] != ["copy"], model.name
            roots += 1
        for i in nodes[1:]:
            if events[i] == "rebuild":
                assert events[i + 1] == "copy", model.name
                later += 1
    assert roots >= 50 and later >= 500


def test_node_rebuilds_leave_numpy_ma_unimported():
    # np.unique's first call imports numpy.ma, 1.5 MB of resident memory
    # that a run paid at its first tableau rebuild; nor do the dual simplex
    # of a family batch (a cold member, then one dual pivot each) or the
    # re-solve of a grown LP (one dual pivot) import it
    code = """import sys
from bioinv.solver import BINARY, LinearModel, LPFamily, solve
m = LinearModel(sense="max")
for i in range(3):
    m.add_var(f"x{i}", 0.0, 1.0, BINARY)
m.add_constr({0: 2.0, 1: 3.0, 2: 4.0}, "<=", 6.0)
m.set_objective({0: 3.0, 1: 4.0, 2: 5.0})
sol = solve(m)
print(sol.status, sol.stats.nodes, "numpy.ma" in sys.modules)
lp = LinearModel(sense="max")
x, y = lp.add_var("x", 0.0, 3.0), lp.add_var("y", 0.0, 3.0)
lp.add_constr({x: 1.0, y: 2.0}, "<=", 4.0)
lp.set_objective({x: 2.0, y: 3.0})
sols = LPFamily(lp, [0], [[4.0, 10.0, 3.0]], [x], [[3.0, 3.0, 1.0]]).solve()
print(*[s.stats.simplex_iterations for s in sols], "numpy.ma" in sys.modules)
solve(lp)
lp.add_constr({x: 1.0, lp.add_var("w", 0.0, 1.0): 1.0}, "<=", 2.5)
sol = solve(lp)
print(sol.status, sol.objective, sol.stats.simplex_iterations, "numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.split() == ["optimal", "4", "False", "4", "1", "1", "False",
                                   "optimal", "7.25", "1", "False"], proc.stderr


def test_integral_root_is_accepted_only_when_strictly_better():
    # the root LP of max 2 x + y, x + y <= 1 is integral: x = 1, y = 0
    m = LinearModel(sense="max")
    x, y = m.add_var("x", 0, 1, "binary"), m.add_var("y", 0, 1, "binary")
    m.add_constr({x: 1.0, y: 1.0}, "<=", 1.0)
    m.set_objective({x: 2.0, y: 1.0})
    plain = _assert_same_tree(m)
    assert plain.stats.nodes == 1 and plain.objective == 2.0
    other = np.array([0.0, 1.0])
    # an incumbent within OPT_TOL below the root: the root replaces it
    near = _assert_same_tree(m, incumbent=(2.0 - 1e-9, other))
    assert near.objective == 2.0 and near.x.tobytes() == plain.x.tobytes()
    # an incumbent equal to the root: the root does not replace it
    tie = _assert_same_tree(m, incumbent=(2.0, other))
    assert tie.status == "optimal" and tie.x.tobytes() == other.tobytes()


def test_limit_with_only_prunable_nodes_left_returns_limit():
    # the root LP of max y, y <= 1, y <= 2 w (w binary) is fractional with
    # the bound of the optimum; with the optimum as the incumbent the pushed
    # root can only be pruned, yet a node limit of 1 falls due before its pop
    m = LinearModel(sense="max")
    w, y = m.add_var("w", 0, 1, "binary"), m.add_var("y", 0, 1)
    m.add_constr({y: 1.0, w: -2.0}, "<=", 0.0)
    m.set_objective({y: 1.0})
    plain = _assert_same_tree(m)
    assert plain.status == "optimal" and plain.stats.nodes > 1
    best = (plain.objective, plain.x)
    assert _assert_same_tree(m, limits={"nodes": 1}, incumbent=best).status == "limit"
    assert _assert_same_tree(m, limits={"nodes": 2}, incumbent=best).status == "optimal"


def test_branching_rule_on_hand_built_points():
    branch, tol = solver._branch, solver.INT_TOL
    narrow, wide = ([0, 1, 2], [0.0, 1.0, 2.0]), ([3, 4, 5], [0.0, 5.0, 10.0])
    binaries = list(range(6))
    # the unresolved group whose weights spread the widest is split; its
    # free members are halved in weight order, and the first child fixes
    # the half of the lesser mass to 0
    x = np.array([0.5, 0.5, 0.0, 0.5, 0.0, 0.5])
    assert branch([narrow, wide], binaries, x, {}) == [
        {4: (0.0, 0.0), 5: (0.0, 0.0)}, {3: (0.0, 0.0)}]
    # members fixed to 0 or at INT_TOL leave the wide group unresolved;
    # the children carry the parent's fixings
    for x, fixings in ((np.array([0.5, 0.5, 0.0, 0.5, 0.0, 0.5]), {3: (0.0, 0.0)}),
                       (np.array([0.5, 0.5, 0.0, tol, 0.0, 1.0 - tol]), {})):
        assert branch([wide, narrow], binaries, x, fixings) == [
            {**fixings, 1: (0.0, 0.0), 2: (0.0, 0.0)}, {**fixings, 0: (0.0, 0.0)}]
    group = ([10, 11, 12], [3.0, 1.0, 2.0])
    x = np.zeros(13)
    x[[10, 11, 12]] = 0.6, 0.2, 0.2
    assert branch([group], [10, 11, 12], x, {7: (1.0, 1.0)}) == [
        {7: (1.0, 1.0), 11: (0.0, 0.0), 12: (0.0, 0.0)}, {7: (1.0, 1.0), 10: (0.0, 0.0)}]
    x[[10, 11, 12]] = 0.3, 0.6, 0.1
    assert branch([group], [10, 11, 12], x, {}) == [
        {12: (0.0, 0.0), 10: (0.0, 0.0)}, {11: (0.0, 0.0)}]
    # no unresolved group: the most fractional binary, its nearer bound first
    resolved = ([6, 7], [0.0, 1.0])
    x = np.array([0.0, 0.3, 0.45, 1.0, 0.0, 1.0, 1.0, 0.0])
    assert branch([resolved], binaries, x, {7: (0.0, 0.0)}) == [
        {7: (0.0, 0.0), 2: (0.0, 0.0)}, {7: (0.0, 0.0), 2: (1.0, 1.0)}]
    x[2] = 0.55
    assert branch([resolved], binaries, x, {}) == [{2: (1.0, 1.0)}, {2: (0.0, 0.0)}]
    # an integral point within INT_TOL has no children
    x = np.array([tol, 1.0 - tol / 2, 0.0, 1.0, 0.0, 0.0])
    assert branch([narrow, wide], binaries, x, {}) is None


def _reference_reoptimize(sx, b, lb, ub):
    """`_Simplex.reoptimize` as it stood before its masks, nonbasic values and
    basic bounds were carried from pivot to pivot."""
    n, m = sx.n, sx.m
    sx.lb[:n], sx.ub[:n] = lb, ub
    db = np.where(sx.flip, -b, b)
    sx.iterations = 0
    while True:
        z = sx.cost - sx.cost[sx.basis] @ sx.T
        nonbasic = np.ones(n, dtype=bool)
        nonbasic[sx.basis[sx.basis < n]] = False
        if sx.iterations == 0:
            # pricing skips columns with ub == lb, so such a column can
            # sit at the bound its reduced cost does not favour
            to_upper = nonbasic & (z[:n] < -solver.REDUCED_COST_TOL)
            if np.any(sx.ub[:n][to_upper] == INF):
                return None
            st = sx.status[:n]
            st[to_upper] = solver._AT_UPPER
            st[nonbasic & (z[:n] > solver.REDUCED_COST_TOL)] = solver._AT_LOWER
            st[nonbasic & (st == solver._AT_UPPER) & (sx.ub[:n] == INF)] = solver._AT_LOWER
        xn = sx._nonbasic_values()[:n]
        sx.bhat = sx.T[:, n:] @ db - sx.T[:, :n] @ xn
        bl, bu = sx.lb[sx.basis], sx.ub[sx.basis]
        below, above = bl - sx.bhat, sx.bhat - bu
        infeas = np.maximum(below, above)
        r = int(np.argmax(infeas)) if m else -1
        if m == 0 or infeas[r] <= solver._REOPT_TOL:
            return "optimal"
        if sx.iterations >= 50 + 2 * m:
            return None
        # the basic value of row r must rise (below its lower bound) or
        # fall; moving nonbasic j by dx moves it by -T[r, j] * dx
        rise = below[r] > above[r]
        alpha = sx.T[r, :n] if rise else -sx.T[r, :n]
        st = sx.status[:n]
        span = sx.ub[:n] - sx.lb[:n]
        elig = nonbasic & (span > 0) & (
            ((st == solver._AT_LOWER) & (alpha < -solver._PIVOT_TOL))
            | ((st == solver._AT_UPPER) & (alpha > solver._PIVOT_TOL)))
        if not elig.any():
            # entries below the pivot tolerance move row r by at most
            # `reach`; a row infeasible beyond that proves the LP
            # infeasible
            fav = nonbasic & (span > 0) & (
                ((st == solver._AT_LOWER) & (alpha < 0))
                | ((st == solver._AT_UPPER) & (alpha > 0)))
            reach = float(np.sum(np.abs(alpha[fav]) * span[fav]))
            return "infeasible" if infeas[r] > solver.FEAS_TOL + reach else None
        ratio = np.divide(np.abs(z[:n]), np.abs(alpha), out=np.full(n, INF), where=elig)
        sx._pivot(r, int(np.argmin(ratio)), solver._AT_LOWER if rise else solver._AT_UPPER)
        sx.iterations += 1


def _checked_reoptimize(monkeypatch):
    """`_Simplex.reoptimize` replaced by one that also runs
    `_reference_reoptimize` on a copy and asserts that both return the same
    status and leave the same basis, column statuses, basic values and
    tableau bytes; returns the list of statuses."""
    ended = []
    reoptimize = solver._Simplex.reoptimize

    def checked(sx, b, lb, ub):
        ref = copy.copy(sx)
        for name in ("T", "lb", "ub", "status", "basis"):
            setattr(ref, name, getattr(sx, name).copy())
        status = reoptimize(sx, b, lb, ub)
        assert _reference_reoptimize(ref, b, lb, ub) == status
        assert ref.iterations == sx.iterations
        for name in ("basis", "status", "lb", "ub", "T"):
            assert getattr(ref, name).tobytes() == getattr(sx, name).tobytes(), name
        # a simplex rebuilt from a basis has no basic values until it pivots
        bhat = [getattr(s, "bhat", None) for s in (ref, sx)]
        assert bhat[0] is bhat[1] or bhat[0].tobytes() == bhat[1].tobytes()
        ended.append(status)
        return status

    monkeypatch.setattr(solver._Simplex, "reoptimize", checked)
    return ended


def test_reoptimize_matches_the_reference_bit_for_bit(monkeypatch):
    # every caller: family members re-optimized from the last optimum, grown
    # LPs from theirs, a CCG solve (grown masters, subproblem nodes, families)
    # and branch-and-bound nodes on a tableau rebuilt from the parent's basis
    ended = _checked_reoptimize(monkeypatch)
    rng = np.random.default_rng(29)
    for trial in range(40):
        m, _A, _s, frows, rhs, fcols, ub = _random_family(
            rng, int(rng.integers(2, 8)), int(rng.integers(1, 7)), 12)
        LPFamily(m, frows, rhs, fcols, ub).solve()
    family = len(ended)
    for trial in range(150):
        data, grown = _grown_lp(rng)
        n0, n = data[0].shape[1], grown[0].shape[1]
        m = _lp_from(data, {j: float(rng.integers(-5, 6)) for j in range(n0)},
                     str(rng.choice(["min", "max"])), 0.0)
        if solve(m).status != "optimal":
            continue
        for j in range(n0, n):
            m.add_var(f"x{j}", *grown[3][j])
        for i in range(data[0].shape[0], grown[0].shape[0]):
            m.add_constr({j: grown[0][i, j] for j in range(n)}, grown[2][i], grown[1][i])
        solve(m)
    grown_lps = len(ended)
    inst, means = synthetic_instance(3, 1, 2, seed=2)
    rep = solve_two_stage(inst, quantile_bounds_from_means(means), BioConfig(lam=0.3),
                          CcgOptions(max_iterations=4))
    assert len(rep.lower_bounds) >= 3  # masters grown by at least two blocks
    ccg = len(ended)
    for trial in range(150):
        solve(_random_mixed_binary(rng, trial))
    assert family >= 250 and grown_lps - family >= 30
    assert ccg - grown_lps >= 300 and len(ended) - ccg >= 100
    assert {ended.count(s) > 0 for s in ("optimal", "infeasible", None)} == {True}
