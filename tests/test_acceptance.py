"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  Criterion 1 asserts the reference
three-location table.  Its (price 80, penalty 80) column holds the exact
BIO-lambda optima, not the published -130/-37.5/55/147.5, which no exact
solver attains: the companion test below pins the published robust
allocation at -170, and an independent scipy-HiGHS LP of the same model
(the oracle test after it) reproduces all 15 table values without bioinv's
solver or formulations.
"""

import time
from dataclasses import asdict
from itertools import product

import numpy as np
import pytest

from bioinv.ccg import CcgOptions, solve_two_stage
from bioinv.formulations import (
    Allocation,
    BioConfig,
    build_subproblem,
    evaluate_profit,
    first_stage_cost,
    stage_one_value,
)
from bioinv.instance import build_instance
from bioinv.reference import (
    MONTE_CARLO_SEED,
    example_walkin_instance,
    example_walkin_means,
    example_walkin_uncertainty,
    reference_sim_setup,
)
from bioinv.simulate import PolicySpec, batch_evaluate, run_rolling_horizon
from bioinv.solver import solve
from bioinv.tuning import (
    ScoringObjective,
    closed_form_single_location,
    score_allocation,
    solve_saa,
    superpose,
    tune_lambda,
)
from bioinv.uncertainty import DemandScenario, UncertaintySet, sample_scenarios


def report(criterion, ok, detail=""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")


def walkin_set(lo, hi, bl, bu):
    return UncertaintySet(
        local_lower={"b": np.array([lo], dtype=float), "o": np.zeros((1, 0))},
        local_upper={"b": np.array([hi], dtype=float), "o": np.zeros((1, 0))},
        budget_lower={"b": np.array([bl], dtype=float), "o": np.zeros(1)},
        budget_upper={"b": np.array([bu], dtype=float), "o": np.zeros(1)},
    )


def random_small_instance(rng, max_stores=3, max_zones=2, max_T=2,
                          combo_cap=2000, bound_cap=3):
    """Random omnichannel instance plus integral uncertainty set with a cap
    on the total number of discrete scenario combinations (oracle budget)."""
    while True:
        nl = int(rng.integers(1, max_stores + 1))
        nz = int(rng.integers(0, max_zones + 1))
        T = int(rng.integers(1, max_T + 1))
        lo = rng.integers(0, 2, size=(T, nl)).astype(float)
        hi = lo + rng.integers(0, bound_cap, size=(T, nl))
        lo_o = rng.integers(0, 2, size=(T, nz)).astype(float)
        hi_o = lo_o + rng.integers(0, 2, size=(T, nz))
        combos = 1.0
        for t in range(T):
            combos *= np.prod(hi[t] - lo[t] + 1) * max(1.0, np.prod(hi_o[t] - lo_o[t] + 1))
        if combos > combo_cap:
            continue
        p_b = float(rng.integers(0, 4)) * 40.0
        b_b = float(rng.integers(1, 5)) * 40.0
        p_o = float(rng.integers(0, 3)) * 30.0
        b_o = float(rng.integers(0, 3)) * 20.0
        inst = build_instance(
            [f"L{k}" for k in range(nl)], [f"Z{k}" for k in range(nz)], T,
            walkin_price=p_b, walkin_penalty=b_b,
            online_price=p_o, online_penalty=b_o,
            fulfill_cost=rng.integers(2, 12, size=(nl, nz)).astype(float),
            purchase_cost=float(rng.integers(10, 50)),
            holding=float(rng.integers(0, 3)),
            lead_time=int(rng.integers(0, 2)) if T > 1 else 0,
        )
        uset = UncertaintySet(
            local_lower={"b": lo, "o": lo_o},
            local_upper={"b": hi, "o": hi_o},
            budget_lower={"b": lo.sum(axis=1), "o": lo_o.sum(axis=1)},
            budget_upper={"b": np.maximum(lo.sum(axis=1),
                                          np.ceil(0.8 * hi.sum(axis=1))),
                          "o": hi_o.sum(axis=1)},
        )
        return inst, uset


def brute_force_subproblem(inst, uset, alloc):
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


# --- criterion 1 -----------------------------------------------------------

REFERENCE_TABLE = {
    # setting (p, b): [(lam, objective, allocation)]
    (0.0, 160.0): [(0.0, -360.0, [3, 3, 3]), (0.25, -280.0, [2.5, 2.25, 2.25]),
                   (0.5, -200.0, [2, 1.5, 1.5]), (0.75, -120.0, [1.5, 0.75, 0.75]),
                   (1.0, -40.0, [1, 0, 0])],
    (160.0, 0.0): [(0.0, 40.0, [1, 1, 1]), (0.25, 210.0, [1.5, 1.5, 0.75]),
                   (0.5, 380.0, [2, 2, 0.5]), (0.75, 550.0, [2.5, 2.5, 0.25]),
                   (1.0, 720.0, [3, 3, 0])],
    # Exact optima, not the published -130/-37.5/55/147.5 (errata: see the
    # companion test); the LP oracle test below re-derives every row.
    (80.0, 80.0): [(0.0, -160.0, [2, 2, 2]), (0.25, -60.0, None),
                   (0.5, 40.0, None), (0.75, 140.0, None), (1.0, 240.0, [3, 3, 0])],
}


def test_criterion_1_reference_table_reproduction():
    """All 15 reference (allocation, objective) pairs, objectives to 1e-6;
    allocations may be alternate optima but must re-score to the objective."""
    t0 = time.time()
    uset = example_walkin_uncertainty()
    failures = []
    for (p, b), rows in REFERENCE_TABLE.items():
        inst = example_walkin_instance(p, b)
        for lam, obj_expected, _alloc in rows:
            cfg = BioConfig(lam=lam)
            rep = solve_two_stage(inst, uset, cfg, CcgOptions())
            if abs(rep.objective - obj_expected) > 1e-6:
                failures.append(
                    f"(p={p:.0f},b={b:.0f}) lam={lam}: engine {rep.objective:.6f} "
                    f"!= reference {obj_expected}")
                continue
            sp = solve(build_subproblem(inst, uset, rep.allocation, lam)).objective
            rescored = sp + stage_one_value(inst, cfg, rep.allocation, rep.d_plus)
            if abs(rescored - obj_expected) > 1e-6:
                failures.append(
                    f"(p={p:.0f},b={b:.0f}) lam={lam}: allocation re-scores to "
                    f"{rescored:.6f} != {obj_expected}")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 10.0
    report(1, ok, f"({15 - len(failures)}/15 pairs, {elapsed:.1f}s)"
           + ("".join("\n  " + f for f in failures)))
    assert ok, (f"runtime {elapsed:.1f}s (bound 10s), {len(failures)} mismatches"
                + "".join("\n  " + f for f in failures))


def test_criterion_1_companion_exact_values_for_symmetric_setting():
    """Regression pin of the exact-model optima for the (80, 80) column.

    Errata: the published column reads -130/-37.5/55/147.5 for lam =
    0/.25/.5/.75.  These are lam*240 + (1-lam)*(-130), so all four rest on
    one robust value, -130, claimed for the allocation [1.75,1.75,1.75].
    The exact value of that allocation is -170 (worst case [3,0,0]) and the
    true robust optimum is -160 at [2,2,2], both verified below by
    enumeration.  REFERENCE_TABLE carries the exact -160/-60/40/140, which
    the independent LP oracle test reproduces."""
    inst = example_walkin_instance(80.0, 80.0)
    uset = example_walkin_uncertainty()
    pts = uset.enumerate_discrete_points("b", 0)

    def exact_robust_value(xvec):
        alloc = Allocation([list(xvec)])
        return min(evaluate_profit(inst, alloc,
                                   DemandScenario([list(p)], np.zeros((1, 0))))
                   for p in pts)

    assert exact_robust_value([1.75, 1.75, 1.75]) == pytest.approx(-170.0)
    assert exact_robust_value([2.0, 2.0, 2.0]) == pytest.approx(-160.0)
    # integer-grid enumeration never beats -160 (the converged exact CCG
    # below certifies global optimality over the continuum)
    best = max(exact_robust_value((a, b, c))
               for a in range(5) for b in range(5) for c in range(5))
    assert best == pytest.approx(-160.0)
    expected = {0.0: -160.0, 0.25: -60.0, 0.5: 40.0, 0.75: 140.0, 1.0: 240.0}
    for lam, val in expected.items():
        rep = solve_two_stage(inst, uset, BioConfig(lam=lam), CcgOptions())
        assert rep.objective == pytest.approx(val, abs=1e-6)
        assert rep.objective == pytest.approx(
            lam * expected[1.0] + (1 - lam) * expected[0.0], abs=1e-6)


def test_criterion_1_reference_table_independent_lp_oracle():
    """Re-derive all 15 REFERENCE_TABLE values with scipy's HiGHS, using no
    bioinv solver or formulation code.

    The BIO-lam model of the symmetric walk-in example (c = 40, h = 0, one
    period, box [0,3]^3, budget [1,6]) is written out as one LP: maximize
    -c'x + (p+b)'s+ - lam b'D+ + eta over D+ in U, s+ <= lam D+, and, for
    every scenario d of the pool, eta <= (p+b)'s_d - (1-lam) b'd with
    s_d <= (1-lam) d and shared stock s+ + s_d <= x.  The recourse value is
    concave in d, so the adversary's minimum sits at a vertex of U; U's
    vertices are integral (interval matrix, integer bounds), so the pool of
    all integer points of U makes the LP exact.  A listed allocation is
    checked by fixing x to it.  The published (80, 80) robust allocation
    [1.75]*3 scores -170 here too, not its claimed -130."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    n, cost, box, budget = 3, 40.0, (0, 3), (1, 6)
    uset = example_walkin_uncertainty()
    assert (uset.local_lower["b"] == box[0]).all()
    assert (uset.local_upper["b"] == box[1]).all()
    assert (uset.budget_lower["b"][0], uset.budget_upper["b"][0]) == budget
    pool = [d for d in product(range(box[0], box[1] + 1), repeat=n)
            if budget[0] <= sum(d) <= budget[1]]

    def bio_value(p, b, lam, fixed_x=None):
        # columns: x, D+, s+ (n each), eta, then s_d (n per pool scenario)
        X, DP, SP, ETA, S0 = 0, n, 2 * n, 3 * n, 3 * n + 1
        nv = S0 + n * len(pool)
        c = np.zeros(nv)  # linprog minimizes: negated profit
        c[X:X + n] = cost
        c[DP:DP + n] = lam * b
        c[SP:SP + n] = -(p + b)
        c[ETA] = -1.0
        bounds = ([(0, None)] * n if fixed_x is None else [(v, v) for v in fixed_x])
        bounds += [box] * n + [(0, None)] * n + [(None, None)]
        rows, rhs = [], []

        def row(value):
            rows.append(np.zeros(nv))
            rhs.append(value)
            return rows[-1]

        for l in range(n):
            r = row(0.0)
            r[SP + l], r[DP + l] = 1.0, -lam
        row(-budget[0])[DP:DP + n] = -1.0
        row(budget[1])[DP:DP + n] = 1.0
        for k, d in enumerate(pool):
            sk = S0 + n * k
            r = row(-(1 - lam) * b * sum(d))
            r[ETA], r[sk:sk + n] = 1.0, -(p + b)
            for l in range(n):
                r = row(0.0)
                r[sk + l], r[SP + l], r[X + l] = 1.0, 1.0, -1.0
            bounds += [(0, (1 - lam) * dl) for dl in d]
        res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds,
                      method="highs")
        assert res.status == 0, res.message
        return -res.fun

    for (p, b), rows in REFERENCE_TABLE.items():
        for lam, obj_expected, alloc in rows:
            assert bio_value(p, b, lam) == pytest.approx(obj_expected, abs=1e-6), (
                f"(p={p:.0f},b={b:.0f}) lam={lam}")
            if alloc is not None:
                assert bio_value(p, b, lam, alloc) == pytest.approx(
                    obj_expected, abs=1e-6), f"(p={p:.0f},b={b:.0f}) lam={lam} at {alloc}"
    assert bio_value(80.0, 80.0, 0.0, [1.75] * 3) == pytest.approx(-170.0, abs=1e-6)


# --- criterion 2 -----------------------------------------------------------

def test_criterion_2_integer_mode_example():
    t0 = time.time()
    inst = example_walkin_instance(0.0, 160.0)
    uset = example_walkin_uncertainty()
    ro = solve_two_stage(inst, uset, BioConfig(lam=0.0, integer_allocations=True),
                         CcgOptions())
    bio = solve_two_stage(inst, uset, BioConfig(lam=0.5, integer_allocations=True),
                          CcgOptions())
    elapsed = time.time() - t0
    ok = (abs(ro.objective + 360.0) < 1e-9
          and sorted(ro.allocation.x[0]) == [3.0, 3.0, 3.0]
          and abs(bio.objective + 240.0) < 1e-9
          and sorted(bio.allocation.x[0]) == [2.0, 2.0, 2.0]
          and abs(bio.worst_case_profit + 560.0) < 1e-9
          and elapsed < 30.0)
    report(2, ok, f"(RO {ro.objective:.0f}@{ro.allocation.x[0].tolist()}, "
                  f"BIO-50 {bio.objective:.0f}@{bio.allocation.x[0].tolist()} "
                  f"worst {bio.worst_case_profit:.0f}, {elapsed:.1f}s)")
    assert ro.objective == pytest.approx(-360.0, abs=1e-9)
    assert sorted(ro.allocation.x[0]) == [3.0, 3.0, 3.0]
    assert bio.objective == pytest.approx(-240.0, abs=1e-9)
    assert sorted(bio.allocation.x[0]) == [2.0, 2.0, 2.0]
    assert bio.worst_case_profit == pytest.approx(-560.0, abs=1e-9)
    assert elapsed < 30.0


# --- criterion 3 -----------------------------------------------------------

def test_criterion_3_superposition_property_suite():
    """50 randomized zero-initial-inventory instances, lam in {.25,.5,.75}:
    |Z_lam - lam Z1 - (1-lam) Z0| <= 1e-6 (1 + |Z_lam|) under the fully
    blended (both-channel) optimism of the underlying identity."""
    t0 = time.time()
    rng = np.random.default_rng(314)
    worst = 0.0
    options = CcgOptions(rescore_worst_case=False)
    checked = 0
    for trial in range(50):
        inst, uset = random_small_instance(rng, combo_cap=800)
        z0 = solve_two_stage(inst, uset, BioConfig(lam=0.0, allied_channels="both"),
                             options)
        z1 = solve_two_stage(inst, uset, BioConfig(lam=1.0, allied_channels="both"),
                             options)
        assert z0.termination == "converged" and z1.termination == "converged"
        for lam in (0.25, 0.5, 0.75):
            zl = solve_two_stage(inst, uset,
                                 BioConfig(lam=lam, allied_channels="both"), options)
            assert zl.termination == "converged", f"trial {trial}"
            resid = abs(zl.objective - lam * z1.objective - (1 - lam) * z0.objective)
            tol = 1e-6 * (1 + abs(zl.objective))
            worst = max(worst, resid / tol)
            checked += 1
            assert resid <= tol, (f"trial {trial} lam={lam}: resid {resid:.2e} "
                                  f"(z0={z0.objective}, z1={z1.objective}, "
                                  f"zl={zl.objective})")
    elapsed = time.time() - t0
    report(3, elapsed < 300.0, f"({checked} checks, worst resid {worst:.3f}x tol, "
                               f"{elapsed:.0f}s)")
    assert elapsed < 300.0


# --- criterion 4 -----------------------------------------------------------

def test_criterion_4_vertex_integrality_suite():
    t0 = time.time()
    rng = np.random.default_rng(41)
    total_vertices = 0
    for trial in range(100):
        n = int(rng.integers(1, 5))
        lo = rng.integers(0, 5, size=n)
        hi = np.minimum(5, lo + rng.integers(0, 6, size=n))
        bl = int(rng.integers(0, int(hi.sum()) + 1))
        bu = int(rng.integers(bl, int(hi.sum()) + 1))
        if lo.sum() > bu or hi.sum() < bl:
            continue
        s = walkin_set(list(lo), list(hi), bl, bu)
        for v in s.enumerate_vertices("b", 0):
            total_vertices += 1
            for coord in v:
                assert coord == int(coord), f"trial {trial}: fractional vertex {v}"
    elapsed = time.time() - t0
    report(4, elapsed < 60.0, f"({total_vertices} vertices, all integral, "
                              f"{elapsed:.1f}s)")
    assert elapsed < 60.0


# --- criterion 5 -----------------------------------------------------------

def test_criterion_5_subproblem_exactness_suite():
    t0 = time.time()
    rng = np.random.default_rng(5150)
    for trial in range(50):
        inst, uset = random_small_instance(rng, combo_cap=700)
        T, L = inst.horizon, inst.num_nodes
        alloc = Allocation(rng.integers(0, 4, size=(T, L)).astype(float))
        sol = solve(build_subproblem(inst, uset, alloc, 0.0))
        assert sol.status == "optimal", f"trial {trial}"
        brute = brute_force_subproblem(inst, uset, alloc)
        assert sol.objective == pytest.approx(brute, abs=1e-6), (
            f"trial {trial}: MIP {sol.objective} vs brute {brute}")
    elapsed = time.time() - t0
    report(5, elapsed < 600.0, f"(50 instances, {elapsed:.0f}s)")
    assert elapsed < 600.0


# --- criterion 6 -----------------------------------------------------------

def test_criterion_6_ccg_global_optimality():
    t0 = time.time()
    rng = np.random.default_rng(66)
    done = 0
    while done < 12:
        inst, uset = random_small_instance(rng, max_stores=2, max_zones=1,
                                           max_T=1, combo_cap=60, bound_cap=2)
        cap = int(uset.budget_upper["b"].sum() + uset.budget_upper["o"].sum())
        if cap > 5:
            continue
        rep = solve_two_stage(inst, uset,
                              BioConfig(lam=0.0, integer_allocations=True),
                              CcgOptions())
        assert rep.termination == "converged"
        # exhaustive oracle: integer allocations x discrete scenarios
        pts_b = uset.enumerate_discrete_points("b", 0)
        pts_o = uset.enumerate_discrete_points("o", 0) or [()]
        scens = [DemandScenario([list(b)], [list(o)]) for b in pts_b for o in pts_o]
        best = None
        L = inst.num_nodes
        for xs in product(range(cap + 1), repeat=L):
            alloc = Allocation(np.array([list(xs)], dtype=float))
            worst = min(evaluate_profit(inst, alloc, s) for s in scens)
            if best is None or worst > best:
                best = worst
        assert rep.objective == pytest.approx(best, abs=1e-6), (
            f"CCG {rep.objective} vs exhaustive {best}")
        lbs, ubs = rep.lower_bounds, rep.upper_bounds
        assert all(a <= b + 1e-9 for a, b in zip(lbs, lbs[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(ubs, ubs[1:]))
        assert (ubs[-1] - lbs[-1]) / (abs(lbs[-1]) + 1e-5) <= 1e-4
        done += 1
    elapsed = time.time() - t0
    report(6, True, f"({done} instances vs exhaustive search, {elapsed:.0f}s)")


# --- criterion 7 -----------------------------------------------------------

def test_criterion_7_closed_form_oracle():
    t0 = time.time()
    rng = np.random.default_rng(777)
    done = 0
    while done < 100:
        p = float(rng.integers(0, 160))
        b = float(rng.integers(0, 160))
        h = float(rng.integers(0, 8))
        c = float(rng.integers(1, 80))
        if p + b <= c or p == c:  # strict margins keep the optima unique
            continue
        dmin = float(rng.integers(0, 4))
        dmax = dmin + float(rng.integers(1, 5))
        cf = closed_form_single_location(p, b, h, c, dmin, dmax)
        inst = build_instance(["A"], [], 1, walkin_price=p, walkin_penalty=b,
                              holding=h, purchase_cost=c)
        uset = walkin_set([dmin], [dmax], dmin, dmax)
        rep0 = solve_two_stage(inst, uset, BioConfig(lam=0.0), CcgOptions())
        rep1 = solve_two_stage(inst, uset, BioConfig(lam=1.0), CcgOptions())
        assert rep0.objective == pytest.approx(cf["z_bio0"], abs=1e-6), (
            f"p={p},b={b},h={h},c={c},D=[{dmin},{dmax}]")
        assert rep0.allocation.x[0, 0] == pytest.approx(cf["x_bio0"], abs=1e-6)
        assert rep1.objective == pytest.approx(cf["z_bio1"], abs=1e-6), (
            f"p={p},b={b},h={h},c={c},D=[{dmin},{dmax}]")
        assert rep1.allocation.x[0, 0] == pytest.approx(cf["x_bio1"], abs=1e-6)
        done += 1
    elapsed = time.time() - t0
    report(7, True, f"(100 parameter draws, {elapsed:.0f}s)")


# --- criterion 8 -----------------------------------------------------------

def test_criterion_8_bisection_matches_saa():
    """Zero-price single-location family (the optimism segment then spans the
    whole order range, so the segment provably contains an SAA optimum)."""
    t0 = time.time()
    rng = np.random.default_rng(88)
    for trial in range(8):
        b = float(rng.integers(60, 200))
        c = float(rng.integers(10, int(b * 0.8)))
        inst = build_instance(["A"], [], 1, walkin_price=0.0, walkin_penalty=b,
                              purchase_cost=c)
        dmax = int(rng.integers(2, 6))
        uset = walkin_set([0], [dmax], 0, dmax)
        scen = sample_scenarios(None, 50, seed=trial, family="uniform", uset=uset)
        res = tune_lambda(inst, uset, scen, ScoringObjective("mean"),
                          method="bisection", validation_fraction=1.0)
        _xs, saa_val = solve_saa(inst, scen)
        assert res.validation_score == pytest.approx(saa_val, rel=1e-6, abs=1e-6), (
            f"trial {trial}: bisection {res.validation_score} vs SAA {saa_val}")

    # concavity midpoint checks on 100 sampled lambda triples
    inst = example_walkin_instance(0.0, 160.0)
    uset = example_walkin_uncertainty()
    scen = sample_scenarios(None, 40, seed=9, family="uniform", uset=uset)
    rep0 = solve_two_stage(inst, uset, BioConfig(lam=0.0), CcgOptions())
    rep1 = solve_two_stage(inst, uset, BioConfig(lam=1.0), CcgOptions())
    cache = {}

    def phi(lam):
        if lam not in cache:
            cache[lam] = score_allocation(
                inst, superpose(rep0.allocation, rep1.allocation, lam), scen,
                ScoringObjective("mean"))
        return cache[lam]

    rng = np.random.default_rng(19)
    for _ in range(100):
        a, bb = sorted(np.round(rng.uniform(0, 1, size=2), 3))
        mid = 0.5 * (a + bb)
        assert phi(mid) >= 0.5 * phi(a) + 0.5 * phi(bb) - 1e-7
    elapsed = time.time() - t0
    report(8, True, f"(8 SAA matches, 100 concavity triples, {elapsed:.0f}s)")


# --- criterion 9 -----------------------------------------------------------

def test_criterion_9_monte_carlo_statistics():
    t0 = time.time()
    inst = example_walkin_instance(0.0, 160.0)
    scen = sample_scenarios(example_walkin_means(), 100_000, seed=MONTE_CARLO_SEED)
    ro = batch_evaluate(inst, Allocation([[3.0, 3.0, 3.0]]), scen)
    bio = batch_evaluate(inst, Allocation([[2.0, 2.0, 2.0]]), scen)
    elapsed = time.time() - t0
    ok = (abs(ro["mean"] + 372.32) <= 0.02 * 372.32
          and abs(bio["mean"] + 291.04) <= 0.02 * 291.04)
    report(9, ok, f"(RO mean {ro['mean']:.2f} vs -372.32, BIO-50 mean "
                  f"{bio['mean']:.2f} vs -291.04, {elapsed:.0f}s)")
    assert ro["mean"] == pytest.approx(-372.32, rel=0.02)
    assert bio["mean"] == pytest.approx(-291.04, rel=0.02)
    assert ro["median"] == pytest.approx(-360.0)
    assert ro["max"] == pytest.approx(-360.0)


# --- criterion 10 ----------------------------------------------------------

def test_criterion_10_simulator_conservation_and_fixture():
    t0 = time.time()
    inst, means = reference_sim_setup()
    results = {}
    for name, lam in (("pure_ro", 0.0), ("bio10", 0.10)):
        pol = PolicySpec("bio", lam=lam)
        results[name] = run_rolling_horizon(inst, pol, means, weeks=3,
                                            replications=30, seed=2024,
                                            keep_trace=True)
    for name, (agg, reps) in results.items():
        for r in reps:
            # accounting identity, exactly
            assert r.realized_profit == r.satisfied_revenue - r.shipping_cost - r.purchase_cost
            lost_pen = sum(d["lost_walkin_penalty"]
                           + d["lost_ecom_units"] * inst.econ.online_penalty[0]
                           for d in r.trace)
            assert r.penalized_profit == pytest.approx(
                r.realized_profit - lost_pen, abs=1e-9)
            for d in r.trace:
                # per-day flow conservation and nonnegative on-hand
                assert np.array_equal(
                    d["end"], d["start"] - d["walkin_sales"] - d["shipments"])
                assert (d["end"] >= 0).all()
                assert (d["walkin_sales"] <= d["start"]).all()

    # seed determinism: identical ledger on a re-run
    agg2, reps2 = run_rolling_horizon(inst, PolicySpec("bio", lam=0.10), means,
                                      weeks=3, replications=30, seed=2024)
    for a, b in zip(results["bio10"][1], reps2):
        assert asdict(a) == asdict(b)

    ro_profit = results["pure_ro"][0]["realized_profit"][0]
    bio_profit = results["bio10"][0]["realized_profit"][0]
    elapsed = time.time() - t0
    ok = bio_profit >= ro_profit
    report(10, ok, f"(BIO-10 {bio_profit:.1f} vs RO {ro_profit:.1f}, 30 reps, "
                   f"{elapsed:.0f}s)")
    # directional regression fixture on the shipped seeded reference only
    assert bio_profit >= ro_profit
