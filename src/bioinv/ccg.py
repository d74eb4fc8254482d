"""Column-and-cut generation: alternating master and adversarial subproblem
solves with bound tracking and best-lower-bound allocation retention.

The master optimizes over the scenario pool; the subproblem returns the
worst demand for the current first-stage commitments.  With the exact MIP
subproblem the loop converges to the global optimum; the alternating
heuristic trades exactness for speed and is also used to warm-start the MIP.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .formulations import (Allocation, BioConfig, FormulationError, add_master_scenario,
                           build_master, build_subproblem, demand_move_costs, evaluate_profit,
                           extract_allocation, extract_worst_scenario, incumbent_from_scenario,
                           set_allocation, set_fixed_scenario, stage_one_value)
from .instance import Instance
from .records import record_to_dict
from .solver import SolverError, solve
from .uncertainty import CHANNELS, DemandScenario, UncertaintySet

_log = logging.getLogger(__name__)

EXACT_MIP = "exact_mip"
ALTERNATING = "alternating_heuristic"
GAP_DENOMINATOR_GUARD = 1e-5   # keeps the relative gap finite at objective 0
AH_ROUNDS = 25   # demand moves per heuristic start; a cycle guard (traced runs make <= 3)


class CcgError(Exception):
    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


@dataclass
class CcgOptions:
    epsilon: float = 1e-4          # relative gap tolerance
    max_iterations: int = 20
    max_seconds: float = 300.0
    subproblem_mode: str = EXACT_MIP
    rescore_worst_case: bool = True

    def __post_init__(self):
        if self.epsilon <= 0:
            raise CcgError("epsilon must be positive")
        if self.max_iterations < 1 or self.max_seconds <= 0:
            raise CcgError("limits must be >= 1")
        if self.subproblem_mode not in (EXACT_MIP, ALTERNATING):
            raise CcgError(f"unknown subproblem mode {self.subproblem_mode!r}")


@dataclass
class SolveReport:
    allocation: Allocation | None
    objective: float               # best candidate; a lower bound only in exact mode
    lam: float
    lower_bounds: list = field(default_factory=list)
    upper_bounds: list = field(default_factory=list)
    scenario_pool: list = field(default_factory=list)
    iterations: int = 0
    wall_time: float = 0.0         # the whole call, worst-case rescore included
    rescore_s: float = 0.0         # the worst-case rescore alone
    # converged (bounds met, every subproblem exact) | iteration_limit |
    # time_limit | stalled (the subproblem returned a pool scenario, or the
    # bounds met on an uncertified subproblem value: the loop cannot move
    # and nothing certifies the result) | master_failed (a master solve
    # ended infeasible or unbounded; the report rides on the CcgError)
    termination: str = ""
    certified: bool = True         # exact subproblem solves throughout
    d_plus: np.ndarray | None = None
    d_o_plus: np.ndarray | None = None    # optimistic online demand, both channels allied
    worst_case_scenario: DemandScenario | None = None
    worst_case_profit: float | None = None
    rescore_error: str | None = None   # why the worst-case rescore gave no profit

    def to_dict(self) -> dict:
        def clean(v):
            return None if v is None or not np.isfinite(v) else float(v)
        d = {
            "objective": clean(self.objective),
            "lambda": self.lam,
            "termination": self.termination,
            "certified": self.certified,
            "iterations": self.iterations,
            "wall_time": self.wall_time,
            "rescore_s": self.rescore_s,
            "lower_bounds": [clean(v) for v in self.lower_bounds],
            "upper_bounds": [clean(v) for v in self.upper_bounds],
            "allocation": None if self.allocation is None else record_to_dict(self.allocation),
            "scenario_pool": [record_to_dict(s) for s in self.scenario_pool],
            "worst_case_profit": clean(self.worst_case_profit),
            "rescore_error": self.rescore_error,
        }
        for name in ("d_plus", "d_o_plus"):
            if getattr(self, name) is not None:
                d[name] = np.asarray(getattr(self, name)).tolist()
        if self.worst_case_scenario is not None:
            d["worst_case_scenario"] = record_to_dict(self.worst_case_scenario)
        return d


# ---------------------------------------------------------------------------
# demand step helpers
# ---------------------------------------------------------------------------

def minimize_linear_over_cell(coeffs, lo, hi, bl, bu):
    """Exact greedy minimum of c.d over {lo <= d <= hi, bl <= sum d <= bu};
    integral whenever the bounds are integral.  Deterministic tie-breaking by
    index."""
    c = np.asarray(coeffs, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = np.where(c > 0, lo, hi).astype(float)
    d = np.where(c == 0, lo, d)
    s = d.sum()
    # raise the cheapest cells onto bl, or lower the dearest onto bu
    sign, need = (1.0, bl - s) if s < bl else (-1.0, s - bu)
    if need > 0:
        room = hi - d if sign > 0 else d - lo
        for i in sorted(range(len(c)), key=lambda i: (sign * c[i], i)):
            step = min(room[i], need)
            d[i] += sign * step
            need -= step
            if need <= 1e-12:
                break
    return d


def minimize_linear_over_set(uset: UncertaintySet, costs: dict) -> DemandScenario:
    """Scenario of U minimizing sum(costs[ch] * d[ch]): U is a product of
    per-period, per-channel cells, each minimized by the greedy above.
    `costs[ch]` broadcasts to the (T, n) shape of channel ch."""
    arrs = {}
    for ch in CHANNELS:
        lo, hi = uset.local_lower[ch], uset.local_upper[ch]
        c = np.broadcast_to(np.asarray(costs[ch], dtype=float), lo.shape)
        arrs[ch] = np.array([
            minimize_linear_over_cell(c[t], lo[t], hi[t], uset.budget_lower[ch][t],
                                      uset.budget_upper[ch][t])
            for t in range(uset.horizon)]).reshape(lo.shape)
    return DemandScenario(arrs["b"], arrs["o"])


def seed_scenario(uset: UncertaintySet) -> DemandScenario:
    """Canonical pool seed: box lower bounds, lifted minimally (ascending
    index) onto the budget lower bound where needed."""
    return minimize_linear_over_set(uset, {"b": 1.0, "o": 1.0})


def upper_seed_scenario(uset: UncertaintySet) -> DemandScenario:
    """Box upper bounds trimmed (ascending index) onto the budget upper
    bound; the default start of the alternating heuristic."""
    return minimize_linear_over_set(uset, {"b": -1.0, "o": -1.0})


def alternating_heuristic_subproblem(inst: Instance, uset: UncertaintySet,
                                     alloc: Allocation, lam: float, allied: str = "walkin",
                                     start: DemandScenario | None = None, model=None):
    """Alternate dual solves (fixed demand) with demand moves (fixed duals)
    on `model`, the fixed-demand dual model of `alloc`, `lam` and `allied`
    (built when None).  Returns a feasible scenario, its subproblem value (an
    upper bound on the exact minimum) and the dual LP's solution there."""
    scen = start if start is not None else upper_seed_scenario(uset)
    if model is None:
        model = build_subproblem(inst, uset, alloc, lam, allied, fixed_scenario=scen)
    for k in range(AH_ROUNDS + 1):
        set_fixed_scenario(model, scen)
        sol = solve(model)
        if sol.status != "optimal":
            raise FormulationError(f"scenario dual LP status {sol.status}")
        if k == AH_ROUNDS:
            break
        nxt = minimize_linear_over_set(uset, demand_move_costs(model, sol))
        if nxt.key() == scen.key():
            break
        scen = nxt
    return scen, float(sol.objective), sol


def _adversary(models, kind, inst, uset, alloc, lam, allied, **build):
    """The run's `kind` subproblem model pointed at `alloc`, `lam` and
    `allied`: built on first use, its objective rewritten after that."""
    if kind in models:
        set_allocation(models[kind], inst, alloc, lam, allied)
    else:
        models[kind] = build_subproblem(inst, uset, alloc, lam, allied, **build)
    return models[kind]


def _best_heuristic_scenario(inst, uset, alloc, lam, allied, extra_starts=(), models=None):
    """Multi-start alternating heuristic on one dual model, the run's in
    `models` (a fresh one when None); the lowest value wins."""
    starts = [upper_seed_scenario(uset), seed_scenario(uset), *extra_starts]
    model = _adversary({} if models is None else models, "dual", inst, uset, alloc, lam,
                       allied, fixed_scenario=starts[0])
    best = None
    seen = set()
    for st in starts:
        if st.key() in seen:
            continue
        seen.add(st.key())
        found = alternating_heuristic_subproblem(
            inst, uset, alloc, lam, allied=allied, start=st, model=model)
        if best is None or found[1] < best[1] - 1e-12:
            best = found
    return best


def _solve_subproblem(inst, uset, alloc, cfg, options, deadline, pool, models):
    """One adversarial solve per the configured mode, on the run's models in
    `models`.  Returns (scenario, value, certified, branch-and-bound nodes)."""
    lam, allied = cfg.lam, cfg.allied_channels
    mode = options.subproblem_mode
    extra = list(pool)[-2:] if mode == ALTERNATING else ()
    ah_scen, ah_val, ah_sol = _best_heuristic_scenario(inst, uset, alloc, lam, allied, extra,
                                                       models)
    if mode == ALTERNATING:
        return ah_scen, ah_val, False, 0
    model = _adversary(models, "mip", inst, uset, alloc, lam, allied)
    incumbent = incumbent_from_scenario(model, ah_scen, ah_sol)
    remaining = None if deadline is None else max(1e-3, deadline - time.perf_counter())
    sol = solve(model, limits={"time": remaining}, incumbent=incumbent)
    if sol.status == "optimal":  # for _finish; iteration k sees k pool scenarios
        models["optimum"] = (len(pool), dict(model.obj), model.obj_const, sol)
    if sol.x is None:
        return ah_scen, ah_val, False, sol.stats.nodes
    return (extract_worst_scenario(model, sol), float(sol.objective), sol.status == "optimal",
            sol.stats.nodes)


# ---------------------------------------------------------------------------
# the main loop
# ---------------------------------------------------------------------------

def solve_two_stage(inst: Instance, uset: UncertaintySet, cfg: BioConfig,
                    options: CcgOptions | None = None,
                    fixed_x: np.ndarray | None = None) -> SolveReport:
    """Column-and-cut generation for the two-stage robust / BIO problem.

    Master and subproblem alternate; the retained allocation is the one
    achieving the best candidate value, not the last master iterate.  With
    the exact subproblem each candidate is a lower bound, and converged
    reports are globally optimal.  The alternating heuristic finds some
    scenario, not a worst one, so in that mode `objective` and `lower_bounds`
    are heuristic values that can exceed the exact optimum.
    """
    options = options or CcgOptions()
    t0 = time.perf_counter()
    deadline = t0 + options.max_seconds
    report = SolveReport(allocation=None, objective=-np.inf, lam=cfg.lam,
                         scenario_pool=[seed_scenario(uset)], termination="iteration_limit")
    master = build_master(inst, uset, report.scenario_pool, cfg, fixed_x)
    models = {}  # the run's adversary: dual LP and MIP, re-pointed each iteration
    ub = np.inf

    for _ in range(options.max_iterations):
        report.iterations += 1
        msol = solve(master, limits={"time": max(1e-3, deadline - time.perf_counter())})
        if msol.status not in ("optimal", "limit") or msol.x is None:
            report.termination = "master_failed"
            break
        alloc, (d_plus, d_o_plus), _eta = extract_allocation(master, msol, inst, cfg)
        ub = min(ub, float(msol.objective))
        report.upper_bounds.append(ub)

        scen, sp_val, exact, nodes = _solve_subproblem(inst, uset, alloc, cfg, options,
                                                       deadline, report.scenario_pool, models)
        report.certified &= exact and msol.status == "optimal"  # not at a time limit
        cand = sp_val + stage_one_value(inst, cfg, alloc, d_plus, d_o_plus)
        if cand > report.objective + 1e-12:
            report.objective, report.allocation = cand, alloc
            report.d_plus, report.d_o_plus = d_plus, d_o_plus
        report.lower_bounds.append(report.objective)

        gap = ((ub - report.objective) / (abs(report.objective) + GAP_DENOMINATOR_GUARD)
               if np.isfinite(report.objective) else np.inf)
        _log.info("ccg iteration %d: lb %.6f, ub %.6f, gap %.3g, pool %d, "
                  "%d branch-and-bound nodes", report.iterations, report.objective, ub, gap,
                  len(report.scenario_pool), nodes)
        if gap <= options.epsilon and report.certified:
            report.termination = "converged"
            break
        if gap <= options.epsilon or scen.key() in {s.key() for s in report.scenario_pool}:
            report.termination = "stalled"
            break
        report.scenario_pool.append(scen)
        add_master_scenario(master, inst, scen, cfg)
        if time.perf_counter() > deadline:
            report.termination = "time_limit"
            break
    # the master's and the dual model's kept simplexes are freed before the rescore
    del master
    models.pop("dual", None)
    if report.termination == "master_failed":
        raise CcgError(f"master solve failed with status {msol.status}",
                       _finish(report, inst, uset, options, t0, models))
    if report.allocation is None:
        report.allocation, report.d_plus, report.d_o_plus = alloc, d_plus, d_o_plus
    return _finish(report, inst, uset, options, t0, models)


def _finish(report, inst, uset, options, t0, models):
    """Worst-case rescore, on the run's MIP when it has one, and timings of
    the filled `report`.  The MIP is re-pointed at the plain orders and
    lam = 0; when that objective is, coefficient for coefficient, the one the
    last optimal subproblem was solved under, its optimum is read instead of
    a new solve (among tied optima, maybe not the one a fresh solve finds)."""
    obj, alloc = report.objective, report.allocation
    report.objective = float(obj) if np.isfinite(obj) else float("nan")
    t_rescore = time.perf_counter()
    if options.rescore_worst_case and alloc is not None:
        try:
            plain = Allocation(alloc.x, alloc.x_repo)
            model = _adversary(models, "mip", inst, uset, plain, 0.0, "walkin")
            k, coeffs, const, sol = models.get("optimum", (0, None, None, None))
            if (coeffs, const) == (model.obj, model.obj_const):
                _log.debug("rescore reused the optimum of iteration %d", k)
            else:
                sol = solve(model, limits={"time": 60.0})
                _log.debug("rescore MIP: %s, %d nodes, %.4f s", sol.status, sol.stats.nodes,
                           sol.stats.wall_time)
            if sol.status == "optimal":
                scen = extract_worst_scenario(model, sol)
                report.worst_case_scenario = scen
                report.worst_case_profit = evaluate_profit(inst, plain, scen)
            else:
                report.rescore_error = f"rescore MIP ended {sol.status}"
        except (SolverError, FormulationError) as exc:
            report.rescore_error = f"{type(exc).__name__}: {exc}"
    t_end = time.perf_counter()
    report.wall_time, report.rescore_s = t_end - t0, t_end - t_rescore
    return report
