"""HiGHS reference column: the same model data solved by bioinv's embedded
solver and by scipy's HiGHS, as the ceiling a faster solver is compared with.

    python3 perfbench/highs_ref.py [--seed 1] [--cap 30]

Cases (models are built once with bioinv's builders; only the solve is timed):
  fulfillment-lp  the mc-eval batch: the reference week-0 plan's fulfillment LP
                  at the "base" allocation on 150 seeded Poisson scenarios;
  ref-rescore     the worst-case rescore MIP (lambda 0) at the alternating-
                  heuristic allocation (lambda 0.1) of the reference plan, on
                  the default 5%/95% quantile set and on the 35%/65% set of
                  the ref-ah-bio10 operation;
  ref-exact-mip   the first subproblem MIP of ref-exact-bio10 (exact CCG at
                  lambda 0.1); bioinv's branch-and-bound gets `--cap` seconds,
                  HiGHS runs with presolve off.
Prints one JSON object per case.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
from workloads import REF_AH_QUANTILES  # noqa: E402
from bioinv import ccg, formulations, solver  # noqa: E402
from bioinv.instance import load_instance  # noqa: E402
from bioinv.uncertainty import (  # noqa: E402
    DemandMeans, quantile_bounds_from_means, sample_scenarios)


def timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - t0


def compare(case, models, bioinv_limits=None, highs_options=None):
    problems = [oracle.highs_problem(m) for m in models]
    sols, bio_s = timed(lambda: [solver.solve(m, limits=bioinv_limits) for m in models])
    highs, highs_s = timed(lambda: [oracle.solve_highs(p, highs_options) for p in problems])
    done = [s.status == "optimal" for s in sols]
    diff = max((abs(s.objective - h) for s, h, d in zip(sols, highs, done) if d), default=None)
    print(json.dumps({
        "case": case, "highs_options": highs_options, "models": len(models), "vars": models[0].num_vars,
        "rows": models[0].num_constraints,
        "binaries": sum(k == solver.BINARY for k in models[0].kind),
        "bioinv_s": bio_s, "bioinv_optimal": sum(done),
        "bioinv_nodes": sum(s.stats.nodes for s in sols),
        "bioinv_iters": sum(s.stats.simplex_iterations for s in sols),
        "highs_s": highs_s, "max_objective_diff": diff}), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--cap", type=float, default=30.0)
    args = ap.parse_args()
    data = os.path.join(os.path.dirname(HERE), "data")
    inst = load_instance(os.path.join(data, "reference_sim_instance.json"))
    with open(os.path.join(data, "reference_sim_means.json")) as fh:
        doc = json.load(fh)
    means = DemandMeans(np.array(doc["walkin"][:2]), np.array(doc["online"][:2]))
    uset = quantile_bounds_from_means(means)

    base = np.ceil(means.walkin)
    base[:, 5:] = np.ceil(means.online.sum(axis=1) / 2.0)[:, None]
    alloc = formulations.Allocation(base)
    compare("fulfillment-lp", [formulations.build_fulfillment_model(inst, alloc, s)
                               for s in sample_scenarios(means, 150, args.seed)])

    for lower_q, upper_q in ((0.05, 0.95), REF_AH_QUANTILES):
        u = quantile_bounds_from_means(means, lower_q, upper_q)
        ah = ccg.solve_two_stage(inst, u, formulations.BioConfig(lam=0.1), ccg.CcgOptions(
            subproblem_mode=ccg.ALTERNATING, rescore_worst_case=False))
        plain = formulations.Allocation(ah.allocation.x, ah.allocation.x_repo)
        compare(f"ref-rescore-q{lower_q}-{upper_q}",
                [formulations.build_subproblem(inst, u, plain, 0.0)])

    cfg = formulations.BioConfig(lam=0.1)
    master = formulations.build_master(inst, uset, [ccg.seed_scenario(uset)], cfg)
    first, _d, _eta = formulations.extract_allocation(master, solver.solve(master), inst, cfg)
    # HiGHS presolve wrongly reports this model infeasible or unbounded
    compare("ref-exact-mip", [formulations.build_subproblem(inst, uset, first, 0.1)],
            {"time": args.cap}, {"presolve": False})
    return 0


if __name__ == "__main__":
    sys.exit(main())
