"""Command-line front door: validate instances, run solves, tune the optimism
weight, evaluate allocations, run simulations, and generate synthetic
instances.  Every run writes a manifest sufficient to reproduce it."""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .ccg import ALTERNATING, EXACT_MIP, CcgOptions, solve_two_stage
from .formulations import Allocation, BioConfig, FormulationError, ScenarioBatch
from .instance import load_instance, save_instance, validate_instance
from .records import read_json, record_from_dict, record_to_dict
from .reference import synthetic_instance
from .simulate import PolicySpec, batch_evaluate, kpi_table, run_rolling_horizon
from .tuning import DEFAULT_GRID, ScoringObjective, tune_lambda
from .uncertainty import (DEFAULT_LOWER_Q, DEFAULT_UPPER_Q, DemandMeans, UncertaintyError,
                          UncertaintySet, load_scenarios, quantile_bounds_from_means,
                          sample_scenarios, save_scenarios)


class CliError(Exception):
    pass


def _read(path: str, cls, error=CliError):
    return record_from_dict(cls, read_json(path, error), error, path, UncertaintyError)


def _refuse_overwrite(args, *paths):
    for path in paths:
        if os.path.isdir(path):
            raise CliError(f"{path} is a directory")
        if os.path.exists(path) and not args.force:
            raise CliError(f"{path} exists; pass --force to overwrite")


def _write_run(args, files: dict):
    """Write `files` (name -> text or JSON payload) and the run manifest, last,
    into --out, else $BIOINV_OUT_DIR, else the working directory.  A target that
    exists (without --force) or is a directory, or an --out that is a file,
    refuses the run before anything is written."""
    out = args.out or os.environ.get("BIOINV_OUT_DIR") or "."
    if os.path.exists(out) and not os.path.isdir(out):
        raise CliError(f"{out} is not a directory")
    files = {**files, "run_manifest.json": _manifest(args)}
    _refuse_overwrite(args, *(os.path.join(out, name) for name in files))
    os.makedirs(out, exist_ok=True)
    for name, payload in files.items():
        with open(os.path.join(out, name), "w") as fh:
            fh.write(payload if isinstance(payload, str) else json.dumps(payload, indent=1) + "\n")


def _manifest(args) -> dict:
    return {
        "command": args.command,
        "argv": args.argv,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "seed": getattr(args, "seed", None),
        "config": {k: v for k, v in vars(args).items()
                   if k not in ("func", "command", "verbose", "argv") and v is not None},
    }


def _ccg_options(args) -> CcgOptions:
    return CcgOptions(
        epsilon=args.epsilon, max_iterations=args.max_iterations, max_seconds=args.max_seconds,
        subproblem_mode=args.subproblem_mode,
    )


def _uncertainty_for(args, inst) -> UncertaintySet:
    if args.uncertainty:
        uset = _read(args.uncertainty, UncertaintySet, UncertaintyError)
    elif args.means:
        uset = quantile_bounds_from_means(_read(args.means, DemandMeans),
                                          args.lower_q, args.upper_q)
    else:
        raise CliError("provide --uncertainty or --means")
    path = args.uncertainty or args.means
    if uset.horizon != inst.horizon:
        raise CliError(f"{path}: demand horizon {uset.horizon} "
                       f"does not match the instance horizon {inst.horizon}")
    for ch, label, count, unit in (("b", "walk-in", inst.num_nodes, "nodes"),
                                   ("o", "online", inst.num_zones, "zones")):
        if uset.size(ch) != count:
            raise CliError(f"{path}: {label} demand has {uset.size(ch)} columns, "
                           f"but the instance has {count} {unit}")
    return uset


def cmd_validate(args) -> int:
    inst = load_instance(args.instance)
    violations = validate_instance(inst)
    for v in violations:
        print(v)
    print(f"{len(violations)} violation(s)")
    return 0 if not violations else 1


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    violations = validate_instance(inst)
    if violations and not args.allow_violations:
        for v in violations:
            print(v, file=sys.stderr)
        raise CliError("instance violates model assumptions "
                       "(--allow-violations to proceed)")
    uset = _uncertainty_for(args, inst)
    cfg = BioConfig(lam=args.lam, allied_channels=args.allied,
                    integer_allocations=args.integer,
                    repositioning=args.repositioning)
    report = solve_two_stage(inst, uset, cfg, _ccg_options(args))
    trace = "iteration,lower_bound,upper_bound\n" + "\n".join(
        f"{i},{lb!r},{ub!r}" for i, (lb, ub) in
        enumerate(zip(report.lower_bounds, report.upper_bounds)))
    _write_run(args, {"solve_report.json": report.to_dict(), "bound_trace.csv": trace + "\n"})
    print(f"objective {report.objective:.6f} ({report.termination}, "
          f"{report.iterations} iterations)")
    print(f"allocation {report.allocation.x.tolist()}")
    if report.worst_case_profit is not None:
        print(f"worst-case profit {report.worst_case_profit:.6f}")
    return 0


def cmd_evaluate(args) -> int:
    inst = load_instance(args.instance)
    doc = read_json(args.allocation, FormulationError)
    # a solve_report.json nests the allocation
    alloc = record_from_dict(Allocation, doc.get("allocation", doc), FormulationError,
                             args.allocation)
    scenarios, meta = load_scenarios(args.scenarios)
    batch = ScenarioBatch(inst, scenarios, f"{args.scenarios}: scenarios")
    stats = batch_evaluate(inst, alloc, batch)
    profits = stats.pop("profits")
    rows = "".join(f"{i},{float(p)!r}\n" for i, p in enumerate(profits))
    _write_run(args, {"evaluation.json": {**stats, "scenarios_meta": meta},
                      "profits.csv": "scenario,profit\n" + rows})
    print(json.dumps(stats, indent=1))
    return 0


def cmd_tune(args) -> int:
    inst = load_instance(args.instance)
    uset = _uncertainty_for(args, inst)
    if args.scenarios:
        scenarios = ScenarioBatch(inst, load_scenarios(args.scenarios)[0],
                                  f"{args.scenarios}: scenarios")
    elif args.means:
        scenarios = sample_scenarios(_read(args.means, DemandMeans), args.samples, args.seed,
                                     args.family, uset=uset)
    else:
        raise CliError("tune needs --scenarios or --means to sample from")
    objective = (ScoringObjective("cvar", level=args.cvar_level)
                 if args.objective == "cvar" else ScoringObjective(args.objective))
    grid = tuple(float(v) for v in args.grid.split(",")) if args.grid else DEFAULT_GRID
    result = tune_lambda(inst, uset, scenarios, objective, method=args.method,
                         grid=grid, options=_ccg_options(args),
                         cfg_base=BioConfig(integer_allocations=args.integer))
    curve = "\n".join(f"{l!r},{s!r}" for l, s in result.curve)
    _write_run(args, {"tune_report.json": result.to_dict(),
                      "lambda_curve.csv": f"lambda,validation_score\n{curve}\n"})
    print(f"lambda* = {result.lam}  holdout score = {result.score:.6f}")
    return 0


def cmd_simulate(args) -> int:
    inst = load_instance(args.instance)
    means = _read(args.means, DemandMeans)
    policies = {}
    for name in args.policy:
        if name.startswith("bio"):
            try:
                spec = PolicySpec("bio", lam=float(name[3:] or 0) / 100)
            except ValueError:
                raise CliError(f"unknown policy {name!r}: a bio policy is bio or bioNN") from None
            spec.ccg.max_iterations = args.max_iterations
            spec.ccg.subproblem_mode = args.subproblem_mode
        else:
            spec = PolicySpec(name)
        policies[name] = spec
    results = {name: run_rolling_horizon(inst, spec, means, args.weeks,
                                         args.replications, args.seed)
               for name, spec in policies.items()}
    summary = {name: {k: {"mean": v[0], "stderr": v[1]} for k, v in agg.items()}
               for name, (agg, _reps) in results.items()}
    _write_run(args, {"kpi_ledger.csv": kpi_table(results), "kpi_summary.json": summary})
    for name, (agg, _reps) in results.items():
        print(f"{name}: realized_profit {agg['realized_profit'][0]:.2f} "
              f"± {agg['realized_profit'][1]:.2f}")
    return 0


def cmd_gen_instance(args) -> int:
    inst, means = synthetic_instance(args.stores, args.dcs, args.zones,
                                     seed=args.seed, horizon=args.horizon,
                                     weeks=args.weeks, lead_time=args.lead_time,
                                     mean_range=tuple(args.mean_range),
                                     cost_range=tuple(args.cost_range))
    _refuse_overwrite(args, *filter(None, (args.out_file, args.means_out)))
    save_instance(inst, args.out_file)
    if args.means_out:
        with open(args.means_out, "w") as fh:
            json.dump(record_to_dict(means), fh, indent=1)
    print(f"wrote {args.out_file}" + (f" and {args.means_out}" if args.means_out else ""))
    return 0


def cmd_sample(args) -> int:
    means = _read(args.means, DemandMeans)
    uset = None
    if args.family == "uniform":
        uset = quantile_bounds_from_means(means, args.lower_q, args.upper_q)
    scen = sample_scenarios(means, args.samples, args.seed, args.family, uset=uset)
    _refuse_overwrite(args, args.out_file)
    save_scenarios(args.out_file, scen, seed=args.seed, family=args.family)
    print(f"wrote {len(scen)} scenarios to {args.out_file}")
    return 0


def _group(*parents) -> argparse.ArgumentParser:
    """A parent parser: arguments that mean the same in each subcommand listing it."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


@functools.cache  # one parser per process, built on the first call: parse with it only
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bioinv",
        description="Optimistic-robust omnichannel inventory positioning")
    ap.add_argument("-v", "--verbose", action="count", default=0,
                    help="log progress on stderr: -v each CCG iteration and simulated "
                         "week, -vv also each LP/MIP solve")
    sub = ap.add_subparsers(dest="command", required=True)

    instance, force = _group(), _group()
    instance.add_argument("instance")
    force.add_argument("--force", action="store_true")
    out, out_file = _group(force), _group(force)
    out.add_argument("--out")
    out_file.add_argument("--out-file", required=True)
    quantiles, samples, seed, integer, ccg = _group(), _group(), _group(), _group(), _group()
    quantiles.add_argument("--lower-q", type=float, default=DEFAULT_LOWER_Q)
    quantiles.add_argument("--upper-q", type=float, default=DEFAULT_UPPER_Q)
    samples.add_argument("--samples", type=int, default=1000)
    samples.add_argument("--family", default="poisson", choices=["poisson", "uniform"])
    seed.add_argument("--seed", type=int, default=0)
    integer.add_argument("--integer", action="store_true")
    opts = CcgOptions()
    ccg.add_argument("--epsilon", type=float, default=opts.epsilon)
    ccg.add_argument("--max-iterations", type=int, default=opts.max_iterations)
    ccg.add_argument("--max-seconds", type=float, default=opts.max_seconds)
    ccg.add_argument("--subproblem-mode", default=opts.subproblem_mode,
                     choices=[EXACT_MIP, ALTERNATING])

    p = sub.add_parser("validate", help="check instance assumptions", parents=[instance])
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="two-stage robust / BIO solve",
                       parents=[instance, quantiles, integer, ccg, out])
    p.add_argument("--uncertainty", help="uncertainty-set JSON")
    p.add_argument("--means", help="demand means JSON (Poisson quantile bounds)")
    p.add_argument("--lambda", dest="lam", type=float, default=BioConfig().lam)
    p.add_argument("--allied", default=BioConfig().allied_channels, choices=["walkin", "both"])
    p.add_argument("--repositioning", action="store_true")
    p.add_argument("--allow-violations", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("evaluate", help="score an allocation on scenarios",
                       parents=[instance, out])
    p.add_argument("--allocation", required=True)
    p.add_argument("--scenarios", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tune", help="choose lambda on out-of-sample scores",
                       parents=[instance, samples, quantiles, integer, seed, ccg, out])
    p.add_argument("--uncertainty")
    p.add_argument("--means")
    p.add_argument("--scenarios")
    p.add_argument("--method", default="grid", choices=["grid", "bisection"])
    p.add_argument("--grid", help="comma-separated lambda values")
    p.add_argument("--objective", default=ScoringObjective().kind,
                   choices=["mean", "worst_case", "best_case", "cvar"])
    p.add_argument("--cvar-level", type=float, default=ScoringObjective().level)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("simulate", help="rolling-horizon business simulation",
                       parents=[instance, seed, out])
    p.add_argument("--means", required=True, help="weekly demand means JSON")
    p.add_argument("--policy", nargs="+", default=["basestock"],
                   help="basestock | pwl | bio | bioNN: bio plans at lambda NN/100 "
                        "(bio10 is 0.1, bio is 0)")
    p.add_argument("--weeks", type=int, default=3)
    p.add_argument("--replications", type=int, default=30)
    plan = PolicySpec("bio").ccg
    p.add_argument("--max-iterations", type=int, default=plan.max_iterations)
    p.add_argument("--subproblem-mode", default=plan.subproblem_mode,
                   choices=[EXACT_MIP, ALTERNATING])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen-instance", help="generate a synthetic instance",
                       parents=[seed, out_file])
    p.add_argument("--stores", type=int, required=True)
    p.add_argument("--dcs", type=int, default=0)
    p.add_argument("--zones", type=int, default=0)
    p.add_argument("--horizon", type=int, default=2)
    p.add_argument("--weeks", type=int, default=None)
    p.add_argument("--lead-time", type=int, default=1)
    p.add_argument("--mean-range", type=float, nargs=2, default=[0.5, 3.0],
                   metavar=("LO", "HI"), help="weekly Poisson mean range")
    p.add_argument("--cost-range", type=float, nargs=2, default=[0.35, 0.55],
                   metavar=("LO", "HI"), help="purchase cost as a price fraction")
    p.add_argument("--means-out")
    p.set_defaults(func=cmd_gen_instance)

    p = sub.add_parser("sample", help="draw seeded demand scenarios",
                       parents=[samples, quantiles, seed, out_file])
    p.add_argument("--means", required=True)
    p.set_defaults(func=cmd_sample)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv, argparse.Namespace(argv=argv))
    # the package logger is silent unless asked; the handler lives for this
    # call only, so repeated in-process calls do not stack handlers
    log = logging.getLogger("bioinv")
    handler, level = None, log.level
    if args.verbose:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(name)s %(levelname)s: %(message)s"))
        log.addHandler(handler)
        log.setLevel(logging.INFO if args.verbose == 1 else logging.DEBUG)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # diagnostics, nonzero exit
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:  # removing no handler (None) is a no-op
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
