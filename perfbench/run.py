"""bioinv benchmark.

    python3 perfbench/run.py --workload mc-eval --seed 1 --seconds 20 --trace 0

Runs one workload from the root of a source checkout, in one process, as a
closed loop: operations run back to back, in whole rounds, for the round
count that ends nearest to `--seconds` (and at least the workload's minimum
number of rounds).  Each operation's outputs are checked by a child process
(checker.py) that holds scipy and the references.  BLAS and bioinv threads
are pinned to 1.  The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`:

  --trace 0  end-to-end metrics (setup_s, primary_s, secondary_s, peak_rss_mb):
             the median set-up and each group's median round, both scaled to
             the reference machine speed (workloads.calibrate), the peak RSS
  --trace 1  per-layer metrics from spans around bioinv's public functions

`--tiny` shrinks every input for the self-test (perfbench/selftest.py).
Exits 2 without a result when the checkout has no `src/bioinv` or `data/`.
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["BIOINV_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import types  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_REPEATS = 25
FIXTURES = ("reference_sim_instance.json", "reference_sim_means.json",
            "example_walkin_means.json", "example_walkin_p0_b160.json",
            "example_walkin_p160_b0.json", "example_walkin_p80_b80.json")
BIOINV_MODULES = ("instance", "uncertainty", "formulations", "solver", "ccg",
                  "tuning", "simulate", "reference", "cli")


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_bioinv():
    """Import bioinv afresh from the checkout's src/ (timed as set-up)."""
    for name in [n for n in sys.modules if n == "bioinv" or n.startswith("bioinv.")]:
        del sys.modules[name]
    pkg = importlib.import_module("bioinv")
    expected = os.path.join(ROOT, "src", "bioinv")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != expected:
        fail(f"bioinv imported from {pkg.__file__}, not from {expected}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"bioinv.{m}")
                                    for m in BIOINV_MODULES})


def per_layer(tracer, ops_by_round, setup_ops, capped) -> dict:
    """Per-layer metrics per round (counts repeat exactly between runs) and,
    for the set-up layers, per set-up repetition."""
    rounds = len(ops_by_round)
    t = tracer.totals([f"r{r}:{op.name}" for r, ops in enumerate(ops_by_round)
                       for op in ops if op.name not in capped])
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    def ratio(a, b):
        return a / b if b else 0.0

    def layer(span, fields=("calls", "s")):
        for f in fields:
            put(f"{span}.{f}", t[span][f] / rounds,
                "count" if f in ("calls", "iters", "nodes") else "s")

    for cls in ("fulfillment", "master", "dual_lp"):
        layer(f"solver.{cls}", ("calls", "s", "iters"))
    mip = t["solver.subproblem_mip"]
    layer("solver.subproblem_mip", ("calls", "s", "iters", "nodes"))
    put("solver.subproblem_mip.nodes_per_s", ratio(mip["nodes"], mip["s"]), "1/s")
    put("solver.subproblem_mip.iters_per_node", ratio(mip["iters"], mip["nodes"]), "count")
    for span in ("solver.pwl", "formulations.build_fulfillment_model",
                 "formulations.build_subproblem", "formulations.build_master",
                 "ccg.solve_two_stage", "ccg.alternating_heuristic_subproblem",
                 "tuning.score_allocation", "simulate.fulfill_order_stream"):
        layer(span)
    ccg = t["ccg.solve_two_stage"]
    layer("ccg.solve_two_stage", ("self_s",))
    put("ccg.iterations", ccg["iterations"] / rounds, "count")
    put("ccg.unreported_s", (ccg["s"] - ccg["wall_time"]) / rounds, "s")
    for span in ("simulate.batch_evaluate", "tuning.tune_lambda", "simulate.run_rolling_horizon"):
        layer(span, ("s",))
    policy = t["simulate._solve_policy"]
    put("simulate.policy_solves", policy["calls"] / rounds, "count")
    put("simulate.policy_solves_distinct_ratio", ratio(policy["distinct"], policy["calls"]),
        "ratio")
    put("cli.overhead_s", t["cli"]["overhead_s"] / rounds, "s")
    setup = tracer.totals(setup_ops)
    for span in ("instance.load_instance", "uncertainty.sample_scenarios",
                 "uncertainty.quantile_bounds_from_means"):
        put(f"{span}.s", setup[span]["s"] / len(setup_ops), "s")
    c = tracer.totals([f"r{r}:{name}" for r in range(rounds) for name in capped])
    put("capped.subproblem_mip.nodes_per_s",
        ratio(c["solver.subproblem_mip"]["nodes"], c["solver.subproblem_mip"]["s"]), "1/s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    missing = [p for p in [os.path.join("src", "bioinv", "__init__.py")]
               + [os.path.join("data", f) for f in FIXTURES]
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail(f"not a bioinv source checkout ({', '.join(missing)} missing under {ROOT})")
    sys.path.insert(0, os.path.join(ROOT, "src"))

    # the benchmark's own imports stay outside the set-up time
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    work = os.path.join(OUT, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    tracer = tracing.Tracer() if args.trace else None
    checker = workloads.CheckerProcess(ROOT)
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, work, args.seed, args.tiny, checker)
        setup_s, setup_scaled, setup_ops = [], [], []

        def set_up():
            gc.collect()
            before = workloads.calibrate()
            t0 = perf_counter()
            bioinv = import_bioinv()
            if tracer:
                tracer.install()
                tracer.op = f"setup{len(setup_s)}"
                setup_ops.append(tracer.op)
            wl.bind(bioinv, tracer)
            wl.setup()
            setup_s.append(perf_counter() - t0)
            if tracer:
                tracer.op = None
            setup_scaled.append(setup_s[-1] * workloads.speed_scale(before, workloads.calibrate()))

        # Set-up repetitions are spread evenly between the rounds, so that
        # their median sees the same stretch of machine time as the rounds.
        # Rounds are whole; the run stops at the round count that ends
        # nearest to --seconds.
        set_up()
        ops_by_round = []
        start = perf_counter()
        while True:
            ops_by_round.append(wl.run_round(len(ops_by_round)))
            elapsed = perf_counter() - start
            if len(ops_by_round) == 1:
                rounds = max(wl.min_rounds, round(args.seconds / elapsed))
                per_round = -(-(SETUP_REPEATS - 1) // rounds)
            for _ in range(min(per_round, SETUP_REPEATS - len(setup_s))):
                set_up()
            if (len(ops_by_round) >= wl.min_rounds
                    and elapsed + 0.5 * elapsed / len(ops_by_round) >= args.seconds):
                break
        while len(setup_s) < SETUP_REPEATS:
            set_up()
    finally:
        checker.close()
        shutil.rmtree(work, ignore_errors=True)
    if "scipy" in sys.modules:
        fail("scipy was loaded into the benchmarked process; peak_rss_mb would count it")

    ops = [op for rnd in ops_by_round for op in rnd]
    for op in ops:
        for err in op.errors:
            print(f"CHECK FAILED {op.name}: {err}", file=sys.stderr)
    result = {
        "correct": not any(op.errors for op in ops if not op.failed),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
    }
    # The machine's speed moves between levels up to 1.5x apart, for
    # seconds to minutes at a time, from outside the process; each time is
    # scaled by the calibrations around it, and the median taken.
    def group_s(group, scaled=True):
        return statistics.median(
            sum(op.seconds * (op.scale if scaled else 1.0) for op in rnd if op.group == group)
            for rnd in ops_by_round)
    end_to_end = {
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "primary_s": {"value": group_s("primary"), "unit": "s"},
        "secondary_s": {"value": group_s("secondary"), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    os.makedirs(OUT, exist_ok=True)
    if tracer:
        result["metrics"] = per_layer(tracer, ops_by_round, setup_ops, wl.capped_ops)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
    else:
        result["metrics"] = end_to_end
    # the traced run's end-to-end times give the tracing overhead
    summary = {"workload": args.workload, "seed": args.seed, "rounds": len(ops_by_round),
               "checks": wl.checks_run,
               "scale": statistics.median(op.scale for op in ops),
               "unscaled": {"setup_s": statistics.median(setup_s),
                            "primary_s": group_s("primary", scaled=False),
                            "secondary_s": group_s("secondary", scaled=False)},
               "ops": {op.name: op.failed for op in ops_by_round[0]}, "setup_runs_s": setup_s,
               "op_s": {op.name: [rnd[i].seconds for rnd in ops_by_round]
                        for i, op in enumerate(ops_by_round[0])},
               "op_scale": {op.name: [rnd[i].scale for rnd in ops_by_round]
                            for i, op in enumerate(ops_by_round[0])},
               "end_to_end": {k: v["value"] for k, v in end_to_end.items()}}
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({**summary, **result}, fh, indent=1)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
