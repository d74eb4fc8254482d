"""Run the benchmark over several seeds and report, per end-to-end metric,
the median and the quartile spread (Q3 - Q1) / median of the runs.

    python3 perfbench/spread.py --workload rolling-horizon --seeds 1-10

Each run is a separate `perfbench/run.py` process, one after another.
`scale` is the median over the runs of each run's median speed scale (see
`workloads.speed_scale`; above 1 is a slower machine than the reference),
and `unscaled` the medians of the runs' unscaled times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    lo, hi = (int(v) for v in args.seeds.split("-"))
    runs = []
    for seed in range(lo, hi + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        *_, summary, last = proc.stdout.strip().splitlines()
        res = json.loads(last)
        res.update({k: json.loads(summary)[k] for k in ("scale", "unscaled")})
        runs.append(res)
        print(json.dumps({"seed": seed, **res}), flush=True)
    report = {"workload": args.workload, "runs": len(runs),
              "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
              "correct": all(r["correct"] for r in runs),
              "scale": statistics.median(r["scale"] for r in runs),
              "unscaled": {k: statistics.median(r["unscaled"][k] for r in runs)
                           for k in runs[0]["unscaled"]},
              "metrics": {}}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        report["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                   "spread": (q3 - q1) / med if med else None}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
