"""Correctness checks of the benchmark's operations, in a process of their own.

    python3 perfbench/checker.py <checkout root>

`run.py` starts one checker per run and, after each timed operation, writes
one JSON request per line to its standard input: the check's kind and the
paths of the operation's outputs.  The checker answers each with one line,
`{"checks": <number run>, "errors": [...]}`.  The references (scipy's HiGHS,
the closed forms, enumeration of U) live here, so scipy never enters the
benchmarked process and that process's peak RSS is bioinv's and the
runner's alone.  The checker loads `src/bioinv` of the same checkout only to
rebuild a subproblem's data for HiGHS.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import sys

import numpy as np

import oracle

EPSILON, DELTA = 1e-4, 1e-5          # the CLI's default CCG gap test
ENUMERATION_CAP = 400                 # integer points of U checked by LP enumeration

# Robust and optimistic allocations of the p0_b160 walk-in fixture: the
# superposition segment that `tune --method bisection` searches.
WALKIN_X0, WALKIN_X1 = np.array([3.0, 3.0, 3.0]), np.array([1.0, 0.0, 0.0])

# `bioinv evaluate` writes each profit with repr(); under numpy 2 a numpy
# scalar prints as np.float64(v), so both spellings are read back.
_NP_FLOAT = re.compile(r"np\.float64\((.*)\)")


def _csv_float(text: str) -> float:
    m = _NP_FLOAT.fullmatch(text)
    return float(m.group(1) if m else text)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _close(a, b, tol=1e-6) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Checker:
    """One method per check kind.  References that depend only on an
    operation's inputs (and, for a solve, its allocation) are computed once
    and reused in later rounds."""

    def __init__(self, bioinv):
        self.bioinv = bioinv
        self.count = 0
        self.errors: list[str] = []
        self.reference_profits = {}
        self.worst_cases = {}
        self.first_ledger = {}

    def check(self, ok: bool, message: str):
        self.count += 1
        if not ok:
            self.errors.append(message)

    # -- mc-eval ----------------------------------------------------------

    def evaluate(self, instance, scenarios, name, x, out):
        """Every profit against the HiGHS fulfillment LP built from the
        instance JSON; evaluation.json against the order statistics of
        profits.csv."""
        with open(os.path.join(out, "profits.csv")) as fh:
            profits = np.array([_csv_float(row["profit"]) for row in csv.DictReader(fh)])
        if name not in self.reference_profits:
            lp = oracle.FulfillmentLP(instance)
            self.reference_profits[name] = np.array(
                [lp.profit(x, s["walkin"], s["online"])
                 for s in _read_json(scenarios)["scenarios"]])
        ref = self.reference_profits[name]
        self.check(len(profits) == len(ref), f"{len(profits)} profits for {len(ref)} scenarios")
        if len(profits) == len(ref):
            worst = float(np.max(np.abs(profits - ref)))
            self.check(worst <= 1e-6 * max(1.0, float(np.max(np.abs(ref)))),
                       f"profits differ from the HiGHS fulfillment LP by up to {worst}")
        stats = _read_json(os.path.join(out, "evaluation.json"))
        srt = np.sort(profits)
        expect = {"min": srt[0], "p5": oracle.lower_quantile(srt, 0.05),
                  "p10": oracle.lower_quantile(srt, 0.10),
                  "median": oracle.lower_quantile(srt, 0.50),
                  "mean": float(profits.mean()), "max": srt[-1], "count": len(profits)}
        for key, value in expect.items():
            self.check(_close(stats[key], value, 1e-9),
                       f"evaluation.json {key} {stats[key]} != {value} from profits.csv")

    def tune(self, out, scenarios):
        """The tuned lambda of the p0_b160 fixture re-scored in closed form;
        no lambda of a fine grid on the same segment may score higher (the
        score is concave along it)."""
        rep = _read_json(os.path.join(out, "tune_report.json"))
        demand = np.array([s["walkin"][0] for s in _read_json(scenarios)["scenarios"]])
        k = max(1, int(round(0.8 * len(demand))))
        valid, hold = demand[:k], demand[k:] if k < len(demand) else demand[:k]

        def score(x, d):
            return float(oracle.walkin_profits(x, d, 0.0, 160.0, 40.0).mean())

        lam = rep["lambda"]
        x = np.array(rep["allocation"]["x"][0])
        on_segment = lam * WALKIN_X1 + (1.0 - lam) * WALKIN_X0
        self.check(np.allclose(x, on_segment, atol=1e-6),
                   f"tuned allocation {x.tolist()} is not lam*x1+(1-lam)*x0 at lam={lam}")
        self.check(_close(score(x, valid), rep["validation_score"]),
                   f"validation score {rep['validation_score']} != closed form {score(x, valid)}")
        self.check(_close(score(x, hold), rep["score"]),
                   f"holdout score {rep['score']} != closed form {score(x, hold)}")
        grid = np.linspace(0.0, 1.0, 2001)
        best = max(score(g * WALKIN_X1 + (1.0 - g) * WALKIN_X0, valid) for g in grid)
        self.check(best <= rep["validation_score"] + 1e-6 * max(1.0, abs(best)),
                   f"a grid lambda scores {best} > chosen {rep['validation_score']}")

    # -- exact-ccg --------------------------------------------------------

    def bounds(self, report, certified=True):
        """Termination, certification, final gap and monotone bounds."""
        lbs, ubs = report["lower_bounds"], report["upper_bounds"]
        if certified:
            self.check(report["termination"] == "converged" and report["certified"],
                       f"ended {report['termination']}, certified={report['certified']}")
            gap = (ubs[-1] - lbs[-1]) / (abs(lbs[-1]) + DELTA) if lbs[-1] is not None else None
            self.check(gap is not None and gap <= EPSILON, f"final gap {gap} > {EPSILON}")
        finite = [v for v in lbs if v is not None]
        self.check(all(a <= b for a, b in zip(finite, finite[1:])),
                   f"lower bounds not monotone: {lbs}")
        self.check(all(a >= b for a, b in zip(ubs, ubs[1:])),
                   f"upper bounds not monotone: {ubs}")

    def solve(self, report, instance, means, quantiles=(0.05, 0.95), certified=True,
              expect=None):
        """A `solve_report.json`: its bounds, the criterion-1 value where one
        is given, and the objective and worst_case_profit against HiGHS on
        the same subproblem data and, where U is small, against enumeration
        with the independent LP."""
        rep = _read_json(report)
        self.bounds(rep, certified)
        if expect is not None:
            self.check(_close(rep["objective"], expect),
                       f"objective {rep['objective']} != criterion-1 value {expect}")
        x = np.array(rep["allocation"]["x"], dtype=float)
        key = (instance, means, tuple(quantiles), x.tobytes())
        if key not in self.worst_cases:
            self.worst_cases[key] = self.worst_case(instance, _read_json(means), x, quantiles)
        highs, enum = self.worst_cases[key]
        wcp, obj, lam = rep["worst_case_profit"], rep["objective"], rep["lambda"]
        self.check(wcp is not None and _close(highs, wcp),
                   f"worst-case profit {wcp} != HiGHS milp {highs}")
        if lam == 0.0:
            self.check(_close(obj, highs), f"objective {obj} != worst-case profit {highs}")
        else:
            self.check(obj >= highs - 1e-6 * max(1.0, abs(highs)),
                       f"objective {obj} < worst-case profit {highs}")
        if enum is not None:
            self.check(_close(enum, highs),
                       f"worst-case profit {highs} by HiGHS != enumeration over U {enum}")

    def worst_case(self, inst_path, means_doc, x, quantiles):
        """(HiGHS milp on bioinv's lambda = 0 subproblem, minimum of the
        independent LP over U's integer points or None when U is large)."""
        b = self.bioinv
        inst = b.instance.load_instance(inst_path)
        uset = b.uncertainty.quantile_bounds_from_means(b.uncertainty.DemandMeans(
            np.array(means_doc["walkin"], dtype=float),
            np.array(means_doc["online"], dtype=float)), *quantiles)
        model = b.formulations.build_subproblem(inst, uset, b.formulations.Allocation(x), 0.0)
        highs = oracle.highs_milp(model) - float((inst.econ.purchase_cost[None, :] * x).sum())
        points = oracle.integer_points(means_doc, ENUMERATION_CAP, *quantiles)
        if points is None:
            return highs, None
        lp = oracle.FulfillmentLP(inst_path)
        return highs, min(lp.profit(x, w, o) for w, o in points)

    # -- rolling-horizon --------------------------------------------------

    def ledger(self, out, name, replications, policies):
        """Ledger identities of `kpi_ledger.csv`, and the same ledger as the
        first run of the operation at the same seed."""
        with open(os.path.join(out, "kpi_ledger.csv")) as fh:
            text = fh.read()
        rows = [row for row in csv.DictReader(io.StringIO(text))
                if row["replication"] != "aggregate"]
        self.check(len(rows) == replications * len(policies),
                   f"{len(rows)} ledger rows for {replications} x {len(policies)}")
        for row in rows:
            v = {k: float(x) for k, x in row.items() if k not in ("policy", "replication")}
            where = f"{row['policy']} replication {row['replication']}"
            self.check(v["realized_profit"]
                       == v["satisfied_revenue"] - v["shipping_cost"] - v["purchase_cost"],
                       f"{where}: realized_profit is not revenue - shipping - purchase")
            for k in ("walkin_service_level", "ecom_service_level", "total_service_level"):
                self.check(0.0 <= v[k] <= 1.0, f"{where}: {k} = {v[k]}")
            self.check(v["sfs_qty"] <= v["total_sales_qty"] - v["walkin_sales_qty"],
                       f"{where}: sfs_qty exceeds online sales")
            self.check(v["solver_failures"] == 0,
                       f"{where}: {v['solver_failures']} solver failures")
        first = self.first_ledger.setdefault(name, text)
        self.check(text == first, "ledger differs from the first run at the same seed")


def main() -> int:
    sys.path.insert(0, os.path.join(sys.argv[1], "src"))
    import bioinv.formulations
    import bioinv.instance
    import bioinv.uncertainty

    reply, sys.stdout = sys.stdout, sys.stderr     # only replies go to the pipe
    checker = Checker(bioinv)
    kinds = {"ready": lambda: None, "evaluate": checker.evaluate, "tune": checker.tune,
             "bounds": checker.bounds, "solve": checker.solve, "ledger": checker.ledger}
    for line in sys.stdin:
        request = json.loads(line)
        kind = request.pop("kind")
        checker.count, checker.errors = 0, []
        try:
            kinds[kind](**request)
        except Exception as exc:  # a broken output is a failed check, not a dead checker
            checker.errors.append(f"{kind} check raised {type(exc).__name__}: {exc}")
        reply.write(json.dumps({"checks": checker.count, "errors": checker.errors}) + "\n")
        reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
