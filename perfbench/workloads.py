"""The three benchmark workloads.

Each workload drives bioinv through its CLI front door, `bioinv.cli.main`,
in-process, on the shipped `data/` fixtures and on inputs generated from the
benchmark seed.  `setup` is timed as a whole (and repeated by the runner);
`run_round` performs one round of operations, each timed alone, and has
every operation's output checked right after it by the checker process
(`checker.py`), against references computed apart from bioinv.  A round
always attempts the same operations, so the share of failed operations is
the same in every run.

Operation groups: "primary" and "secondary" are the two end-to-end timings
of the workload; "other" operations are attempted and checked but not
timed into either.

Every timed operation is bracketed by `calibrate()`, a fixed piece of work
that does not depend on bioinv: its time just before and just after the
operation gives the machine's speed at that moment (see `Op.scale`).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Criterion-1 optima of the walk-in fixtures (mean 1 per location, box [0,3],
# budget [1,6]), as re-derived by the HiGHS LP oracle test: (p, b) -> {lam: value}.
WALKIN_OPTIMA = {
    "p0_b160": {0.0: -360.0, 0.5: -200.0},
    "p160_b0": {0.0: 40.0, 0.5: 380.0},
    "p80_b80": {0.0: -160.0, 0.5: 40.0},
}

# gen-instance omnichannel instances of the certified exact-solve set:
# (stores, dcs, zones, horizon, generator seed).  (2, 1, 1, 2, 1), whose two
# solves took 3.5 s of a 6.4 s set, is left out so that a round is short
# enough for a run to take the median of several.
EXACT_INSTANCES = ((2, 0, 1, 1, 1), (3, 1, 2, 1, 1), (2, 0, 1, 2, 1))
EXACT_LAMBDAS = ("0", "0.1")
# ref-ah-bio10 plans on the 35%/65% Poisson quantiles of the reference plan:
# the operation then takes about 0.7 s, most of it the worst-case rescore
# MIP, and runs REF_AH_RUNS times a round, at as many places in the shuffled
# order, so that a run's median rests on many samples of it.  On the 30%/70%
# set one run took 2.5-3 s, a run of the benchmark made 2 or 3 rounds, and
# its median moved with the machine's speed by 0.10-0.14 (quartile spread).
# On the default 5%/95% set (84 binaries) the rescore takes 35-45 s of the
# 60 s limit after which bioinv drops worst_case_profit.
REF_AH_QUANTILES = (0.35, 0.65)
REF_AH_RUNS = 4
# ref-exact-bio10's wall-clock cap: it ends uncertified after 1 s as after
# 60 s, and every second of it is a second less of the timed operations.
REF_EXACT_CAP_S = 1.0

# Scaled times are given at this calibrate() time: a round figure near its
# median in a fast stretch of the 2-core machine of the README's baselines
# (Python 3.11.7, numpy 2.4.6).
CALIBRATION_REF_S = 0.010
_CAL_ROWS = np.random.default_rng(0).random((20, 70))


def calibrate() -> float:
    """Time a fixed mix of the kind of work bioinv's simplex does, a
    pure-Python loop and small dense numpy steps, that does not depend on
    bioinv: the machine's speed at that moment."""
    t0 = perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i % 7
    x = np.ones(70)
    for _ in range(1_000):
        j = int(np.argmin(_CAL_ROWS @ x))
        x = x + _CAL_ROWS[j] * 1e-9
    return perf_counter() - t0


def speed_scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two calibrations to the
    reference speed."""
    return CALIBRATION_REF_S / ((before + after) / 2)


@dataclass
class Op:
    name: str
    group: str                      # primary | secondary | other
    seconds: float = 0.0
    scale: float = 1.0              # speed_scale() around the operation
    failed: bool = False
    errors: list = field(default_factory=list)


class CliFailure(Exception):
    pass


class CheckerProcess:
    """The checker (`checker.py`) in a child process: one JSON request and
    one JSON reply per line.  It holds scipy, so the benchmarked process
    never loads it."""

    def __init__(self, root: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(root, "perfbench", "checker.py"), root],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.ask("ready")

    def ask(self, kind: str, **request) -> dict:
        self.proc.stdin.write(json.dumps({"kind": kind, **request}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the checker ended (exit code {self.proc.wait()})")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Workload:
    min_rounds = 1
    capped_ops: tuple = ()          # ops whose work depends on a wall-clock cap

    def __init__(self, root: str, work: str, seed: int, tiny: bool, checker: CheckerProcess):
        self.root, self.work, self.seed, self.tiny = root, work, seed, tiny
        self.checker = checker
        self.data = os.path.join(root, "data")
        self.bioinv = None
        self.tracer = None
        self.checks_run = 0
        self.op_id = None
        os.makedirs(work, exist_ok=True)

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def cli(self, argv) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.bioinv.cli.main([str(a) for a in argv])
        if rc != 0:
            raise CliFailure(f"bioinv {' '.join(map(str, argv))} exited {rc}: "
                             f"{err.getvalue().strip()}")
        return out.getvalue()

    def timed(self, op: Op, fn, *args):
        """Run one operation with its trace id, between two calibrations;
        return its result."""
        before = calibrate()
        if self.tracer:
            self.tracer.op = self.op_id
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            op.seconds = perf_counter() - t0
            if self.tracer:
                self.tracer.op = None
            op.scale = speed_scale(before, calibrate())

    def verify(self, op: Op, kind: str, **request):
        """Have the checker process check the operation's outputs."""
        reply = self.checker.ask(kind, **request)
        self.checks_run += reply["checks"]
        op.errors.extend(reply["errors"])

    def bind(self, bioinv, tracer):
        self.bioinv, self.tracer = bioinv, tracer

    def run_round(self, r: int) -> list[Op]:
        ops = []
        for name, group, fn in self.operations():
            op = Op(name, group)
            self.op_id = f"r{r}:{name}"
            try:
                fn(op)
            except CliFailure as exc:
                op.failed = True
                op.errors.append(str(exc))
            ops.append(op)
        return ops


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _plan_means(root: str) -> dict:
    """The week-0 plan means of the reference instance: the first two rows of
    the three-week reference means (the instance plans two periods)."""
    doc = _read_json(os.path.join(root, "data", "reference_sim_means.json"))
    return {"walkin": doc["walkin"][:2], "online": doc["online"][:2]}


# ---------------------------------------------------------------------------
# mc-eval
# ---------------------------------------------------------------------------

class McEval(Workload):
    """`bioinv evaluate` of two fixed allocations of the reference week-0 plan
    over seeded Poisson scenarios (primary), and `bioinv tune --method
    bisection` on the walk-in fixture (secondary)."""

    def __init__(self, *a):
        super().__init__(*a)
        self.n_ref = 20 if self.tiny else 150
        self.n_walk = 20 if self.tiny else 40
        self.ref_inst = os.path.join(self.data, "reference_sim_instance.json")
        self.walk_inst = os.path.join(self.data, "example_walkin_p0_b160.json")
        self.walk_means = os.path.join(self.data, "example_walkin_means.json")

    def setup(self):
        self.cli(["validate", self.ref_inst])
        self.cli(["validate", self.walk_inst])
        plan = _plan_means(self.root)
        _write_json(self.path("plan_means.json"), plan)
        mw, mo = np.array(plan["walkin"]), np.array(plan["online"])
        base = np.ceil(mw)
        base[:, 5:] = np.ceil(mo.sum(axis=1) / 2.0)[:, None]   # D1, D2 split online demand
        self.allocations = {"base": base, "double": 2.0 * base}
        for name, x in self.allocations.items():
            _write_json(self.path(f"alloc_{name}.json"), {"x": x.tolist()})
        self.cli(["sample", "--means", self.path("plan_means.json"),
                  "--samples", self.n_ref, "--seed", self.seed,
                  "--out-file", self.path("ref_scenarios.json"), "--force"])
        self.cli(["sample", "--means", self.walk_means, "--samples", self.n_walk,
                  "--seed", self.seed, "--out-file", self.path("walk_scenarios.json"),
                  "--force"])
        self.cli(["sample", "--means", self.path("plan_means.json"), "--samples", 3,
                  "--seed", self.seed, "--out-file", self.path("warm_scenarios.json"),
                  "--force"])
        self.cli(["evaluate", self.ref_inst, "--allocation", self.path("alloc_base.json"),
                  "--scenarios", self.path("warm_scenarios.json"),
                  "--out", self.path("warm"), "--force"])

    def operations(self):
        for name in ("base", "double"):
            yield f"evaluate-{name}", "primary", lambda op, n=name: self.evaluate(op, n)
        yield "tune-bisection", "secondary", self.tune

    def evaluate(self, op: Op, name: str):
        out = self.path(f"eval_{name}")
        scenarios = self.path("ref_scenarios.json")
        self.timed(op, self.cli, ["evaluate", self.ref_inst, "--allocation",
                                  self.path(f"alloc_{name}.json"), "--scenarios",
                                  scenarios, "--out", out, "--force"])
        self.verify(op, "evaluate", instance=self.ref_inst, scenarios=scenarios, name=name,
                    x=self.allocations[name].tolist(), out=out)

    def tune(self, op: Op):
        out = self.path("tune")
        scenarios = self.path("walk_scenarios.json")
        self.timed(op, self.cli, ["tune", self.walk_inst, "--means", self.walk_means,
                                  "--scenarios", scenarios,
                                  "--method", "bisection", "--out", out, "--force"])
        self.verify(op, "tune", out=out, scenarios=scenarios)


# ---------------------------------------------------------------------------
# exact-ccg
# ---------------------------------------------------------------------------

class ExactCcg(Workload):
    """Certified exact-MIP solves (primary), the alternating-heuristic solve
    of the reference week-0 plan with its worst-case rescore (secondary), and
    `ref-exact-bio10`: the exact CCG on that plan under a wall-clock cap,
    failed while it ends uncertified."""

    capped_ops = ("ref-exact-bio10",)

    def __init__(self, *a):
        super().__init__(*a)
        self.instances = EXACT_INSTANCES[:2] if self.tiny else EXACT_INSTANCES
        self.ref_inst = os.path.join(self.data, "reference_sim_instance.json")
        self.walk_means = os.path.join(self.data, "example_walkin_means.json")

    @staticmethod
    def tag(spec) -> str:
        return "s{}d{}z{}T{}_{}".format(*spec)

    def setup(self):
        for spec in self.instances:
            s, d, z, T, gseed = spec
            tag = self.tag(spec)
            self.cli(["gen-instance", "--stores", s, "--dcs", d, "--zones", z,
                      "--horizon", T, "--seed", gseed, "--out-file", self.path(f"{tag}.json"),
                      "--means-out", self.path(f"{tag}_means.json"), "--force"])
            self.cli(["validate", self.path(f"{tag}.json")])
        for fixture in WALKIN_OPTIMA:
            self.cli(["validate", os.path.join(self.data, f"example_walkin_{fixture}.json")])
        self.cli(["validate", self.ref_inst])
        plan = _plan_means(self.root)
        _write_json(self.path("plan_means.json"), plan)
        b = self.bioinv
        self.ref = b.instance.load_instance(self.ref_inst)
        self.ref_uset = b.uncertainty.quantile_bounds_from_means(
            b.uncertainty.DemandMeans(np.array(plan["walkin"]), np.array(plan["online"])))
        self.cli(["solve", os.path.join(self.data, "example_walkin_p0_b160.json"),
                  "--means", self.walk_means, "--out", self.path("warm"), "--force"])

    def operations(self):
        ops = []
        for spec in self.instances:
            for lam in EXACT_LAMBDAS:
                ops.append((f"exact-{self.tag(spec)}-lam{lam}", "primary",
                            lambda op, spec=spec, lam=lam: self.exact(op, spec, lam)))
        for fixture in WALKIN_OPTIMA:
            for lam in WALKIN_OPTIMA[fixture]:
                ops.append((f"walkin-{fixture}-lam{lam}", "primary",
                            lambda op, f=fixture, lam=lam: self.walkin(op, f, lam)))
        for i in range(1, REF_AH_RUNS + 1):
            ops.append((f"ref-ah-bio10-{i}", "secondary", self.ref_ah))
        ops.append(("ref-exact-bio10", "other", self.ref_exact))
        # closed loop in a seeded order: the same operations in every round
        random.Random(self.seed).shuffle(ops)
        return ops

    def solve_cli(self, op, instance, means, lam, extra=()) -> str:
        out = self.path("solve_" + op.name)
        self.timed(op, self.cli, ["solve", instance, "--means", means, "--lambda", lam,
                                  *extra, "--out", out, "--force"])
        return os.path.join(out, "solve_report.json")

    def exact(self, op, spec, lam):
        tag = self.tag(spec)
        inst, means = self.path(f"{tag}.json"), self.path(f"{tag}_means.json")
        report = self.solve_cli(op, inst, means, lam)
        self.verify(op, "solve", report=report, instance=inst, means=means)

    def walkin(self, op, fixture, lam):
        inst = os.path.join(self.data, f"example_walkin_{fixture}.json")
        report = self.solve_cli(op, inst, self.walk_means, lam)
        self.verify(op, "solve", report=report, instance=inst, means=self.walk_means,
                    expect=WALKIN_OPTIMA[fixture][lam])

    def ref_ah(self, op):
        if self.tiny:   # a generated instance stands in for the reference solve
            tag = self.tag(self.instances[0])
            inst, means = self.path(f"{tag}.json"), self.path(f"{tag}_means.json")
        else:
            inst, means = self.ref_inst, self.path("plan_means.json")
        report = self.solve_cli(op, inst, means, "0.1",
                                ("--subproblem-mode", "alternating_heuristic",
                                 "--lower-q", REF_AH_QUANTILES[0],
                                 "--upper-q", REF_AH_QUANTILES[1]))
        self.verify(op, "solve", report=report, instance=inst, means=means,
                    quantiles=REF_AH_QUANTILES, certified=False)

    def ref_exact(self, op):
        b = self.bioinv
        options = b.ccg.CcgOptions(max_seconds=REF_EXACT_CAP_S, rescore_worst_case=False)
        rep = self.timed(op, b.ccg.solve_two_stage, self.ref, self.ref_uset,
                         b.formulations.BioConfig(lam=0.1), options)
        # kept as a failing operation until the exact CCG certifies this plan
        op.failed = not (rep.termination == "converged" and rep.certified)
        if not op.failed:
            self.verify(op, "bounds", report=rep.to_dict())


# ---------------------------------------------------------------------------
# rolling-horizon
# ---------------------------------------------------------------------------

class RollingHorizon(Workload):
    """`bioinv simulate` on the reference instance: the bio policies (primary)
    and the basestock and pwl baselines (secondary), seeded by the benchmark
    seed.  Every round repeats both runs at the same seed, so each ledger is
    compared with the first round's."""

    min_rounds = 2

    def __init__(self, *a):
        super().__init__(*a)
        self.bio_reps = 1
        self.base_reps = 2 if self.tiny else 80
        self.inst = os.path.join(self.data, "reference_sim_instance.json")
        self.means = os.path.join(self.data, "reference_sim_means.json")

    def setup(self):
        self.cli(["validate", self.inst])
        self.cli(["simulate", self.inst, "--means", self.means, "--policy", "basestock",
                  "--replications", 1, "--seed", self.seed, "--out", self.path("warm"),
                  "--force"])

    def operations(self):
        yield "simulate-bio", "primary", \
            lambda op: self.simulate(op, ("bio0", "bio10"), self.bio_reps)
        yield "simulate-baselines", "secondary", \
            lambda op: self.simulate(op, ("basestock", "pwl"), self.base_reps)

    def simulate(self, op, policies, reps):
        out = self.path(op.name)
        self.timed(op, self.cli, ["simulate", self.inst, "--means", self.means,
                                  "--policy", *policies, "--weeks", 3,
                                  "--replications", reps, "--seed", self.seed,
                                  "--out", out, "--force"])
        self.verify(op, "ledger", out=out, name=op.name, replications=reps,
                    policies=list(policies))


WORKLOADS = {"mc-eval": McEval, "exact-ccg": ExactCcg, "rolling-horizon": RollingHorizon}
