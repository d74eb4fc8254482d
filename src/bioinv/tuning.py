"""Optimism-parameter theory layer: superposition of robust and optimistic
solutions, closed-form single-location oracles, out-of-sample scoring, and
lambda selection by grid search or bisection.

Under zero initial inventory the optimal bimodal allocation is a convex blend
of the pure-robust (lam = 0) and pure-optimistic (lam = 1) allocations, so a
one-dimensional search over the blend weight replaces repeated two-stage
solves: golden-section search (Kiefer 1953) on the concave validation score.
Grid search re-solves per lambda and works unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .ccg import CcgOptions, solve_two_stage
from .formulations import (Allocation, BioConfig, ScenarioBatch, build_saa_model,
                           evaluate_profits, first_stage_x)
from .instance import Instance
from .records import record_to_dict
from .solver import solve
from .uncertainty import DemandScenario, UncertaintySet

DEFAULT_GRID = (0.05, 0.10, 0.25, 0.50, 0.75)
# the bisection's final interval width: far below the 1e-3 the selection
# needs, so that piecewise-linear kinks are resolved exactly
BISECTION_TOL = 1e-9
_GOLDEN = (5 ** 0.5 - 1) / 2


class TuningError(Exception):
    pass


def superpose(x0: Allocation, x1: Allocation, lam: float) -> Allocation:
    """Element-wise lam * x1 + (1 - lam) * x0."""
    if not 0.0 <= lam <= 1.0:
        raise TuningError(f"lambda must lie in [0,1], got {lam}")
    if x0.x.shape != x1.x.shape:
        raise TuningError(f"allocation shapes differ: {x0.x.shape} vs {x1.x.shape}")

    def blend(a, b):
        if a is None and b is None:
            return None
        aa = a if a is not None else np.zeros_like(b)
        bb = b if b is not None else np.zeros_like(aa)
        return lam * bb + (1.0 - lam) * aa

    return Allocation(
        lam * x1.x + (1.0 - lam) * x0.x,
        blend(x0.x_repo, x1.x_repo),
        blend(x0.s_plus, x1.s_plus),
        blend(x0.y_plus, x1.y_plus),
    )


def closed_form_single_location(p: float, b: float, h: float, c: float,
                                d_min: float, d_max: float) -> dict:
    """Single walk-in location, one period, zero lead time and inventory:
    optimal robust and optimistic order quantities and objectives.

    The optimistic order matches the largest demand when the margin is
    positive and the smallest otherwise (buying below the demand floor only
    adds lost-sales penalty, so the floor is where the negative-margin
    optimum sits, with value (p - c) * d_min)."""
    if not (p + b >= c > 0):
        raise TuningError(f"requires p+b >= c > 0, got p+b={p + b}, c={c}")
    if d_min > d_max:
        raise TuningError(f"requires d_min <= d_max, got [{d_min}, {d_max}]")
    if min(p, b, h) < 0:
        raise TuningError("parameters must be nonnegative")
    if p >= c:
        x1, z1 = d_max, (p - c) * d_max
    else:
        x1, z1 = d_min, (p - c) * d_min
    denom = p + b + h
    x0 = ((p + h) * d_min + b * d_max) / denom
    z0 = ((p + b - c) * (p + h) * d_min - (h + c) * b * d_max) / denom
    return {"x_bio0": x0, "z_bio0": z0, "x_bio1": x1, "z_bio1": z1}


@dataclass
class ScoringObjective:
    kind: str = "mean"             # mean | worst_case | best_case | cvar | mixture
    level: float = 0.05            # cvar tail fraction
    components: list = field(default_factory=list)  # [(weight, ScoringObjective)]

    def __post_init__(self):
        kinds = ("mean", "worst_case", "best_case", "cvar", "mixture")
        if self.kind not in kinds:
            raise TuningError(f"unknown scoring kind {self.kind!r}")
        if self.kind == "cvar" and not 0.0 < self.level <= 1.0:
            raise TuningError(f"cvar level must be in (0,1], got {self.level}")
        if self.kind == "mixture":
            if not self.components:
                raise TuningError("mixture needs components")
            w = [float(wt) for wt, _ in self.components]
            if any(v < 0 for v in w) or abs(sum(w) - 1.0) > 1e-9:
                raise TuningError("mixture weights must be >= 0 and sum to 1")

    def min_samples(self) -> int:
        if self.kind == "cvar":
            return int(np.ceil(1.0 / self.level))
        if self.kind == "mixture":
            return max(obj.min_samples() for _, obj in self.components)
        return 1

    def score(self, profits: np.ndarray) -> float:
        profits = np.asarray(profits, dtype=float)
        if self.kind == "mean":
            return float(profits.mean())
        if self.kind == "worst_case":
            return float(profits.min())
        if self.kind == "best_case":
            return float(profits.max())
        if self.kind == "cvar":
            k = int(np.ceil(self.level * len(profits)))
            return float(np.sort(profits)[:k].mean())
        return float(sum(w * obj.score(profits) for w, obj in self.components))


def score_allocation(inst: Instance, alloc: Allocation, scenarios: list[DemandScenario],
                     objective: ScoringObjective) -> float:
    if len(scenarios) < objective.min_samples():   # min_samples() >= 1
        raise TuningError(
            f"{objective.kind} at level {objective.level} needs at least "
            f"{objective.min_samples()} samples, got {len(scenarios)}")
    return objective.score(evaluate_profits(inst, alloc, scenarios))


def split_scenarios(scenarios: list[DemandScenario], validation_fraction: float = 0.8):
    """Deterministic order-preserving validation/holdout split."""
    k = min(max(1, int(round(validation_fraction * len(scenarios)))), len(scenarios))
    return scenarios[:k], scenarios[k:]


@dataclass
class TuneResult:
    lam: float
    allocation: Allocation
    score: float                   # holdout score (validation score when no holdout)
    validation_score: float
    curve: list = field(default_factory=list)   # (lambda, validation score)
    reports: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "score": self.score,
            "validation_score": self.validation_score,
            "curve": [[l, s] for l, s in self.curve],
            "allocation": record_to_dict(self.allocation),
        }


def tune_lambda(inst: Instance, uset: UncertaintySet, scenarios,
                objective: ScoringObjective | None = None, method: str = "grid",
                grid: tuple = DEFAULT_GRID, options: CcgOptions | None = None,
                cfg_base: BioConfig | None = None,
                validation_fraction: float = 0.8) -> TuneResult:
    """Pick the optimism weight against out-of-sample scenario scores.

    grid: one CCG solve per candidate lambda, scored on the validation split,
    ties to the smaller lambda.  bisection: solves the lam = 0 and lam = 1
    problems once and searches the superposition segment by golden-section
    search on the concave score down to an interval of BISECTION_TOL, one new
    score per step and about 48 in all (requires zero initial inventory and
    continuous allocations).  A score counts as higher only beyond 1e-12, so
    a flat maximum resolves to its smaller-lambda end, as in grid search; the
    pick is the best of the interval's ends, its midpoint, 0 and 1.  The
    scenarios are checked before any solve and split into two batches, the
    validation and the holdout one, each scored on one fulfillment model.
    Nothing reads a worst-case rescore here, so the CCG reports carry none."""
    objective = objective or ScoringObjective("mean")
    options = replace(options or CcgOptions(), rescore_worst_case=False)
    cfg_base = cfg_base or BioConfig()
    validation, holdout = split_scenarios(ScenarioBatch(inst, scenarios), validation_fraction)
    validation = ScenarioBatch(inst, validation)
    holdout = ScenarioBatch(inst, holdout) if holdout else validation
    # fail before the solves, not on the first score after them
    for split, pool in (("validation", validation), ("holdout", holdout)):
        if len(pool) < objective.min_samples():
            raise TuningError(
                f"{split} split holds {len(pool)} scenarios; {objective.kind} scoring "
                f"needs at least {objective.min_samples()}")

    def vscore(alloc):
        return score_allocation(inst, alloc, validation, objective)

    def hscore(alloc):
        return score_allocation(inst, alloc, holdout, objective)

    if method == "grid":
        best = None
        curve = []
        reports = {}
        for lam in grid:
            rep = solve_two_stage(inst, uset, replace(cfg_base, lam=float(lam)), options)
            sc = vscore(rep.allocation)
            curve.append((float(lam), sc))
            reports[float(lam)] = rep
            # strict improvement keeps the smaller lambda on ties
            if best is None or sc > best[1] + 1e-12:
                best = (float(lam), sc, rep.allocation)
        lam, vsc, alloc = best
        return TuneResult(lam, alloc, hscore(alloc), vsc, curve, reports)

    if method == "bisection":
        if cfg_base.integer_allocations:
            raise TuningError("bisection is unavailable with integer allocations; use grid")
        if not inst.zero_initial_inventory():
            raise TuningError("bisection requires zero initial inventory; use grid")
        rep0 = solve_two_stage(inst, uset, replace(cfg_base, lam=0.0), options)
        rep1 = solve_two_stage(inst, uset, replace(cfg_base, lam=1.0), options)
        x0, x1 = rep0.allocation, rep1.allocation
        cache: dict[float, float] = {}

        def phi(lam):
            key = round(lam, 12)
            if key not in cache:
                cache[key] = vscore(superpose(x0, x1, lam))
            return cache[key]

        # c < d split [a, b] in the golden ratio, so the one that survives a
        # step is an interior point of the next; ties keep the smaller lambda
        a, b, c, d = 0.0, 1.0, 1.0 - _GOLDEN, _GOLDEN
        while b - a > BISECTION_TOL:
            if phi(d) > phi(c) + 1e-12:
                a, c = c, d
                d = a + _GOLDEN * (b - a)
            else:
                b, d = d, c
                c = b - _GOLDEN * (b - a)
        candidates = sorted(set([0.0, 1.0, a, b, 0.5 * (a + b)]))
        lam = max(candidates, key=lambda v: (phi(v), -v))
        alloc = superpose(x0, x1, lam)
        curve = sorted((k, v) for k, v in cache.items())
        return TuneResult(float(lam), alloc, hscore(alloc), phi(lam), curve,
                          {0.0: rep0, 1.0: rep1})

    raise TuningError(f"unknown tuning method {method!r}")


def solve_saa(inst: Instance, scenarios: list[DemandScenario],
              integer_allocations: bool = False,
              uset: UncertaintySet | None = None) -> tuple[Allocation, float]:
    """Explicit sample-average optimum over the given scenarios (oracle for
    the bisection search)."""
    m = build_saa_model(inst, scenarios, integer_allocations, uset)
    sol = solve(m)
    if sol.status != "optimal":
        raise TuningError(f"SAA model ended with status {sol.status}")
    return Allocation(first_stage_x(m, sol)), float(sol.objective)


def verify_superposition(inst: Instance, uset: UncertaintySet, lam: float,
                         options: CcgOptions | None = None,
                         allied: str = "both") -> dict:
    """Solve lam = 0, lam = 1 and lam problems to convergence and report the
    superposition residual, plus whether the superposed allocation re-scores
    to the lam objective.

    The identity is a property of the fully blended formulation, so the
    optimistic side defaults to both channels here; restricting optimism to
    the walk-in channel breaks the exact equality once online demand exists
    (the blend then only lower-bounds the lam objective).
    """
    options = options or CcgOptions()
    rep0 = solve_two_stage(inst, uset, BioConfig(lam=0.0, allied_channels=allied),
                           options)
    rep1 = solve_two_stage(inst, uset, BioConfig(lam=1.0, allied_channels=allied),
                           options)
    repl = solve_two_stage(inst, uset, BioConfig(lam=lam, allied_channels=allied),
                           options)
    predicted = lam * rep1.objective + (1.0 - lam) * rep0.objective
    residual = abs(repl.objective - predicted)
    mixed = superpose(rep0.allocation, rep1.allocation, lam)
    rescore = solve_two_stage(inst, uset, BioConfig(lam=lam, allied_channels=allied),
                              options, fixed_x=mixed.x)
    return {
        "z0": rep0.objective,
        "z1": rep1.objective,
        "z_lambda": repl.objective,
        "predicted": predicted,
        "residual": residual,
        "superposed_rescore": rescore.objective,
        "rescore_residual": abs(rescore.objective - repl.objective),
        "converged": all(r.termination == "converged" for r in (rep0, rep1, repl)),
        "reports": {"bio0": rep0, "bio1": rep1, "bio_lambda": repl},
    }
