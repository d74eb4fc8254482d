"""Embedded LP / mixed-binary solver.

Self-contained two-phase bounded-variable simplex plus best-bound
branch-and-bound on binary variables.  Every optimization model in this
package goes through `LinearModel` and `solve` (or `LPFamily` for a
batch of LPs), so an external backend could be swapped in behind the same
interface.

One engine serves every solve.  A `solve` or `LPFamily` call works on
the model's standard form (`_StandardLP`); every LP of the call (the model
itself, a branch-and-bound node, a family member) is that form with its own
right-hand side and column bounds, solved by `_StandardLP.solve`.
Branch-and-bound minimizes, a `max` objective negated (which is exact), and
fixes binaries through column bounds (binaries are never split or negated).
A fractional root LP is the first node, re-solved from its own basis; every
node is re-optimized by dual simplex from its parent's optimal basis and
split by `_branch`.  An open node keeps only that basis, the column statuses
and the phase-1 row flips, shared with its sibling.  The tableau is rebuilt
from that basis by Gauss-Jordan elimination when the first of the two is
popped, and a copy is kept for the other (none for the root): the rebuild
reads neither bounds, right-hand side nor cost, so the copy is bit for bit
what a second rebuild would give.  Family members are re-optimized by dual
simplex from the last optimal basis.  A re-optimization is accepted only
within 1e-12 of the bounds.  A node or member is solved cold when its basis
matrix is singular or the dual simplex gives up, and reported infeasible
without a cold solve when a row stays infeasible with no column to enter.
Both simplex loops recompute the reduced costs (the dual one also the basic
values) from the whole tableau at each pivot, so their rounding is that of a
full recomputation; the masks, bound signs, nonbasic values and basic bounds
they test against are set once per call and follow the entering and leaving
columns.  They share one pivot step, which updates only the rows with a
nonzero in the pivot column.

Phase 1 never reads the objective.  So a model keeps its standard form and
its simplex after phase 1 from its first `solve` on, and a later `solve` with
the same constraints and bounds runs phase 2 only, from a copy of it: the
whole solve of an LP, the root of branch-and-bound.  The result is the cold
solve's, bit for bit; `simplex_iterations` still counts the reused phase-1
pivots.  `add_var` and `add_constr` drop that simplex.  An LP also keeps the
simplex of its last optimal solve, which growth does not drop: an LP that has
only grown since, its old rows and bounds unchanged, is re-optimized by dual
simplex from that tableau, extended by the new columns and rows (a CCG master
after each scenario block).  `simplex_iterations` then counts the dual pivots.
That tableau is carried, not refactorized, so its round-off grows with each
growth.  When the dual simplex ends other than optimal, or its x misses a row
of the model by more than 1e-9, the tableau is refactorized once from the
basis the dual simplex reached, as a node's is, and re-optimized again
(`simplex_iterations` counting both runs); only when that fails too is the LP
solved cold.  A solve that reused the kept phase 1 (an objective-only change)
keeps no optimum.  An LP's kept standard form drops its dense matrix, which
only node rebuilds read.

Conventions: variables carry individual bounds (free variables are split
internally); constraints are dense-ified at solve time (desk-scale models
only); the simplex uses Dantzig pricing with lowest-index tie-breaking and
falls back to Bland's rule after a degenerate streak, which keeps every solve
deterministic and cycle-free.  Tolerances: feasibility 1e-7, relative
optimality 1e-6, binary integrality 1e-6.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import logging
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

_log = logging.getLogger(__name__)

INF = float("inf")

FEAS_TOL = 1e-7
OPT_TOL = 1e-6
INT_TOL = 1e-6
REDUCED_COST_TOL = 1e-9
_PIVOT_TOL = 1e-9
# A re-optimized basis is accepted only this close to its bounds.  With a
# 1e-9 slack, scores of superposed allocations in bisection tuning moved by
# up to 9e-8 from cold solves, enough to change the chosen lambda.
_REOPT_TOL = 1e-12
# A grown LP's warm solve must meet each of the model's rows this closely,
# else it is refactorized.  Its tableau is carried over from solve to solve;
# a CCG master grown by three scenario blocks missed a row by 8e-9, where
# cold solves stay within 3e-11.
_ROW_TOL = 1e-9

CONTINUOUS = "continuous"
BINARY = "binary"

LESS_EQUAL = "<="
EQUAL = "=="
GREATER_EQUAL = ">="

_SENSES = (LESS_EQUAL, EQUAL, GREATER_EQUAL)


class SolverError(Exception):
    pass


@dataclass
class _Constraint:
    cols: list
    vals: list
    sense: str
    rhs: float
    name: str = ""


class LinearModel:
    """A linear program or mixed-binary program in natural (row) form."""

    def __init__(self, name: str = "", sense: str = "max"):
        if sense not in ("min", "max"):
            raise SolverError(f"objective sense must be min or max, got {sense!r}")
        self.name = name
        self.obj_sense = sense
        self.var_names: list[str] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.kind: list[str] = []
        self.constraints: list[_Constraint] = []
        self.obj: dict[int, float] = {}
        self.obj_const = 0.0
        # SOS1 groups (cols, weights): exactly one member is nonzero; used
        # for dichotomy branching when every member is binary
        self.sos1: list[tuple[list[int], list[float]]] = []
        # builder metadata (variable index maps etc.), free-form
        self.info: dict = {}
        self._phase1: _Kept | None = None  # kept by solve

    def add_sos1(self, cols: list[int], weights: list[float]):
        self.sos1.append((list(cols), [float(w) for w in weights]))

    @property
    def num_vars(self) -> int:
        return len(self.lb)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def add_var(self, name: str, lb: float = 0.0, ub: float = INF,
                kind: str = CONTINUOUS) -> int:
        if kind not in (CONTINUOUS, BINARY):
            raise SolverError(f"unknown variable kind {kind!r}")
        if kind == BINARY and not (lb >= 0.0 and ub <= 1.0):
            raise SolverError(f"binary variable {name!r} must have bounds within [0,1]")
        if lb > ub:
            raise SolverError(f"variable {name!r} has lb {lb} > ub {ub}")
        self._grow()
        self.var_names.append(name)
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.kind.append(kind)
        return len(self.lb) - 1

    def add_constr(self, coeffs, sense: str, rhs: float, name: str = "") -> int:
        if sense not in _SENSES:
            raise SolverError(f"unknown constraint sense {sense!r}")
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        acc: dict[int, float] = {}
        for j, v in items:
            v = float(v)
            if v == 0.0:
                continue
            acc[j] = acc.get(j, 0.0) + v
        cols, vals = [], []
        for j in acc:
            if not 0 <= j < self.num_vars:
                raise SolverError(f"constraint {name!r} references unknown column {j}")
            cols.append(j)
            vals.append(acc[j])
        self._grow()
        self.constraints.append(_Constraint(cols, vals, sense, float(rhs), name))
        return len(self.constraints) - 1

    def _grow(self):
        """A new column or row makes the kept phase 1 stale; an LP's last
        optimal simplex stays, for `solve` to carry over."""
        kept = self._phase1
        if kept is not None and kept.phase1 is not None:
            self._phase1 = None if kept.optimal is None else kept._replace(phase1=None)

    def set_objective(self, coeffs, sense: str | None = None, const: float = 0.0):
        if sense is not None:
            if sense not in ("min", "max"):
                raise SolverError(f"objective sense must be min or max, got {sense!r}")
            self.obj_sense = sense
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        self.obj = {}
        for j, v in items:
            if not 0 <= j < self.num_vars:
                raise SolverError(f"objective references unknown column {j}")
            if v != 0.0:
                self.obj[j] = self.obj.get(j, 0.0) + float(v)
        self.obj_const = float(const)

    def validate(self) -> list[str]:
        """Invariant check; returns human-readable problems (empty when clean)."""
        problems = []
        for j, (lo, hi, kd) in enumerate(zip(self.lb, self.ub, self.kind)):
            if lo > hi:
                problems.append(f"var {self.var_names[j]}: lb {lo} > ub {hi}")
            if kd == BINARY and (lo < 0.0 or hi > 1.0):
                problems.append(f"binary var {self.var_names[j]} bounds outside [0,1]")
        return problems


@dataclass
class SolveStats:
    simplex_iterations: int = 0
    nodes: int = 0
    wall_time: float = 0.0


@dataclass
class Solution:
    status: str  # optimal | infeasible | unbounded | limit
    objective: float
    x: np.ndarray | None
    stats: SolveStats = field(default_factory=SolveStats)


# ---------------------------------------------------------------------------
# standard form
# ---------------------------------------------------------------------------

class _StandardLP:
    """min c'x, A x = b, l <= x <= u, with a map back to user variables.

    Free variables are split into a difference of nonnegative columns;
    variables with only an upper bound are mirrored first.  With `first`,
    `A` holds only the rows from `first` on.
    """

    def __init__(self, model: LinearModel, first: int = 0):
        self.pos: list[int] = []
        self.neg: list[int | None] = []
        self.negated: list[bool] = []
        lbs: list[float] = []
        ubs: list[float] = []
        for lo, hi in zip(model.lb, model.ub):
            negated = lo == -INF and hi < INF
            if negated:
                lo, hi = -hi, INF
            self.negated.append(negated)
            self.pos.append(len(lbs))
            if lo == -INF:
                self.neg.append(len(lbs) + 1)
                lbs += [0.0, 0.0]
                ubs += [INF, INF]
            else:
                self.neg.append(None)
                lbs.append(lo)
                ubs.append(hi)
        self.ncols = ncols = len(lbs)
        # for `recover`: split columns and negated variables as index arrays
        split = [j for j, k in enumerate(self.neg) if k is not None]
        self._gather = np.array(self.pos, dtype=np.intp)
        self._split = np.array(split, dtype=np.intp)
        self._split_neg = np.array([self.neg[j] for j in split], dtype=np.intp)
        self._negated = np.flatnonzero(self.negated)
        m = model.num_constraints
        nslack = sum(1 for c in model.constraints if c.sense != EQUAL)
        A = np.zeros((m - first, ncols + nslack))
        b = np.empty(m)
        k = ncols
        for i, con in enumerate(model.constraints):
            if i >= first:
                row = A[i - first]
                for j, v in zip(con.cols, con.vals):
                    sign = -v if self.negated[j] else v
                    row[self.pos[j]] += sign
                    if self.neg[j] is not None:
                        row[self.neg[j]] -= sign
                if con.sense != EQUAL:
                    row[k] = 1.0 if con.sense == LESS_EQUAL else -1.0
            b[i] = con.rhs
            if con.sense != EQUAL:
                lbs.append(0.0)
                ubs.append(INF)
                k += 1
        self.A = A
        self.b = b
        self.lb = np.array(lbs)
        self.ub = np.array(ubs)

        self.set_cost(model)

    def set_cost(self, model: LinearModel):
        """The objective of `model`, whose columns and bounds this form holds."""
        c = np.zeros(self.lb.size)
        sgn = 1.0 if model.obj_sense == "min" else -1.0
        for j, v in model.obj.items():
            vv = sgn * (-v if self.negated[j] else v)
            c[self.pos[j]] += vv
            if self.neg[j] is not None:
                c[self.neg[j]] -= vv
        self.c = c
        self.min_sign = sgn  # user objective = min_sign * standard objective
        self.const = model.obj_const

    def recover(self, xs: np.ndarray) -> np.ndarray:
        x = xs.take(self._gather)
        if self._split.size or self._negated.size:
            x[self._split] -= xs[self._split_neg]
            x[self._negated] = -x[self._negated]
        return x

    def solve(self, b, lb, ub, warm: _Simplex | None = None):
        """The LP of this standard form with right-hand side `b` and column
        bounds `lb`, `ub`: re-optimized from `warm` when given and when that
        ends optimal or proves the LP infeasible, else solved cold.  Returns
        the `Solution` and the simplex that holds its final basis."""
        t0, sx = time.perf_counter(), warm
        status = None if warm is None else warm.reoptimize(b, lb, ub)
        if status is None:
            sx = _Simplex(self.A, b, self.c, lb, ub)
            status = sx.solve()
        return self.solution(sx, status, t0), sx

    def solution(self, sx: _Simplex, status: str, t0: float) -> Solution:
        stats = SolveStats(simplex_iterations=sx.iterations)
        if status == "optimal":
            xs = sx._assemble()[: sx.n]
            sol = Solution("optimal", self.min_sign * float(self.c @ xs) + self.const,
                           self.recover(xs), stats)
        else:
            sol = Solution(status, float("nan"), None, stats)
        stats.wall_time = time.perf_counter() - t0
        return sol


# ---------------------------------------------------------------------------
# bounded-variable two-phase simplex
# ---------------------------------------------------------------------------

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2

_BLAND_TRIGGER = 60  # consecutive degenerate pivots before switching rules


class _Simplex:
    def __init__(self, A, b, c, lb, ub):
        self.m, self.n = A.shape
        self.ntot = self.n + self.m
        self.T = np.zeros((self.m, self.ntot))  # [A | I], built in place
        self.T[:, : self.n] = A
        self.T[np.arange(self.m), np.arange(self.n, self.ntot)] = 1.0
        self.b = b.astype(float)
        self.cost = np.concatenate([c, np.zeros(self.m)])  # phase 2: artificials cost 0
        self.lb = np.concatenate([lb, np.zeros(self.m)])
        self.ub = np.concatenate([ub, np.zeros(self.m)])
        self.status = np.full(self.ntot, _AT_LOWER, dtype=np.int8)
        self.basis = np.arange(self.n, self.ntot)
        self.iterations = 0

    @classmethod
    def from_basis(cls, A, b, c, lb, ub, basis, status, flip):
        """A phase-2 simplex on the basis `basis` of [D A | I], with D the
        phase-1 row flips `flip` and the column statuses `status` of an
        earlier solve, ready for `reoptimize`; None when the basis matrix B
        is singular.  The tableau [B^-1 D A | B^-1] is formed from [D A | I]
        by Gauss-Jordan elimination: a basic column with one nonzero enters
        at its row by a row scaling, every other one by a pivot on its
        largest entry in a row not yet taken."""
        sx = cls(A, b, c, lb, ub)
        m, n, T = sx.m, sx.n, sx.T
        sx.flip = flip
        T[flip, :n] *= -1.0
        taken = np.zeros(m, dtype=bool)
        taken[basis[basis >= n] - n] = True  # artificials that stay basic
        cols = basis[basis < n]
        nonzero = (A != 0)[:, cols]
        single = np.count_nonzero(nonzero, axis=0) == 1
        rows = np.argmax(nonzero[:, single], axis=0)
        # counted, not by np.unique, whose first call imports numpy.ma (1.5 MB)
        before = np.count_nonzero(taken)
        taken[rows] = True
        if np.count_nonzero(taken) < before + rows.size:
            return None  # two basic columns on one unit vector
        T[rows] /= T[rows, cols[single]][:, None]
        sx.basis[rows] = cols[single]
        for col in cols[~single]:
            cand = np.where(taken, 0.0, np.abs(T[:, col]))
            r = int(np.argmax(cand))
            if not cand[r] > _PIVOT_TOL:
                return None
            sx._pivot(r, col, _AT_LOWER)
            taken[r] = True
        sx.status[:] = status
        return sx

    def grown(self, rows, b, c, lb, ub, at: int, width: int) -> _Simplex:
        """This optimal simplex carried over to the grown LP min c'x, A x = b,
        lb <= x <= ub: its first rows are this LP's rows with `width` new
        columns at `at`, ahead of the slacks, and the rest are `rows`.  The
        old rows keep their tableau, its columns shifted.  A new row of
        [A | I] enters less its entries in the old basic columns times their
        tableau rows, not flipped, with its artificial basic and pinned at
        [0, 0].  Ready for `reoptimize`."""
        m0, n0 = self.m, self.n
        m, n = m0 + rows.shape[0], rows.shape[1]
        cols = np.arange(n0 + m0)  # where each old column sits now
        cols[at:n0] += width
        cols[n0:] += n - n0
        sx = _Simplex.__new__(_Simplex)
        sx.m, sx.n, sx.ntot = m, n, n + m
        sx.T = T = np.zeros((m, n + m))
        T[:m0, cols] = self.T
        T[m0:, :n] = rows
        T[np.arange(m0, m), np.arange(n + m0, n + m)] = 1.0
        basis = cols[self.basis]
        T[m0:] -= T[m0:, basis] @ T[:m0]
        sx.basis = np.concatenate([basis, np.arange(n + m0, n + m)])
        sx.status = np.full(n + m, _AT_LOWER, dtype=np.int8)
        sx.status[cols] = self.status
        sx.status[n + m0:] = _BASIC
        sx.flip = np.concatenate([self.flip, np.zeros(m - m0, dtype=bool)])
        sx.b, sx.cost = b.astype(float), np.concatenate([c, np.zeros(m)])
        sx.lb, sx.ub = np.concatenate([lb, np.zeros(m)]), np.concatenate([ub, np.zeros(m)])
        sx.iterations = 0
        return sx

    def copy(self) -> _Simplex:
        """An independent copy; b, flip and cost are never written in place.
        A simplex from `from_basis` or `grown` has no basic values yet."""
        sx = copy.copy(self)
        for name in ("T", "lb", "ub", "status", "basis", "bhat"):
            if hasattr(self, name):
                setattr(sx, name, getattr(self, name).copy())
        return sx

    def _nonbasic_values(self) -> np.ndarray:
        v = np.where(self.status == _AT_UPPER, self.ub, self.lb)
        v[self.basis] = 0.0
        return v

    def _setup_phase1(self):
        xN = self._nonbasic_values()[: self.n]
        resid = self.b - self.T[:, : self.n] @ xN
        # rows flipped here stay flipped in the tableau, B^-1 of [D A | I]
        self.flip = flip = resid < 0
        self.T[flip, : self.n] *= -1.0
        resid[flip] *= -1.0
        self.bhat = resid.copy()  # values of the basic (artificial) variables
        self.ub[self.n:] = INF

    def _pivot(self, row: int, col: int, leave_at: int):
        """Column `col` enters the basis at `row`; the column basic there
        leaves at bound `leave_at` (_AT_LOWER or _AT_UPPER)."""
        T = self.T
        self.status[self.basis[row]] = leave_at
        prow = T[row]
        prow /= prow[col]
        colvals = T[:, col].copy()
        colvals[row] = 0.0
        nz = colvals.nonzero()[0]  # rows with a zero in the pivot column are unchanged
        rows = T.take(nz, 0)
        rows -= colvals.take(nz)[:, None] * prow
        T[nz] = rows
        T[:, col] = 0.0  # also turns the column's signed zeros positive
        prow[col] = 1.0
        self.basis[row] = col
        self.status[col] = _BASIC

    def _run(self, cost: np.ndarray, allow: np.ndarray) -> str:
        degenerate = 0
        max_iter = 50000 + 200 * (self.m + self.n)
        T, lb, ub, status, basis = self.T, self.lb, self.ub, self.status, self.basis
        # the bounds hold still within a run; the movable nonbasic columns, the
        # signs (-1 at the lower bound, +1 at the upper) and bl, bu follow the basis
        span = ub - lb
        movable = allow & (span > 0)
        movable[basis] = False
        sign = np.where(status == _AT_LOWER, -1.0, 1.0)
        bl, bu = lb[basis], ub[basis]
        bl_fin, bu_fin = np.isfinite(bl), np.isfinite(bu)
        no_ratio = np.full(self.m, INF)
        while True:
            self.iterations += 1
            if self.iterations > max_iter:
                raise SolverError("simplex iteration safety cap reached")
            z = cost - cost[basis] @ T
            # improving: up from a lower bound or down from an upper one
            idx = (movable & (sign * z > REDUCED_COST_TOL)).nonzero()[0]
            if idx.size == 0:
                return "optimal"
            if degenerate >= _BLAND_TRIGGER:
                enter = int(idx[0])
            else:
                enter = int(idx[np.abs(z[idx]).argmax()])
            increasing = sign[enter] < 0
            # movement of basics: x_B = bhat - theta * d
            d = T[:, enter].copy() if increasing else -T[:, enter]
            drop = np.divide(self.bhat - bl, d, out=no_ratio.copy(),
                             where=(d > _PIVOT_TOL) & bl_fin)
            rise = np.divide(bu - self.bhat, -d, out=no_ratio.copy(),
                             where=(d < -_PIVOT_TOL) & bu_fin)
            row_ratio = np.minimum(drop, rise)
            np.maximum(row_ratio, 0.0, out=row_ratio)  # degenerate guard
            if self.m:
                r = int(row_ratio.argmin())
                theta_rows = float(row_ratio[r])
                if degenerate >= _BLAND_TRIGGER and theta_rows < INF:
                    # Bland's leaving rule: smallest basic variable index
                    # among the rows tied at the minimum ratio
                    ties = np.nonzero(row_ratio <= theta_rows + 1e-12)[0]
                    r = int(ties[int(np.argmin(basis[ties]))])
                    theta_rows = float(row_ratio[r])
            else:
                r, theta_rows = -1, INF
            theta_enter = span[enter]  # may be INF
            theta = min(theta_rows, theta_enter)
            if theta == INF:
                return "unbounded"
            degenerate = degenerate + 1 if theta <= 1e-11 else 0
            if theta_enter <= theta_rows:
                # bound flip, no basis change
                self.bhat -= d * theta_enter
                status[enter] = _AT_UPPER if increasing else _AT_LOWER
                sign[enter] = -sign[enter]
                continue
            self.bhat -= d * theta
            self.bhat[r] = (lb[enter] + theta) if increasing else (ub[enter] - theta)
            leave, at_upper = basis[r], not drop[r] <= rise[r]
            self._pivot(r, enter, _AT_UPPER if at_upper else _AT_LOWER)
            movable[enter], movable[leave] = False, allow[leave] and span[leave] > 0
            sign[leave] = 1.0 if at_upper else -1.0
            bl[r], bu[r] = lb[enter], ub[enter]
            bl_fin[r], bu_fin[r] = math.isfinite(bl[r]), math.isfinite(bu[r])

    def _assemble(self) -> np.ndarray:
        xs = np.where(self.status == _AT_UPPER, self.ub, self.lb)
        xs[self.basis] = self.bhat
        return xs

    def solve(self) -> str:
        """Cold two-phase solve; returns optimal, infeasible or unbounded."""
        return self.phase1() or self.phase2()

    def phase1(self) -> str | None:
        """Phase 1, which never reads the cost: "infeasible", or None with
        the artificials pinned at zero, ready for `phase2`."""
        self._setup_phase1()
        phase1 = np.zeros(self.ntot)
        phase1[self.n:] = 1.0
        if self._run(phase1, np.ones(self.ntot, dtype=bool)) != "optimal":
            raise SolverError("phase-1 simplex did not terminate optimally")
        if float(np.sum(self._assemble()[self.n:])) > 1e-6:
            return "infeasible"
        # artificials pinned at zero; they may linger in the basis at value 0
        self.ub[self.n:] = 0.0

    def phase2(self) -> str:
        return self._run(self.cost, np.arange(self.ntot) < self.n)

    def reoptimize(self, b, lb, ub) -> str | None:
        """Bounded dual simplex from the optimal basis of the last solve
        after the right-hand side and the column bounds changed to `b`,
        `lb`, `ub`.  Such a change keeps the basis dual feasible, so a few
        pivots restore primal feasibility.  Returns "optimal", or
        "infeasible" when a row is infeasible and no column can enter (the
        dual is unbounded), or None when it gives up: a nonbasic column
        needs an infinite bound, the infeasible row is within tolerance of
        what its columns can reach, or the pivot cap is reached.  The
        tableau then still holds a dual feasible basis.  The reduced costs
        and the basic values are recomputed from the whole tableau at each
        pivot; the masks, the nonbasic values, the bound signs and the basic
        bounds are set once and follow the entering and leaving columns."""
        n, m, T, basis, cost = self.n, self.m, self.T, self.basis, self.cost
        self.lb[:n], self.ub[:n] = lb, ub
        lb, ub, st = self.lb, self.ub, self.status[:n]
        lbn, ubn = lb[:n], ub[:n]
        db = np.where(self.flip, -b, b)
        self.iterations = 0
        zn = (cost - cost[basis] @ T)[:n]
        nonbasic = st != _BASIC  # a structural column's status says if it is basic
        # pricing skips columns with ub == lb, so such a column can sit at the
        # bound its reduced cost does not favour, but never at an infinite one
        to_upper = nonbasic & (zn < -REDUCED_COST_TOL)
        if np.count_nonzero(to_upper & (ubn == INF)):
            return None
        upper = to_upper | ((st == _AT_UPPER) & ~(zn > REDUCED_COST_TOL) & (ubn < INF))
        np.copyto(st, upper, where=nonbasic)  # _AT_LOWER is 0 and _AT_UPPER is 1
        movable = nonbasic & (ubn > lbn)
        xn = np.where(upper, ubn, lbn)
        xn[~nonbasic] = 0.0
        sign = np.where(upper, 1.0, -1.0)  # -1 at the lower bound, +1 at the upper
        bl, bu = lb[basis], ub[basis]
        TB, TN, no_ratio = T[:, n:], T[:, :n], np.full(n, INF)
        while True:
            self.bhat = bhat = TB @ db - TN @ xn
            below, above = bl - bhat, bhat - bu
            infeas = np.maximum(below, above)
            r = int(infeas.argmax()) if m else -1
            if m == 0 or infeas[r] <= _REOPT_TOL:
                return "optimal"
            if self.iterations >= 50 + 2 * m:
                return None
            # the basic value of row r must rise (below its lower bound) or
            # fall; moving nonbasic j by dx moves it by -T[r, j] * dx, so j
            # can enter when signed[j] exceeds the pivot tolerance
            rise = below[r] > above[r]
            row = TN[r]
            signed = row * sign if rise else -(row * sign)
            elig = movable & (signed > _PIVOT_TOL)
            if not np.count_nonzero(elig):
                # entries below the pivot tolerance move row r by at most
                # `reach`; a row infeasible beyond that proves the LP infeasible
                fav = movable & (signed > 0)
                reach = float(np.sum(np.abs(row[fav]) * (ubn[fav] - lbn[fav])))
                return "infeasible" if infeas[r] > FEAS_TOL + reach else None
            if self.iterations:  # the entry's reduced costs serve the first pivot
                zn = (cost - cost[basis] @ T)[:n]
            ratio = np.divide(np.abs(zn), np.abs(row), out=no_ratio.copy(), where=elig)
            enter, leave = int(ratio.argmin()), int(basis[r])
            self._pivot(r, enter, _AT_LOWER if rise else _AT_UPPER)
            self.iterations += 1
            movable[enter], xn[enter] = False, 0.0
            bl[r], bu[r] = lb[enter], ub[enter]
            if leave < n:
                movable[leave] = ubn[leave] > lbn[leave]
                xn[leave], sign[leave] = (lbn[leave], -1.0) if rise else (ubn[leave], 1.0)


class _Kept(NamedTuple):
    """What `solve` keeps on a model between solves, for the model its `key`
    was taken of."""
    key: tuple
    std: _StandardLP      # with the model's cost; an LP's has no dense A
    phase1: _Simplex | None  # after phase 1; dropped when the model grows
    status: str | None    # of phase 1: "infeasible" or None
    optimal: _Simplex | None  # an LP's, when its last solve ended optimal


def _key(model: LinearModel) -> tuple:
    """All that phase 1 reads: the column bounds, then each row's right-hand
    side and coefficients, then each row's sense and columns.  The key of a
    model grown by `add_var` and `add_constr` extends its old key."""
    cons = model.constraints
    return (np.column_stack((model.lb, model.ub)).tobytes(),
            np.array([v for c in cons for v in (c.rhs, *c.vals)]).tobytes(),
            tuple((c.sense, tuple(c.cols)) for c in cons))


def _extends(key: tuple, old: tuple) -> bool:
    return (key[0].startswith(old[0]) and key[1].startswith(old[1])
            and key[2][: len(old[2])] == old[2])


def _solve_from_phase1(model: LinearModel, key: tuple, t0: float):
    """The model's LP by phase 2 on a copy of its kept simplex after phase 1,
    which is never run; returns its standard form, the `Solution` and the
    simplex that holds its final basis.  The standard form (with the model's
    cost) and the post-phase-1 simplex are kept on the model and reused while
    all that phase 1 reads, the column bounds and the constraint rows, is
    unchanged; they are built, and phase 1 is run, when it changed."""
    state = model._phase1
    if state is not None and state.phase1 is not None and state.key == key:
        std, kept, status = state.std, state.phase1, state.status
        std.set_cost(model)
    else:
        std = _StandardLP(model)
        kept = _Simplex(std.A, std.b, std.c, std.lb, std.ub)
        if BINARY not in model.kind:
            del std.A
        status = kept.phase1()
        model._phase1 = _Kept(key, std, kept, status, None)
    if status:  # infeasible for every cost
        return std, std.solution(kept, status, t0), kept
    sx = kept.copy()
    sx.cost = np.concatenate([std.c, np.zeros(sx.m)])
    return std, std.solution(sx, sx.phase2(), t0), sx


def _solve_lp(model: LinearModel, t0: float) -> Solution:
    """The LP `model`, re-optimized by dual simplex from its last optimal
    simplex when it has only grown since, else by `_solve_from_phase1`.
    When that re-optimization ends other than optimal or misses a row, the
    tableau is refactorized once, rebuilt from the basis the dual simplex
    reached, and re-optimized again; only when that fails too is the LP
    solved cold.  The simplex of an optimal solve is kept on the model,
    unless the solve reused the kept phase 1: such a model is re-solved
    under a new objective, not grown."""
    key, kept = _key(model), model._phase1
    grown = kept is not None and kept.optimal is not None and kept.phase1 is None \
        and _extends(key, kept.key)
    reused = kept is not None and kept.phase1 is not None and kept.key == key
    if grown:
        model._phase1 = None  # the old tableau is freed once the new one is built
        std = _StandardLP(model, first=kept.optimal.m)  # A: the new rows only
        sx = kept.optimal.grown(std.A, std.b, std.c, std.lb, std.ub,
                                kept.std.ncols, std.ncols - kept.std.ncols)
        del std.A, kept
        pivots = 0
        for refactorized in (False, True):
            status = sx.reoptimize(std.b, std.lb, std.ub)
            pivots += sx.iterations
            if status == "optimal":
                sol = std.solution(sx, status, t0)
                if _rows_met(model, sol.x):
                    sol.stats.simplex_iterations = pivots  # of both runs
                    model._phase1 = _Kept(key, std, None, None, sx)
                    return sol
            why = {"optimal": "row missed", "infeasible": "ended infeasible",
                   None: "gave up"}[status]
            if refactorized:
                break
            _log.debug("grown LP %s refactorized after %d dual pivots: %s",
                       model.name, pivots, why)
            state = (sx.basis, sx.status, sx.flip)
            del sx  # freed before the matrix is built; the matrix goes with the rebuild
            sx = _Simplex.from_basis(_StandardLP(model).A, std.b, std.c, std.lb, std.ub, *state)
            if sx is None:
                why = "singular basis"
                break
        _log.debug("grown LP %s solved cold after %d dual pivots: %s", model.name, pivots, why)
        del sx  # freed before the cold solve
    _, sol, sx = _solve_from_phase1(model, key, t0)
    if sol.status != "optimal" or reused:
        model._phase1 = model._phase1._replace(optimal=None)
    elif grown:  # a growing model re-solves from its optimum, not its phase 1
        model._phase1 = model._phase1._replace(phase1=None, optimal=sx)
    else:
        model._phase1 = model._phase1._replace(optimal=sx)
    return sol


def _rows_met(model: LinearModel, x: np.ndarray) -> bool:
    """Whether `x` meets every row of `model` to `_ROW_TOL`."""
    cons = model.constraints
    cols = np.fromiter(itertools.chain.from_iterable(c.cols for c in cons), np.intp)
    vals = np.fromiter(itertools.chain.from_iterable(c.vals for c in cons), float)
    rows = np.repeat(np.arange(len(cons)), [len(c.cols) for c in cons])
    over = np.bincount(rows, vals * x[cols], len(cons)) - [c.rhs for c in cons]
    senses = np.array([c.sense for c in cons])
    return not (np.any(over[senses != GREATER_EQUAL] > _ROW_TOL)
                or np.any(over[senses != LESS_EQUAL] < -_ROW_TOL))


def _branch(sos1, binaries, x, fixings):
    """The two children of a node with LP solution `x` and bound overrides
    `fixings` (col -> (lb, ub)), each the parent's fixings with more binaries
    fixed, or None when every binary is integral.  The rule: a dichotomy on the SOS1
    group whose members left free and above `INT_TOL` spread the widest
    range of weights, the first child keeping the heavier half by weight
    order and fixing the lighter to 0; else a 0/1 split on the most
    fractional binary, its nearer bound first."""
    group, widest = None, 0.0
    for cols, weights in sos1:
        free = [(c, w) for c, w in zip(cols, weights) if fixings.get(c, (0.0, 1.0))[1] > 0.5]
        support = [w for c, w in free if x[c] > INT_TOL]
        if len(support) > 1 and max(support) - min(support) > widest + 1e-12:
            group, widest = free, max(support) - min(support)
    if group is not None:
        support = [c for c, _ in sorted(group, key=lambda cw: cw[1])]
        mass, cut = 0.0, len(support) // 2
        for i, c in enumerate(support):
            mass += x[c]
            if mass >= 0.5 - 1e-12:
                cut = min(i + 1, len(support) - 1)
                break
        low, high = support[:cut], support[cut:]
        light, heavy = (high, low) if sum(x[c] for c in low) >= 0.5 else (low, high)
        return [{**fixings, **dict.fromkeys(drop, (0.0, 0.0))} for drop in (light, heavy)]
    j, worst = -1, INT_TOL
    for k in binaries:
        f = abs(x[k] - round(x[k]))
        if f > worst:
            j, worst = k, f
    if j < 0:
        return None
    return [{**fixings, j: (v, v)} for v in ((1.0, 0.0) if x[j] >= 0.5 else (0.0, 1.0))]


def solve(model: LinearModel, limits: dict | None = None,
          incumbent: tuple[float, np.ndarray] | None = None) -> Solution:
    """Solve an LP or mixed-binary model.

    `limits` may carry `time` (seconds) and `nodes`; exceeding either returns
    status "limit" with the incumbent if one exists.  `incumbent` optionally
    warm-starts branch-and-bound with a known feasible (objective, x) pair.
    """
    problems = model.validate()
    if problems:
        raise SolverError("invalid model: " + "; ".join(problems))
    t0 = time.perf_counter()
    binaries = [j for j in range(model.num_vars) if model.kind[j] == BINARY]
    if binaries:
        sol = _branch_and_bound(model, binaries, limits or {}, incumbent, t0)
    else:
        sol = _solve_lp(model, t0)
    sol.stats.wall_time = time.perf_counter() - t0
    _log.debug("solve %s: %s, %d nodes, %d simplex iterations, %.4f s", model.name,
               sol.status, sol.stats.nodes, sol.stats.simplex_iterations, sol.stats.wall_time)
    return sol


def _branch_and_bound(model: LinearModel, binaries: list[int], limits: dict,
                      incumbent: tuple[float, np.ndarray] | None, t0: float) -> Solution:
    """The mixed-binary model by best-bound branch-and-bound on `binaries`;
    the caller sets the wall time."""
    time_limit = limits.get("time")
    node_limit = limits.get("nodes")
    std, sol, root = _solve_from_phase1(model, _key(model), t0)
    stats = SolveStats(simplex_iterations=sol.stats.simplex_iterations, nodes=1)  # the root
    if sol.status == "unbounded":
        return Solution("unbounded", float("nan"), None, stats)

    # The tree minimizes sgn * objective.  Negation is exact, and so is the
    # rounding of the cutoff under it: a node is pruned unless its bound
    # beats the incumbent by more than a relative OPT_TOL.
    sgn = -1.0 if model.obj_sense == "max" else 1.0
    best, best_x, cutoff = INF, None, INF
    if incumbent is not None:
        best, best_x = sgn * float(incumbent[0]), np.asarray(incumbent[1], dtype=float).copy()
        cutoff = best - (abs(best) * OPT_TOL + 1e-9)
    heap = []  # (bound, tick, fixings, parent state); ticks pop equal bounds first in, first out
    tick = itertools.count()
    obj = sgn * sol.objective
    if sol.status == "optimal":  # else the incumbent, if any, is optimal
        # the root is accepted, with no tolerance, when no binary is
        # fractional (its SOS1 groups are not read), else re-solved from its
        # own basis as the first node
        if _branch((), binaries, sol.x, {}) is not None:
            heapq.heappush(heap, (obj, next(tick), {}, (root.basis, root.status, root.flip)))
        elif obj < best:  # the heap stays empty
            best, best_x = obj, sol.x
            best_x[binaries] = [round(v) for v in best_x[binaries]]  # np.round keeps -0.0
    del root  # the state holds no tableau, so the root's simplex is freed here

    # (parent state, its rebuilt simplex before any re-optimization) of the
    # last rebuild, for the sibling of the node that made it
    spare = None
    while heap:  # left non-empty only by a limit
        if (time_limit is not None and time.perf_counter() - t0 > time_limit
                or node_limit is not None and stats.nodes >= node_limit):
            break
        bound, _, fixings, parent = heapq.heappop(heap)
        if not bound < cutoff:
            continue
        # the node LP: binaries sit unsplit and unnegated at std.pos, so a
        # fixing is a change of column bounds only; re-optimized from the
        # parent's basis, column statuses and row flips, rebuilt once for
        # both siblings (a singular basis, None, sends both cold)
        lb, ub = std.lb.copy(), std.ub.copy()
        for j, (lo, hi) in fixings.items():
            lb[std.pos[j]], ub[std.pos[j]] = lo, hi
        if spare is not None and spare[0] is parent:
            warm, spare = spare[1], None
        else:
            warm = _Simplex.from_basis(std.A, std.b, std.c, lb, ub, *parent)
            # the root, the one node with no fixings, has no sibling to read a copy
            spare = (parent, None if warm is None or not fixings else warm.copy())
        sol, sx = std.solve(std.b, lb, ub, warm)
        del warm
        state = (sx.basis, sx.status, sx.flip)
        del sx  # the state holds no tableau, so the node's simplex is freed here
        stats.simplex_iterations += sol.stats.simplex_iterations
        stats.nodes += 1
        obj = sgn * sol.objective
        if sol.status != "optimal" or not obj < cutoff:
            continue
        children = _branch(model.sos1, binaries, sol.x, fixings)
        if children is None:  # below the cutoff, so better than the incumbent
            best, best_x = obj, sol.x
            best_x[binaries] = [round(v) for v in best_x[binaries]]
            cutoff = best - (abs(best) * OPT_TOL + 1e-9)
            continue
        for child in children:  # both re-optimize from this node's basis
            heapq.heappush(heap, (obj, next(tick), child, state))

    if best_x is None:
        return Solution("limit" if heap else "infeasible", float("nan"), None, stats)
    return Solution("limit" if heap else "optimal", sgn * best, best_x, stats)


class LPFamily:
    """The LPs that differ from `model` only in some right-hand sides and
    upper bounds: member k has right-hand side `rhs[:, k]` on constraints
    `rows` and upper bounds `ub[:, k]` on variables `cols`.  The standard
    form and the members' keys are built once, for every `solve`."""

    def __init__(self, model: LinearModel, rows, rhs, cols, ub):
        if BINARY in model.kind:
            raise SolverError("LPFamily takes linear programs only")
        problems = model.validate()
        if problems:
            raise SolverError("invalid model: " + "; ".join(problems))
        rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
        rhs, ub = np.asarray(rhs, dtype=float), np.asarray(ub, dtype=float)
        if rhs.shape[:1] != rows.shape or ub.shape[:1] != cols.shape \
                or rhs.ndim != 2 or ub.ndim != 2 or rhs.shape[1] != ub.shape[1]:
            raise SolverError(f"family data shaped {rhs.shape}/{ub.shape} for "
                              f"{rows.size} rows and {cols.size} columns")
        for what, idx, size in (("rows", rows, model.num_constraints),
                                ("columns", cols, model.num_vars)):
            if np.any((idx < 0) | (idx >= size)) or len(set(idx.tolist())) < idx.size:
                raise SolverError(f"family {what} {idx.tolist()} are not distinct below {size}")
        if np.any(ub < np.asarray(model.lb)[cols][:, None]):
            raise SolverError("a family member has an upper bound below its lower bound")
        self.std = std = _StandardLP(model)
        if any(std.negated[j] or std.neg[j] is not None for j in cols):
            raise SolverError("family bounds must sit on variables with a finite lower bound")
        self.rows, self.rhs, self.ub = rows, rhs, ub
        self.scols = np.array([std.pos[j] for j in cols], dtype=int)
        self.keys = [rhs[:, k].tobytes() + ub[:, k].tobytes() for k in range(rhs.shape[1])]

    def solve(self, rows=(), rhs=()) -> list[Solution]:
        """Every member, with right-hand side `rhs` on further rows `rows`.
        Identical members are solved once; the others are re-optimized by
        dual simplex from this call's last optimal basis, and solved cold
        when that gives up or there is none, as `solve` would solve them."""
        std, frows, frhs, scols, fub = self.std, self.rows, self.rhs, self.scols, self.ub
        b, u = std.b.copy(), std.ub.copy()
        b[np.asarray(rows, dtype=int)] = rhs
        seen: dict[bytes, Solution] = {}
        last = None
        for k, key in enumerate(self.keys):
            if key not in seen:
                b[frows], u[scols] = frhs[:, k], fub[:, k]
                seen[key], sx = std.solve(b, std.lb, u, last)
                if seen[key].status == "optimal":
                    last = sx
        return [seen[key] for key in self.keys]
