"""Box-plus-budget demand uncertainty sets and Monte-Carlo scenario sampling.

The set decomposes by channel (walk-in "b" over nodes, online "o" over
zones) and by period: per cell an integral interval, plus per channel-period
lower/upper bounds on the total across locations.  Membership, discrete-point
enumeration (for oracles and the exact subproblem), exact rational vertex
enumeration (test oracle), Poisson quantile bound construction, and seeded
Poisson / uniform scenario sampling all live here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .records import check_keys, numbers, read_json, record_from_dict, record_to_dict

CHANNELS = ("b", "o")

DISCRETE_POINT_CAP = 10_000_000
VERTEX_DIM_LIMIT = 6
UNIFORM_REJECTION_CAP = 10_000
DEFAULT_LOWER_Q, DEFAULT_UPPER_Q = 0.05, 0.95


class UncertaintyError(Exception):
    pass


def poisson_quantile(q: float, mean: float) -> int:
    """Smallest integer k with CDF(k) >= q (left-continuous inverse)."""
    if not 0.0 < q < 1.0:
        raise UncertaintyError(f"quantile level must be in (0,1), got {q}")
    if mean < 0:
        raise UncertaintyError(f"Poisson mean must be nonnegative, got {mean}")
    if mean == 0.0:
        return 0
    k = 0
    term = math.exp(-mean)
    total = term
    # cumulative sum is monotone; cap well beyond any mass
    cap = int(mean + 20 * math.sqrt(mean) + 50)
    while total < q and k < cap:
        k += 1
        term *= mean / k
        total += term
    return k


@dataclass
class DemandScenario:
    """One realized demand path: walk-in per (period, node), online per
    (period, zone)."""

    walkin: np.ndarray  # shape (T, n_nodes)
    online: np.ndarray  # shape (T, n_zones)

    def __post_init__(self):
        self.walkin = numbers("walkin", self.walkin, UncertaintyError)
        self.online = numbers("online", self.online, UncertaintyError)
        if self.walkin.ndim != 2 or self.online.ndim != 2:
            raise UncertaintyError("scenario arrays must be 2-d (period x location)")
        if self.walkin.shape[0] != self.online.shape[0]:
            raise UncertaintyError("walk-in and online horizons differ")
        if not ((self.walkin >= 0).all() and (self.online >= 0).all()):
            raise UncertaintyError("demands must be nonnegative numbers, not NaN")

    def channel(self, ch: str) -> np.ndarray:
        return self.walkin if ch == "b" else self.online

    def key(self) -> tuple:
        return (tuple(map(tuple, self.walkin)), tuple(map(tuple, self.online)))


@dataclass
class DemandMeans:
    """Mean demand per cell, used for Poisson bounds and sampling."""

    walkin: np.ndarray                # (T, n_nodes)
    online: np.ndarray | None = None  # (T, n_zones); None: no zones

    def __post_init__(self):
        self.walkin = np.atleast_2d(numbers("walkin", self.walkin, UncertaintyError))
        if self.online is None:
            self.online = np.zeros((len(self.walkin), 0))
        self.online = np.atleast_2d(numbers("online", self.online, UncertaintyError))
        if not ((self.walkin >= 0).all() and (self.online >= 0).all()):
            raise UncertaintyError("means must be nonnegative numbers, not NaN")

    def channel(self, ch: str) -> np.ndarray:
        return self.walkin if ch == "b" else self.online


@dataclass
class UncertaintySet:
    """Per-channel per-period box bounds plus aggregate budget bounds."""

    local_lower: dict    # ch -> (T, n) array
    local_upper: dict
    budget_lower: dict   # ch -> (T,) array
    budget_upper: dict

    def __post_init__(self):
        for f in fields(self):
            per_channel = getattr(self, f.name)
            if not isinstance(per_channel, dict) or per_channel.keys() != set(CHANNELS):
                raise UncertaintyError(
                    f"{f.name}: expected one entry per channel {list(CHANNELS)}")
            shaped = np.atleast_2d if f.name.startswith("local") else np.atleast_1d
            setattr(self, f.name, {ch: shaped(np.asarray(per_channel[ch], dtype=float))
                                   for ch in CHANNELS})
        problems = self.validate()
        if problems:
            raise UncertaintyError("; ".join(problems))

    @property
    def horizon(self) -> int:
        return self.local_lower["b"].shape[0]

    def size(self, ch: str) -> int:
        return self.local_lower[ch].shape[1]

    def validate(self) -> list[str]:
        out = []
        T = self.horizon
        for ch in CHANNELS:
            lo, hi = self.local_lower[ch], self.local_upper[ch]
            bl, bu = self.budget_lower[ch], self.budget_upper[ch]
            if lo.shape != hi.shape:
                out.append(f"channel {ch}: local bound shapes differ")
                continue
            if lo.shape[0] != T or bl.shape[0] != T or bu.shape[0] != T:
                out.append(f"channel {ch}: horizon mismatch")
                continue
            if (lo < 0).any():
                out.append(f"channel {ch}: negative local lower bound")
            if (lo > hi).any():
                out.append(f"channel {ch}: local lower exceeds upper")
            if (bl > bu).any():
                out.append(f"channel {ch}: budget lower exceeds upper")
            for t in range(T):
                if lo[t].sum() > bu[t] + 1e-9:
                    out.append(f"channel {ch} period {t}: empty (sum of local lower "
                               f"{lo[t].sum()} > budget upper {bu[t]})")
                if hi[t].sum() < bl[t] - 1e-9:
                    out.append(f"channel {ch} period {t}: empty (sum of local upper "
                               f"{hi[t].sum()} < budget lower {bl[t]})")
            for arr, which in ((lo, "local lower"), (hi, "local upper"),
                               (bl, "budget lower"), (bu, "budget upper")):
                if not np.allclose(arr, np.round(arr), atol=1e-9):
                    out.append(f"channel {ch}: non-integral {which} bound")
        return out

    def contains(self, scenario: DemandScenario, tol: float = 1e-9) -> bool:
        for ch in CHANNELS:
            d = scenario.channel(ch)
            lo, hi = self.local_lower[ch], self.local_upper[ch]
            if d.shape != lo.shape:
                raise UncertaintyError(
                    f"channel {ch}: scenario shape {d.shape} does not match set {lo.shape}")
            if (d < lo - tol).any() or (d > hi + tol).any():
                return False
            sums = d.sum(axis=1)
            if (sums < self.budget_lower[ch] - tol).any():
                return False
            if (sums > self.budget_upper[ch] + tol).any():
                return False
        return True

    # -- enumeration ------------------------------------------------------

    def enumerate_discrete_points(self, channel: str, period: int,
                                  cap: int = DISCRETE_POINT_CAP) -> list[tuple]:
        """All integral vectors inside box and budget for one channel-period,
        in lexicographic order."""
        lo = self.local_lower[channel][period].astype(int)
        hi = self.local_upper[channel][period].astype(int)
        bl = float(self.budget_lower[channel][period])
        bu = float(self.budget_upper[channel][period])
        box = np.prod((hi - lo + 1).astype(np.float64))
        if box > cap:
            raise UncertaintyError(
                f"discrete enumeration would generate {box:.3g} box points (cap {cap})")
        if len(lo) == 0:
            return [()] if bl <= 0 <= bu else []
        pts = []
        for d in product(*[range(int(l), int(h) + 1) for l, h in zip(lo, hi)]):
            if bl <= sum(d) <= bu:
                pts.append(d)
        return pts

    def enumerate_vertices(self, channel: str, period: int) -> list[tuple]:
        """Extreme points of {L <= D <= U, BL <= e'D <= BU}, via exact basis
        enumeration over the inequality system (test oracle; small n only)."""
        n = self.size(channel)
        if n > VERTEX_DIM_LIMIT:
            raise UncertaintyError(
                f"vertex enumeration limited to {VERTEX_DIM_LIMIT} locations, got {n}")
        if n == 0:
            return []
        lo = [Fraction(int(v)) for v in self.local_lower[channel][period]]
        hi = [Fraction(int(v)) for v in self.local_upper[channel][period]]
        bl = Fraction(int(self.budget_lower[channel][period]))
        bu = Fraction(int(self.budget_upper[channel][period]))
        # rows as (normal, rhs) meaning normal . x <= rhs
        rows = []
        for i in range(n):
            e = [Fraction(0)] * n
            e[i] = Fraction(1)
            rows.append((tuple(e), hi[i]))
            e2 = [Fraction(0)] * n
            e2[i] = Fraction(-1)
            rows.append((tuple(e2), -lo[i]))
        ones = tuple(Fraction(1) for _ in range(n))
        rows.append((ones, bu))
        rows.append((tuple(-f for f in ones), -bl))

        def feasible(x):
            return all(sum(a * xi for a, xi in zip(normal, x)) <= rhs
                       for normal, rhs in rows)

        seen = set()
        verts = []
        for combo in combinations(range(len(rows)), n):
            M = [list(rows[i][0]) for i in combo]
            rhs = [rows[i][1] for i in combo]
            x = _solve_exact(M, rhs)
            if x is None:
                continue
            if feasible(x):
                key = tuple(x)
                if key not in seen:
                    seen.add(key)
                    verts.append(key)
        verts.sort()
        return verts


def _solve_exact(M, rhs):
    """Solve M x = rhs with Fractions; None when singular."""
    n = len(rhs)
    A = [row[:] + [rhs[i]] for i, row in enumerate(M)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if A[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        inv = Fraction(1, 1) / A[col][col]
        A[col] = [v * inv for v in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return [A[i][n] for i in range(n)]


def quantile_bounds_from_means(means: DemandMeans, lower_q: float = DEFAULT_LOWER_Q,
                               upper_q: float = DEFAULT_UPPER_Q) -> UncertaintySet:
    """Poisson-quantile box and budget bounds; the budget uses the quantiles
    of the summed mean (sums of independent Poissons are Poisson)."""
    local_lower, local_upper, budget_lower, budget_upper = {}, {}, {}, {}
    for ch in CHANNELS:
        mu = means.channel(ch)
        T, n = mu.shape
        lo = np.zeros((T, n))
        hi = np.zeros((T, n))
        bl = np.zeros(T)
        bu = np.zeros(T)
        for t in range(T):
            for i in range(n):
                lo[t, i] = poisson_quantile(lower_q, mu[t, i])
                hi[t, i] = poisson_quantile(upper_q, mu[t, i])
            total = float(mu[t].sum())
            bl[t] = poisson_quantile(lower_q, total)
            bu[t] = poisson_quantile(upper_q, total)
            # keep the per-period slice non-empty under extreme quantiles
            bl[t] = min(bl[t], hi[t].sum())
            bu[t] = max(bu[t], lo[t].sum())
        local_lower[ch], local_upper[ch] = lo, hi
        budget_lower[ch], budget_upper[ch] = bl, bu
    return UncertaintySet(local_lower, local_upper, budget_lower, budget_upper)


def sample_scenarios(means: DemandMeans | None, count: int, seed: int,
                     family: str = "poisson",
                     uset: UncertaintySet | None = None) -> list[DemandScenario]:
    """Draw `count` scenarios.

    poisson: independent Poisson draws per cell from `means`; unbounded, so
    samples may fall outside any uncertainty set.  One draw covers the whole
    batch, scenario by scenario, walk-in cells before online cells: the
    stream of a draw per scenario and channel.
    uniform: independent integer-uniform draws on each local box of `uset`,
    re-drawn per channel-period until the budget holds.
    """
    if count < 1:
        raise UncertaintyError("count must be >= 1")
    rng = np.random.default_rng(seed)
    out = []
    if family == "poisson":
        if means is None:
            raise UncertaintyError("poisson sampling requires means")
        lam = np.concatenate([means.walkin.ravel(), means.online.ravel()])
        draws = rng.poisson(np.tile(lam, count)).astype(float).reshape(count, lam.size)
        nw = means.walkin.size
        return [DemandScenario(d[:nw].reshape(means.walkin.shape),
                               d[nw:].reshape(means.online.shape)) for d in draws]
    if family == "uniform":
        if uset is None:
            raise UncertaintyError("uniform sampling requires an uncertainty set")
        T = uset.horizon
        for _ in range(count):
            arrs = {}
            for ch in CHANNELS:
                lo = uset.local_lower[ch].astype(int)
                hi = uset.local_upper[ch].astype(int)
                arr = np.zeros(lo.shape, dtype=float)
                for t in range(T):
                    bl = uset.budget_lower[ch][t]
                    bu = uset.budget_upper[ch][t]
                    for attempt in range(UNIFORM_REJECTION_CAP + 1):
                        if attempt == UNIFORM_REJECTION_CAP:
                            raise UncertaintyError(
                                f"uniform rejection cap {UNIFORM_REJECTION_CAP} exceeded "
                                f"for channel {ch} period {t} (degenerate budget)")
                        draw = rng.integers(lo[t], hi[t] + 1) if lo.shape[1] else np.zeros(0, dtype=int)
                        if bl - 1e-9 <= draw.sum() <= bu + 1e-9:
                            arr[t] = draw
                            break
                arrs[ch] = arr
            out.append(DemandScenario(arrs["b"], arrs["o"]))
        return out
    raise UncertaintyError(f"unknown sampling family {family!r}")


def save_scenarios(path: str, scenarios: list[DemandScenario], seed: int | None = None,
                   family: str | None = None):
    doc = {"seed": seed, "family": family, "scenarios": [record_to_dict(s) for s in scenarios]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_scenarios(path: str) -> tuple[list[DemandScenario], dict]:
    doc = check_keys(read_json(path, UncertaintyError), ("seed", "family", "scenarios"),
                     ("scenarios",), UncertaintyError, path)
    scen = [record_from_dict(DemandScenario, s, UncertaintyError, f"{path}: scenarios[{i}]")
            for i, s in enumerate(doc["scenarios"])]
    return scen, {"seed": doc.get("seed"), "family": doc.get("family")}
