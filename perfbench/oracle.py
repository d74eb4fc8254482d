"""Reference answers computed apart from bioinv's own solver and model
builders: a fulfillment LP built straight from the instance JSON and solved
with scipy's HiGHS, the closed-form walk-in profit, Poisson-quantile
uncertainty bounds, and HiGHS `milp` on the data of a bioinv model.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.stats import poisson


class OracleError(Exception):
    pass


class FulfillmentLP:
    """max revenue - shipping - holding - lost-sales penalty - purchase cost
    over walk-in sales s[t,l], carried stock I[t,l] and shipments y[t,l,z]
    on allowed edges, with the allocation and the demand fixed."""

    def __init__(self, path: str):
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("business_rules") or doc["inventory"].get("reposition_lead"):
            raise OracleError(f"{path}: business rules and repositioning are not modelled")
        net, econ, inv = doc["network"], doc["econ"], doc["inventory"]
        nodes, zones = net["nodes"], net["zones"]
        self.T, self.L, self.Z = int(doc["horizon"]), len(nodes), len(zones)
        T, L = self.T, self.L
        self.pw = np.array(econ["walkin_price"], dtype=float).reshape(T, L)
        self.bw = np.array(econ["walkin_penalty"], dtype=float).reshape(T, L)
        self.po = np.array(econ["online_price"], dtype=float)
        self.bo = np.array(econ["online_penalty"], dtype=float)
        self.hold = np.array(econ["holding"], dtype=float)
        self.cost = np.array(econ["purchase_cost"], dtype=float)
        fcost = econ["fulfill_cost"]
        eligible = set(net.get("sfs_eligible", nodes))
        self.edges = [(nodes.index(e["node"]), zones.index(e["zone"]))
                      for e in net.get("ship_edges", []) if e["node"] in eligible]
        self.lead = [int(v) for v in inv["lead_time"]]
        self.pipeline = [[float(v) for v in row] for row in inv["pipeline"]]

        E = len(self.edges)
        nv = 2 * T * L + T * E
        self.s = lambda t, l: t * L + l
        self.I = lambda t, l: T * L + t * L + l
        self.y = lambda t, e: 2 * T * L + t * E + e
        c = np.zeros(nv)                      # linprog minimizes: -profit
        for t in range(T):
            for l in range(L):
                c[self.s(t, l)] = -(self.pw[t, l] + self.bw[t, l])
                c[self.I(t, l)] = self.hold[l]
            for e, (l, z) in enumerate(self.edges):
                c[self.y(t, e)] = -(self.po[t] + self.bo[t] - float(fcost[l][z]))
        A_eq = np.zeros((T * L, nv))
        for t in range(T):
            for l in range(L):
                r = t * L + l
                A_eq[r, self.s(t, l)] = 1.0
                A_eq[r, self.I(t, l)] = 1.0
                if t > 0:
                    A_eq[r, self.I(t - 1, l)] = -1.0
                for e, (le, _z) in enumerate(self.edges):
                    if le == l:
                        A_eq[r, self.y(t, e)] = 1.0
        A_ub = np.zeros((T * self.Z, nv))
        for t in range(T):
            for e, (_l, z) in enumerate(self.edges):
                A_ub[t * self.Z + z, self.y(t, e)] = 1.0
        self.c, self.A_eq, self.A_ub, self.nv = c, A_eq, A_ub, nv

    def profit(self, x, walkin, online) -> float:
        T, L = self.T, self.L
        x = np.asarray(x, dtype=float).reshape(T, L)
        walkin = np.asarray(walkin, dtype=float).reshape(T, L)
        online = np.asarray(online, dtype=float).reshape(T, self.Z)
        b_eq = np.zeros(T * L)
        for t in range(T):
            for l in range(L):
                arrive = 0.0
                if t == 0:
                    arrive += self.pipeline[l][0]
                if t < self.lead[l] and t + 1 < len(self.pipeline[l]):
                    arrive += self.pipeline[l][t + 1]
                if t >= self.lead[l]:
                    arrive += x[t - self.lead[l], l]
                b_eq[t * L + l] = arrive
        bounds = [(0.0, None)] * self.nv
        for t in range(T):
            for l in range(L):
                bounds[self.s(t, l)] = (0.0, walkin[t, l])
        res = linprog(self.c, A_ub=self.A_ub if self.Z else None,
                      b_ub=online.reshape(-1) if self.Z else None,
                      A_eq=self.A_eq, b_eq=b_eq, bounds=bounds, method="highs")
        if res.status != 0:
            raise OracleError(f"fulfillment LP: {res.message}")
        const = -(self.bw * walkin).sum() - (self.bo[:, None] * online).sum() \
            - (self.cost[None, :] * x).sum()
        return float(-res.fun + const)


def walkin_profits(x, demand, price, penalty, cost) -> np.ndarray:
    """Closed form per scenario of the one-period walk-in model:
    sum_l [p min(x, d) - b (d - x)^+ - c x]; `demand` is (scenarios, nodes)."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(demand, dtype=float)
    return (price * np.minimum(x, d) - penalty * np.maximum(d - x, 0.0)
            - cost * x).sum(axis=1)


def lower_quantile(sorted_values, q: float) -> float:
    n = len(sorted_values)
    return float(sorted_values[max(0, min(n - 1, int(np.ceil(q * n)) - 1))])


def quantile_box(means, lower_q=0.05, upper_q=0.95):
    """Per-period (lo, hi, budget_lo, budget_hi) Poisson-quantile bounds of
    one channel's (T, n) means."""
    mu = np.asarray(means, dtype=float)
    out = []
    for row in mu:
        lo = np.array([0.0 if m == 0 else poisson.ppf(lower_q, m) for m in row])
        hi = np.array([0.0 if m == 0 else poisson.ppf(upper_q, m) for m in row])
        total = row.sum()
        bl = 0.0 if total == 0 else poisson.ppf(lower_q, total)
        bu = 0.0 if total == 0 else poisson.ppf(upper_q, total)
        out.append((lo, hi, min(bl, hi.sum()), max(bu, lo.sum())))
    return out


def integer_points(means_doc: dict, cap: int, lower_q=0.05, upper_q=0.95):
    """Every integer demand path in the quantile uncertainty set, or None
    when there are more than `cap`."""
    per_period = []
    count = 1
    for ch in ("walkin", "online"):
        rows = means_doc.get(ch) or []
        boxes = quantile_box(rows, lower_q, upper_q) if rows and len(rows[0]) else None
        per_period.append(boxes)
    T = len(means_doc["walkin"])
    n_online = len((means_doc.get("online") or [[]])[0])
    choices = []
    for t in range(T):
        chans = []
        for boxes in per_period:
            if boxes is None:
                chans.append([()])
                continue
            lo, hi, bl, bu = boxes[t]
            pts = [p for p in itertools.product(*[range(int(a), int(b) + 1)
                                                  for a, b in zip(lo, hi)])
                   if bl - 1e-9 <= sum(p) <= bu + 1e-9]
            chans.append(pts)
        count *= len(chans[0]) * len(chans[1])
        if count > cap:
            return None
        choices.append(list(itertools.product(*chans)))
    return [(np.array([c[0] for c in path], dtype=float),
             np.array([c[1] for c in path], dtype=float).reshape(T, n_online))
            for path in itertools.product(*choices)]


def highs_problem(model) -> dict:
    """scipy `milp` arguments for a bioinv `LinearModel` (minimization form),
    with the sign and constant that map the optimum back."""
    n = model.num_vars
    c = np.zeros(n)
    for j, v in model.obj.items():
        c[j] = v
    sign = -1.0 if model.obj_sense == "max" else 1.0
    A = np.zeros((len(model.constraints), n))
    lo = np.full(len(model.constraints), -np.inf)
    hi = np.full(len(model.constraints), np.inf)
    for i, con in enumerate(model.constraints):
        A[i, con.cols] = con.vals
        if con.sense in ("<=", "=="):
            hi[i] = con.rhs
        if con.sense in (">=", "=="):
            lo[i] = con.rhs
    return {"c": sign * c, "sign": sign, "const": model.obj_const, "name": model.name,
            "constraints": LinearConstraint(A, lo, hi) if len(A) else None,
            "bounds": Bounds(np.array(model.lb), np.array(model.ub)),
            "integrality": np.array([1 if k == "binary" else 0 for k in model.kind])}


def solve_highs(problem: dict, options: dict | None = None) -> float:
    res = milp(problem["c"], constraints=problem["constraints"], bounds=problem["bounds"],
               integrality=problem["integrality"], options=options)
    if res.status != 0:
        raise OracleError(f"HiGHS milp on {problem['name']!r}: {res.message}")
    return float(problem["sign"] * res.fun + problem["const"])


def highs_milp(model) -> float:
    """Optimal objective of a bioinv `LinearModel`'s data under HiGHS."""
    return solve_highs(highs_problem(model))
