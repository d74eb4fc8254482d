"""Model builders: fulfillment LP, CCG master, exact adversarial subproblem
MIP, SAA model, PWL baseline, and the basestock heuristic.

Sign conventions: all models maximize retailer profit except the subproblem,
which minimizes the adversary's value of the inner max (its optimum equals
the worst-case recourse profit given the first-stage commitments).  Purchase
cost is a first-stage term and never appears in the subproblem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from .instance import Instance
from .solver import BINARY, CONTINUOUS, INF, LinearModel, LPFamily, Solution, solve
from .uncertainty import CHANNELS, DemandScenario, UncertaintySet, poisson_quantile

WALKIN_ONLY = "walkin"
BOTH_CHANNELS = "both"
CRITICAL_RATIO_CAP = 1.0 - 1e-9


class FormulationError(Exception):
    pass


@dataclass
class Allocation:
    """First-stage decision: supplier orders, optional repositioning flows,
    optional committed optimistic walk-in sales (BIO)."""

    x: np.ndarray                      # (T, n_nodes)
    x_repo: np.ndarray | None = None   # (T, from_node, to_node)
    s_plus: np.ndarray | None = None   # (T, n_nodes)
    y_plus: np.ndarray | None = None   # (T, n_nodes, n_zones), allied-both mode

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if self.x_repo is not None:
            self.x_repo = np.asarray(self.x_repo, dtype=float)
        if self.s_plus is not None:
            self.s_plus = np.atleast_2d(np.asarray(self.s_plus, dtype=float))
        if self.y_plus is not None:
            self.y_plus = np.asarray(self.y_plus, dtype=float)


@dataclass
class FulfillmentPlan:
    walkin_sales: np.ndarray     # (T, n_nodes)
    shipments: np.ndarray        # (T, n_nodes, n_zones)
    end_inventory: np.ndarray    # (T, n_nodes), on-hand after period t
    profit: float


@dataclass
class BioConfig:
    lam: float = 0.0
    allied_channels: str = WALKIN_ONLY     # "walkin" | "both"
    integer_allocations: bool = False
    repositioning: bool = False

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise FormulationError(f"lambda must lie in [0,1], got {self.lam}")
        if self.allied_channels not in (WALKIN_ONLY, BOTH_CHANNELS):
            raise FormulationError(f"unknown allied_channels {self.allied_channels!r}")


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def pipeline_arrival(inst: Instance, t: int, l: int) -> float:
    """Initial-pipeline units becoming sellable at node l in period t
    (on-hand I0 is handled separately)."""
    if t < inst.inventory.lead_time[l]:
        return inst.inventory.arriving(l, t + 1)
    return 0.0


def first_stage_cost(inst: Instance, alloc: Allocation) -> float:
    cost = float(np.sum(inst.econ.purchase_cost[None, :] * alloc.x))
    if alloc.x_repo is not None:
        if inst.econ.reposition_cost is None:
            raise FormulationError("repositioning flows given but reposition_cost missing")
        cost += float(np.sum(inst.econ.reposition_cost[None, :, :] * alloc.x_repo))
    return cost


def _x_arrival_terms(inst: Instance, t: int, l: int, x_idx, repo_idx):
    """Variable columns contributing sellable units at (t, l): lead-shifted
    supplier orders, plus repositioning inflows minus outflows."""
    terms = []
    L = inst.inventory.lead_time[l]
    if t >= L:
        terms.append((x_idx[t - L, l], 1.0))
    if repo_idx is not None:
        rl = inst.inventory.reposition_lead
        nn = inst.num_nodes
        for src in range(nn):
            if src == l:
                continue
            lag = int(rl[src, l]) if rl is not None else 0
            if t >= lag:
                terms.append((repo_idx[t - lag, src, l], 1.0))
        for dst in range(nn):
            if dst == l:
                continue
            terms.append((repo_idx[t, l, dst], -1.0))
    return terms


def _x_arrival_const(inst: Instance, t: int, l: int, alloc: Allocation) -> float:
    """`_x_arrival_terms` evaluated at the allocation's orders and flows."""
    val = 0.0
    for v, sign in _x_arrival_terms(inst, t, l, alloc.x, alloc.x_repo):
        val += sign * float(v)
    return val


def _balance_rhs(inst: Instance, alloc: Allocation | None = None) -> np.ndarray:
    """(T, L) balance-row right-hand sides: pipeline arrivals, plus the orders
    and flows of `alloc` when given, plus on-hand stock in period 0."""
    T, L = inst.horizon, inst.num_nodes
    rhs = np.array([[pipeline_arrival(inst, t, l) for l in range(L)] for t in range(T)])
    if alloc is not None:
        if alloc.x.shape != (T, L):
            raise FormulationError(f"allocation shape {alloc.x.shape}, expected {(T, L)}")
        rhs += [[_x_arrival_const(inst, t, l, alloc) for l in range(L)] for t in range(T)]
    rhs[0] += [inst.inventory.on_hand(l) for l in range(L)]
    return rhs


def _less_lost_sales(inst: Instance, const, walkin, online,
                     walkin_frac: float = 1.0, online_frac: float = 1.0):
    """`const` less the lost-sales penalty `penalty * frac * demand` of every
    cell, period by period, walk-in cells before online ones; a demand cell
    is a number, or a (K,) array of K scenarios' demands."""
    e = inst.econ
    for t in range(inst.horizon):
        for l in range(inst.num_nodes):
            const = const - e.walkin_penalty[t, l] * walkin_frac * walkin[t, l]
        for z in range(inst.num_zones):
            const = const - e.online_penalty[t] * online_frac * online[t, z]
    return const


def window_weights(inst: Instance) -> list[float]:
    """Each edge's coefficient in the service-window row: 1 - rho on a fast
    edge (at most `service_window_days`), -rho on a slow one."""
    br = inst.business_rules
    rho = float(br.service_window_fraction)
    return [(1.0 - rho) if d <= br.service_window_days else -rho
            for _l, _z, d in inst.network.edges]


def _add_business_rule_rows(m: LinearModel, inst: Instance, t: int, pools: list):
    """Fulfillment capacity (one per shipping node, in order of its first
    edge) and service-window rows of period t over its shipment `pools`,
    each a list of columns by edge position."""
    br, edges = inst.business_rules, inst.network.edges
    if br.fulfill_capacity is not None:
        for l in dict.fromkeys(edge[0] for edge in edges):
            m.add_constr({c: 1.0 for cols in pools for c, ed in zip(cols, edges) if ed[0] == l},
                         "<=", float(br.fulfill_capacity[t, l]), name=f"fulfill_cap[{t},{l}]")
    if br.service_window_fraction is not None:
        w = window_weights(inst)
        m.add_constr({c: wk for cols in pools for c, wk in zip(cols, w)}, ">=", 0.0,
                     name=f"service_window[{t}]")


def _columns(m: LinearModel, name: str, lb, ub=INF, kind=CONTINUOUS) -> np.ndarray:
    """One column per entry of `lb`, `ub` and `kind` broadcast together,
    added in row-major order; returns their indices in that shape.  Column
    order is part of every result: the simplex breaks ties by lowest index."""
    shape = np.broadcast(lb, ub, kind).shape
    # the bounds and kinds broadcast into one table, read back as Python
    # values (the kinds as the very strings given)
    table = np.empty((3,) + shape, dtype=object)
    table[0, ...], table[1, ...], table[2, ...] = lb, ub, np.asarray(kind, dtype=object)
    first = m.num_vars
    for k, lo, hi, kd in zip(count(), *table.reshape(3, -1).tolist()):
        m.add_var(f"{name}[{k}]", lo, hi, kd)
    return np.arange(first, m.num_vars).reshape(shape)


def _price(obj: dict, cols: np.ndarray, coeffs: np.ndarray):
    """Objective terms `coeffs` of the block `cols`, an array of its shape."""
    obj.update(zip(cols.ravel().tolist(), coeffs.ravel().tolist(), strict=True))


def _ship_margin(inst: Instance, discount: float = 1.0) -> np.ndarray:
    """(T, E) unit margin of each edge: `discount` * (price + penalty) - cost."""
    e, fc = inst.econ, inst.econ.fulfill_cost.tolist()
    cost = np.array([fc[l][z] for l, z, _d in inst.network.edges])
    return discount * (e.online_price + e.online_penalty)[:, None] - cost


def _by_cell(inst: Instance, x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(T, L, Z) values in `x` of the (T, E) edge columns `cols`; zero off
    the edges."""
    out = np.zeros((inst.horizon, inst.num_nodes, inst.num_zones))
    for k, (l, z, _d) in enumerate(inst.network.edges):
        out[:, l, z] = x[cols[:, k]]
    return out


# ---------------------------------------------------------------------------
# fulfillment LP (inner maximization at a fixed allocation and scenario)
# ---------------------------------------------------------------------------

def _check_scenario_dims(inst: Instance, s: DemandScenario, where: str = ""):
    T, L, Z = inst.horizon, inst.num_nodes, inst.num_zones
    if s.walkin.shape != (T, L) or s.online.shape != (T, Z):
        raise FormulationError(
            f"{where}scenario dims {s.walkin.shape}/{s.online.shape} do not match "
            f"instance ({T},{L})/({T},{Z})")


def build_fulfillment_model(inst: Instance, alloc: Allocation,
                            scenario: DemandScenario) -> LinearModel:
    """LP over sales, shipments and carried inventory with the allocation
    fixed; always feasible (zero fulfillment)."""
    _check_scenario_dims(inst, scenario)
    m = LinearModel("fulfillment", sense="max")
    terms, const, m.info = _add_recourse_block(
        m, inst, scenario.walkin, scenario.online, balance=_balance_rhs(inst, alloc),
        const=-first_stage_cost(inst, alloc))
    m.set_objective(terms, const=const)
    return m


def evaluate_allocation(inst: Instance, alloc: Allocation,
                        scenario: DemandScenario) -> FulfillmentPlan:
    """Optimal fulfillment plan and realized profit for one scenario."""
    m = build_fulfillment_model(inst, alloc, scenario)
    sol = solve(m)
    if sol.status != "optimal":
        raise FormulationError(f"fulfillment LP ended with status {sol.status}")
    return FulfillmentPlan(sol.x[m.info["s"]], _by_cell(inst, sol.x, m.info["y"]),
                           sol.x[m.info["I"]], float(sol.objective))


def evaluate_profit(inst: Instance, alloc: Allocation, scenario: DemandScenario) -> float:
    return float(evaluate_profits(inst, alloc, [scenario])[0])


class ScenarioBatch(tuple):
    """Demand scenarios checked against `inst` once (`where` names them in
    the error); a batch of `inst` is returned as it is.  Their fulfillment
    LPs are one `LPFamily`: walk-in demand bounds the walk-in sales columns,
    online demand is the e-commerce rows' right-hand side.  The first
    `evaluate_profits` builds it and stacks the demands into (T, L, K) and
    (T, Z, K) arrays; a later allocation moves only the balance rows'
    right-hand sides and the constant."""

    def __new__(cls, inst: Instance, scenarios, where: str = "scenarios"):
        if isinstance(scenarios, cls) and scenarios.inst is inst:
            return scenarios
        batch = super().__new__(cls, scenarios)
        T, L, Z = inst.horizon, inst.num_nodes, inst.num_zones
        for i, s in enumerate(batch):
            if s.walkin.shape != (T, L) or s.online.shape != (T, Z):
                _check_scenario_dims(inst, s, f"{where}[{i}]: ")
        batch.inst, batch.family = inst, None
        return batch


def evaluate_profits(inst: Instance, alloc: Allocation, scenarios) -> np.ndarray:
    """Optimal-fulfillment profit of one allocation on each scenario, through
    their `ScenarioBatch`.  Each scenario's constant (first-stage cost and
    lost-sales penalties) is summed by `_less_lost_sales`, as in
    `_add_recourse_block`."""
    batch = ScenarioBatch(inst, scenarios)
    if not batch:
        return np.zeros(0)
    balance = _balance_rhs(inst, alloc)
    if batch.family is None:
        T, L, Z, K = inst.horizon, inst.num_nodes, inst.num_zones, len(batch)
        m = build_fulfillment_model(inst, alloc, batch[0])
        m.obj_const = -0.0   # x + -0.0 is x for every x, signed zeros included
        walkin = np.stack([s.walkin for s in batch], axis=-1)   # (T, L, K)
        online = np.stack([s.online for s in batch], axis=-1)   # (T, Z, K)
        batch.family = (LPFamily(m, m.info["ecom"].ravel(), online.reshape(T * Z, K),
                                 m.info["s"].ravel(), walkin.reshape(T * L, K)),
                        m.info["bal"].ravel(), walkin, online)
    family, bal_rows, walkin, online = batch.family
    const = _less_lost_sales(inst, np.full(len(batch), -first_stage_cost(inst, alloc)),
                             walkin, online)
    profits = np.empty(len(batch))
    for k, sol in enumerate(family.solve(bal_rows, balance.ravel())):
        if sol.status != "optimal":
            raise FormulationError(f"fulfillment LP ended with status {sol.status}")
        profits[k] = sol.objective + const[k]
    return profits


# ---------------------------------------------------------------------------
# master problem (and SAA sibling)
# ---------------------------------------------------------------------------

def _integer_cap(inst: Instance, uset: UncertaintySet) -> int:
    cap = float(uset.budget_upper["b"].sum() + uset.budget_upper["o"].sum())
    return max(1, int(math.ceil(cap - 1e-9)))


def _add_first_stage(m: LinearModel, inst: Instance, uset: UncertaintySet | None,
                     cfg: BioConfig, fixed_x: np.ndarray | None):
    """x (and repositioning / integer-expansion) variables plus their cost
    terms; returns (x_idx, repo_idx, obj_terms)."""
    T, L = inst.horizon, inst.num_nodes
    e, tc = inst.econ, inst.business_rules.transport_capacity
    obj: dict[int, float] = {}
    cap = INF
    if cfg.integer_allocations:
        if uset is None:
            raise FormulationError("integer mode requires an uncertainty set for the cap")
        cap = float(_integer_cap(inst, uset))
    lo, hi = ((np.zeros((T, L)), cap if tc is None else np.minimum(cap, tc)) if fixed_x is None
              else (fixed_x, fixed_x))
    x_idx = _columns(m, "x", lo, hi)
    _price(obj, x_idx, np.broadcast_to(-e.purchase_cost, (T, L)))
    repo_idx = None
    if cfg.repositioning:
        if e.reposition_cost is None:
            raise FormulationError("repositioning enabled but reposition_cost missing")
        off = ~np.eye(L, dtype=bool)   # no flow from a node to itself
        repo_idx = np.zeros((T, L, L), dtype=int)
        repo_idx[:, off] = _columns(m, "xr", np.zeros((T, L * (L - 1))))
        _price(obj, repo_idx[:, off], np.broadcast_to(-e.reposition_cost[off], (T, L * (L - 1))))
    if cfg.integer_allocations and fixed_x is None:
        nbits = max(1, int(math.ceil(math.log2(cap + 1))))
        bits = _columns(m, "xbit", np.zeros((T, L, nbits)), 1.0, BINARY)
        weights = [-float(2 ** k) for k in range(nbits)]
        for t, l in np.ndindex(T, L):
            m.add_constr({int(x_idx[t, l]): 1.0, **dict(zip(bits[t, l].tolist(), weights))},
                         "==", 0.0, name=f"int_x[{t},{l}]")
    return x_idx, repo_idx, obj


def _add_optimism(m: LinearModel, inst: Instance, uset: UncertaintySet, cfg: BioConfig,
                  obj: dict):
    """Optimistic demand D+ in U, committed sales s+ <= lam*D+ (walk-in; plus
    y+ when both channels are allied) and their objective terms in `obj`;
    returns the index maps "dplus", "splus", "doplus" and "yplus"."""
    T, L, Z = inst.horizon, inst.num_nodes, inst.num_zones
    e, edges = inst.econ, inst.network.edges
    lam = cfg.lam
    # D+ and s+ of a cell side by side
    ds = _columns(m, "Dsp", np.stack([uset.local_lower["b"][:T], np.zeros((T, L))], axis=-1),
                  np.stack([uset.local_upper["b"][:T], np.full((T, L), INF)], axis=-1))
    _price(obj, ds, np.stack([-lam * e.walkin_penalty, e.walkin_price + e.walkin_penalty], -1))
    dplus_idx, splus_idx = ds[..., 0], ds[..., 1]
    for t in range(T):
        for l in range(L):
            m.add_constr({int(splus_idx[t, l]): 1.0, int(dplus_idx[t, l]): -lam},
                         "<=", 0.0, name=f"sp_cap[{t},{l}]")
        cols = {int(dplus_idx[t, l]): 1.0 for l in range(L)}
        m.add_constr(cols, ">=", float(uset.budget_lower["b"][t]), name=f"Dp_bl[{t}]")
        m.add_constr(cols, "<=", float(uset.budget_upper["b"][t]), name=f"Dp_bu[{t}]")

    doplus_idx = yplus_idx = None
    if cfg.allied_channels == BOTH_CHANNELS and Z > 0:
        # a period's columns: D_o+ of each zone, then y+ of each edge
        E = len(edges)
        block = _columns(m, "Dop_yp", np.hstack([uset.local_lower["o"][:T], np.zeros((T, E))]),
                         np.hstack([uset.local_upper["o"][:T], np.full((T, E), INF)]))
        _price(obj, block, np.hstack([np.repeat((-lam * e.online_penalty)[:, None], Z, axis=1),
                                      _ship_margin(inst)]))
        doplus_idx, yplus_idx = block[:, :Z], block[:, Z:]
        for t in range(T):
            for z in range(Z):
                coeffs = {int(c): 1.0 for c, ed in zip(yplus_idx[t], edges) if ed[1] == z}
                coeffs[int(doplus_idx[t, z])] = -lam
                m.add_constr(coeffs, "<=", 0.0, name=f"yp_cap[{t},{z}]")
            cols = {int(doplus_idx[t, z]): 1.0 for z in range(Z)}
            m.add_constr(cols, ">=", float(uset.budget_lower["o"][t]), name=f"Dop_bl[{t}]")
            m.add_constr(cols, "<=", float(uset.budget_upper["o"][t]), name=f"Dop_bu[{t}]")
    return {"dplus": dplus_idx, "splus": splus_idx, "doplus": doplus_idx, "yplus": yplus_idx}


def _add_recourse_block(m: LinearModel, inst: Instance, walkin, online, *,
                        walkin_frac: float = 1.0, online_frac: float = 1.0,
                        cols: tuple | None = None, balance: np.ndarray | None = None,
                        extra_s=None, extra_y=None, const: float = 0.0, tag: str = ""):
    """Inner fulfillment block for one demand realization: walk-in sales up
    to `walkin_frac` of walk-in demand, shipments up to `online_frac` of each
    zone's online demand, carried stock, and the balance and business-rule
    rows.  The first stage enters either as columns, `cols` = (x_idx,
    repo_idx), or through the balance rows' right-hand sides `balance` of a
    fixed allocation (`_balance_rhs`).  `extra_s` ((T, L) columns) and
    `extra_y` ((T, E) columns, one per period and position in
    `inst.network.edges`) are further sales drawing on the same stock: the
    committed s+/y+ of the BIO master, the second demand class of the PWL
    baseline.  Returns the block's profit terms, its constant (`const` less
    the lost-sales penalties) and the index maps: columns "s", "I" ((T, L))
    and "y" ((T, E)), rows "ecom" ((T, Z)) and "bal" ((T, L))."""
    T, L, Z = inst.horizon, inst.num_nodes, inst.num_zones
    e, edges = inst.econ, inst.network.edges
    terms: dict[int, float] = {}
    # a period's columns: the (s, I) pair of each node, then y of each edge
    ub, cost = np.full((T, 2 * L + len(edges)), INF), np.empty((T, 2 * L + len(edges)))
    ub[:, :2 * L:2] = walkin_frac * np.asarray(walkin, dtype=float)[:T]
    cost[:, :2 * L:2], cost[:, 1:2 * L:2] = e.walkin_price + e.walkin_penalty, -e.holding
    cost[:, 2 * L:] = _ship_margin(inst)
    block = _columns(m, f"r{tag}", 0.0, ub)
    _price(terms, block, cost)
    s_idx, I_idx, y_idx = block[:, :2 * L:2], block[:, 1:2 * L:2], block[:, 2 * L:]
    ecom_rows, bal_rows = np.empty((T, Z), dtype=int), np.empty((T, L), dtype=int)
    balance = _balance_rhs(inst) if balance is None else balance
    for t in range(T):
        s_row, I_row, y_row = s_idx[t].tolist(), I_idx[t].tolist(), y_idx[t].tolist()
        for z in range(Z):
            row = {c: 1.0 for c, ed in zip(y_row, edges) if ed[1] == z}
            ecom_rows[t, z] = m.add_constr(row, "<=", online_frac * float(online[t, z]),
                                           name=f"ecom{tag}[{t},{z}]")
        pools = [y_row] + ([] if extra_y is None else [extra_y[t].tolist()])
        for l in range(L):
            coeffs = {s_row[l]: 1.0, I_row[l]: 1.0}
            coeffs.update((c, 1.0) for cols in pools for c, ed in zip(cols, edges) if ed[0] == l)
            if extra_s is not None:
                coeffs[int(extra_s[t, l])] = 1.0
            if cols is not None:
                for col, sign in _x_arrival_terms(inst, t, l, *cols):
                    coeffs[col] = coeffs.get(col, 0.0) - sign
            if t > 0:
                coeffs[int(I_idx[t - 1, l])] = -1.0
            bal_rows[t, l] = m.add_constr(coeffs, "==", float(balance[t, l]),
                                          name=f"bal{tag}[{t},{l}]")
        _add_business_rule_rows(m, inst, t, pools)
    const = _less_lost_sales(inst, const, walkin, online, walkin_frac, online_frac)
    return terms, const, {"s": s_idx, "I": I_idx, "y": y_idx, "ecom": ecom_rows, "bal": bal_rows}


def build_master(inst: Instance, uset: UncertaintySet, scenarios: list[DemandScenario],
                 cfg: BioConfig, fixed_x: np.ndarray | None = None) -> LinearModel:
    """CCG master over the scenario pool, by `add_master_scenario`.  With lam = 0
    the optimistic block is omitted (pure-robust master); with an empty pool
    the epigraph variable is omitted so the first iteration stays bounded."""
    m = LinearModel("master", sense="max")
    x_idx, repo_idx, obj = _add_first_stage(m, inst, uset, cfg, fixed_x)
    m.info = {"x": x_idx, "repo": repo_idx, "eta": None, "scenarios": 0,
              **dict.fromkeys(("dplus", "splus", "doplus", "yplus"))}
    if cfg.lam > 0.0:
        m.info.update(_add_optimism(m, inst, uset, cfg, obj))
    m.set_objective(obj)
    for scen in scenarios:
        add_master_scenario(m, inst, scen, cfg)
    return m


def add_master_scenario(m: LinearModel, inst: Instance, scen: DemandScenario,
                        cfg: BioConfig):
    """Grow a `build_master` model of `cfg` by the recourse block of `scen` and
    its cut on eta, the epigraph variable that the first scenario adds."""
    if m.info["eta"] is None:
        m.info["eta"] = int(_columns(m, "eta", -INF))
        m.set_objective({**m.obj, m.info["eta"]: 1.0}, const=m.obj_const)
    i = m.info["scenarios"]
    keep = channel_weights(inst, cfg.lam, cfg.allied_channels)[0]
    terms, const, _ = _add_recourse_block(
        m, inst, scen.walkin, scen.online, walkin_frac=keep["b"],
        online_frac=keep["o"], cols=(m.info["x"], m.info["repo"]),
        extra_s=m.info["splus"], extra_y=m.info["yplus"], tag=f"_{i}")
    row = {m.info["eta"]: 1.0, **{col: -coeff for col, coeff in terms.items()}}
    m.add_constr(row, "<=", const, name=f"cut[{i}]")
    m.info["scenarios"] = i + 1


def first_stage_x(model: LinearModel, sol: Solution) -> np.ndarray:
    """Supplier orders (T, L) of a solved model with a first stage; values
    within 1e-10 of zero read as zero."""
    x = sol.x[model.info["x"]]
    x[np.abs(x) < 1e-10] = 0.0
    return x


def extract_allocation(model: LinearModel, sol: Solution, inst: Instance,
                       cfg: BioConfig) -> tuple[Allocation, tuple, float | None]:
    """Allocation, optimistic demand (D+, D_o+; None where the master has
    none), and eta value from a master solution."""
    info = model.info
    repo = (None if info["repo"] is None
            else np.where(np.eye(inst.num_nodes, dtype=bool), 0.0, sol.x[info["repo"]]))
    s_plus = d_plus = y_plus = d_o_plus = None
    if cfg.lam > 0.0:
        s_plus, d_plus = sol.x[info["splus"]], sol.x[info["dplus"]]
        if info["yplus"] is not None:
            y_plus = _by_cell(inst, sol.x, info["yplus"])
            d_o_plus = sol.x[info["doplus"]]
    eta = None if info["eta"] is None else float(sol.x[info["eta"]])
    return Allocation(first_stage_x(model, sol), repo, s_plus, y_plus), (d_plus, d_o_plus), eta


def stage_one_value(inst: Instance, cfg: BioConfig, alloc: Allocation,
                    d_plus: np.ndarray | None,
                    d_o_plus: np.ndarray | None = None) -> float:
    """First-stage objective part: optimistic revenue/penalty minus purchase
    cost (the eta-free part of the master objective)."""
    e = inst.econ
    val = -first_stage_cost(inst, alloc)
    if cfg.lam > 0.0 and alloc.s_plus is not None:
        val += float(np.sum((e.walkin_price + e.walkin_penalty) * alloc.s_plus))
        val -= cfg.lam * float(np.sum(e.walkin_penalty * d_plus))
        if alloc.y_plus is not None:
            if d_o_plus is None:
                raise FormulationError("y_plus given without the optimistic online demand")
            for t, y_t in enumerate(alloc.y_plus):
                for (l, z), v in np.ndenumerate(y_t):
                    val += (e.online_price[t] + e.online_penalty[t] - e.fulfill_cost[l, z]) * v
                val -= cfg.lam * e.online_penalty[t] * float(np.sum(d_o_plus[t]))
    return val


def build_saa_model(inst: Instance, scenarios: list[DemandScenario],
                    integer_allocations: bool = False,
                    uset: UncertaintySet | None = None) -> LinearModel:
    """Sample-average model: maximize the mean recourse profit minus the
    first-stage cost, with one recourse block per sample."""
    if not scenarios:
        raise FormulationError("SAA model needs at least one scenario")
    cfg = BioConfig(lam=0.0, integer_allocations=integer_allocations)
    m = LinearModel("saa", sense="max")
    x_idx, repo_idx, obj = _add_first_stage(m, inst, uset, cfg, None)
    w = 1.0 / len(scenarios)
    const = 0.0
    for i, scen in enumerate(scenarios):
        terms, c, _ = _add_recourse_block(
            m, inst, scen.walkin, scen.online, cols=(x_idx, repo_idx), tag=f"_{i}")
        obj.update((col, w * coeff) for col, coeff in terms.items())
        const += w * c
    m.set_objective(obj, const=const)
    m.info = {"x": x_idx, "repo": repo_idx}
    return m


# ---------------------------------------------------------------------------
# exact adversarial subproblem (RLT mixed-binary reformulation)
# ---------------------------------------------------------------------------

def channel_weights(inst: Instance, lam: float, allied: str = WALKIN_ONLY):
    """Per-channel share of demand left to the adversary (1 - lam, online
    only when both channels are allied) and lost-sales penalty, (T, n)."""
    T, Z = inst.horizon, inst.num_zones
    lam_online = lam if allied == BOTH_CHANNELS else 0.0
    keep = {"b": 1.0 - lam, "o": 1.0 - lam_online}
    penalty = {"b": inst.econ.walkin_penalty,
               "o": np.broadcast_to(inst.econ.online_penalty[:, None], (T, Z))}
    return keep, penalty


def _big_m(inst: Instance, ch: str, t: int, i: int) -> float:
    """Upper bound on the demand dual of cell (t, i) of channel ch.  Under a
    service window a fast edge's dual row also carries (1 - rho) * sigma.
    While sigma's cost (the window room of committed y+) is not negative, an
    optimal dual lowers sigma to what the slow edges' rows ask: `slow`."""
    e, T, edges = inst.econ, inst.horizon, inst.network.edges
    if ch == "b":
        return float(e.walkin_price[t, i] + e.walkin_penalty[t, i] + (T - t) * e.holding[i])
    margins = [float(e.online_price[t] + e.online_penalty[t]
                     + ((T - t) * e.holding[l] - e.fulfill_cost[l, z])) for l, z, _d in edges]
    rho = inst.business_rules.service_window_fraction
    w = [0.0] * len(edges) if rho is None else window_weights(inst)
    slow = max([0.0] + [mk for mk, wk in zip(margins, w) if wk < 0]) / rho if rho else 0.0
    return max([0.0] + [mk + max(wk, 0.0) * slow
                        for mk, wk, (_l, z, _d) in zip(margins, w, edges) if z == i])


def build_subproblem(inst: Instance, uset: UncertaintySet, alloc: Allocation,
                     lam: float, allied: str = WALKIN_ONLY,
                     fixed_scenario: DemandScenario | None = None) -> LinearModel:
    """Adversary's problem at fixed first-stage commitments.

    Without `fixed_scenario` this is the exact mixed-binary reformulation:
    per channel and cell, binary selectors w pick one discrete demand value,
    budget rows keep the selection inside the set, and big-M links linearize
    the dual-times-demand products.  With `fixed_scenario` the selectors are
    dropped and the model is the plain dual LP at that demand (used by the
    alternating heuristic and for strong-duality checks); its columns are
    the leading columns of the mixed-binary model, in the same order; the
    selector pairs of every cell follow them, cell after cell.
    `info["dual"][ch]` holds the demand-dual columns of channel ch, (T, n),
    and `info["w"][ch]` maps each cell to (selectors, values,
    dual-times-selector columns).  Rows, bounds and big-Ms do not depend on
    `alloc`, `lam` or `allied`; `set_allocation` writes the objective.
    """
    T, L, Z = inst.horizon, inst.num_nodes, inst.num_zones
    e, br = inst.econ, inst.business_rules
    m = LinearModel("subproblem", sense="min")
    gamma = _columns(m, "g", np.full((T, L), -INF))
    dual = {ch: _columns(m, f"dual_{ch}", np.zeros((T, n))) for ch, n in (("b", L), ("o", Z))}
    kappa = None if br.fulfill_capacity is None else _columns(m, "k", np.zeros((T, L)))
    sigma = None if br.service_window_fraction is None else _columns(m, "sg", np.zeros(T))

    # dual feasibility
    w = None if sigma is None else window_weights(inst)
    margin = _ship_margin(inst)
    for t in range(T):
        for l in range(L):
            m.add_constr({int(dual["b"][t, l]): 1.0, int(gamma[t, l]): 1.0}, ">=",
                         float(e.walkin_price[t, l] + e.walkin_penalty[t, l]),
                         name=f"dual_s[{t},{l}]")
        for k, (l, z, _d) in enumerate(inst.network.edges):
            row = {int(dual["o"][t, z]): 1.0, int(gamma[t, l]): 1.0}
            if kappa is not None:
                row[int(kappa[t, l])] = 1.0
            if sigma is not None:
                row[int(sigma[t])] = -w[k]
            m.add_constr(row, ">=", float(margin[t, k]), name=f"dual_y[{t},{l},{z}]")
        for l in range(L):
            row = {int(gamma[t, l]): 1.0}
            if t + 1 < T:
                row[int(gamma[t + 1, l])] = -1.0
            m.add_constr(row, ">=", -float(e.holding[l]), name=f"dual_I[{t},{l}]")

    # demand fixed (set_fixed_scenario) or picked by selectors
    winfo = {ch: {} for ch in CHANNELS}
    m.info = {"gamma": gamma, "kappa": kappa, "sigma": sigma, "dual": dual, "w": winfo}
    if fixed_scenario is not None:
        m.info["scenario"] = fixed_scenario
    else:
        cells = [(t, ch, i) for t in range(T) for ch in CHANNELS for i in range(dual[ch].shape[1])]
        vals = [list(range(int(uset.local_lower[ch][t, i]), int(uset.local_upper[ch][t, i]) + 1))
                for t, ch, i in cells]
        # per cell and discrete demand value, a binary selector and a
        # dual-times-selector column side by side; all cells in one block
        ws, ps = map(iter, _columns(m, "wp", np.zeros((sum(map(len, vals)), 2)), [1.0, INF],
                                    [BINARY, CONTINUOUS]).T.tolist())
        for (t, ch, i), v in zip(cells, vals):
            wcols, pcols = list(islice(ws, len(v))), list(islice(ps, len(v)))
            d, M, cell = int(dual[ch][t, i]), _big_m(inst, ch, t, i), f"{ch}[{t},{i}]"
            for k, (wc, pc) in enumerate(zip(wcols, pcols)):
                # big-M links to the cell's dual; the lower one keeps the relaxation tight
                m.add_constr({pc: 1.0, wc: -M}, "<=", 0.0, name=f"link{cell}[{k}]")
                m.add_constr({pc: 1.0, d: -1.0, wc: -M}, ">=", -M, name=f"linklo{cell}[{k}]")
            m.add_constr({c: 1.0 for c in wcols}, "==", 1.0, name=f"pick{cell}")
            m.add_constr({**dict.fromkeys(pcols, 1.0), d: -1.0}, "==", 0.0, name=f"sum{cell}")
            m.add_sos1(wcols, v)
            winfo[ch][t, i] = wcols, v, pcols
            if i + 1 == dual[ch].shape[1]:
                row = {wc: float(val) for k in range(i + 1)
                       for wc, val in zip(*winfo[ch][t, k][:2]) if val}
                m.add_constr(row, ">=", float(uset.budget_lower[ch][t]), name=f"bud_{ch}l[{t}]")
                m.add_constr(row, "<=", float(uset.budget_upper[ch][t]), name=f"bud_{ch}u[{t}]")
    set_allocation(m, inst, alloc, lam, allied)
    return m


def set_allocation(m: LinearModel, inst: Instance, alloc: Allocation, lam: float,
                   allied: str = WALKIN_ONLY):
    """Point a `build_subproblem` model at `alloc`, `lam` and `allied`: only
    its objective changes.  That is the gamma terms (initial stock, arrivals,
    committed optimistic sales), the room the committed y+ leaves in the
    business-rule rows, and the (1 - lam) * (dual - penalty) * demand terms,
    with the kept fixed demand or the selectors' demand."""
    T, L = inst.horizon, inst.num_nodes
    info = m.info
    gamma, kappa, sigma = info["gamma"], info["kappa"], info["sigma"]
    keep, penalty = channel_weights(inst, lam, allied)
    s_plus = alloc.s_plus if alloc.s_plus is not None else np.zeros((T, L))
    y_plus = alloc.y_plus if alloc.y_plus is not None else np.zeros((T, L, inst.num_zones))
    obj: dict[int, float] = {}
    if kappa is not None:
        cap = inst.business_rules.fulfill_capacity
        obj.update((int(kappa[t, l]), float(cap[t, l] - y_plus[t, l].sum()))
                   for t in range(T) for l in range(L))
    if sigma is not None:
        w, edges = window_weights(inst), inst.network.edges
        obj.update((int(sigma[t]), sum(wk * float(y_plus[t, l, z])
                                       for wk, (l, z, _d) in zip(w, edges))) for t in range(T))
    for t in range(T):
        for l in range(L):
            coeff = pipeline_arrival(inst, t, l) + _x_arrival_const(inst, t, l, alloc)
            coeff -= float(s_plus[t, l])
            coeff -= float(y_plus[t, l, :].sum())
            obj[int(gamma[t, l])] = (inst.inventory.on_hand(l) if t == 0 else 0.0) + coeff
    if "scenario" in info:
        info["fixed"] = (obj, keep, penalty)
        set_fixed_scenario(m, info["scenario"])
        return
    for ch in CHANNELS:
        for (t, i), (wcols, vals, pcols) in info["w"][ch].items():
            pen = float(penalty[ch][t, i])
            for wc, val, pc in zip(wcols, vals, pcols):
                obj[pc] = keep[ch] * val
                obj[wc] = -keep[ch] * val * pen
    m.set_objective(obj)


def set_fixed_scenario(m: LinearModel, scenario: DemandScenario):
    """Point a fixed-demand `build_subproblem` model at the demand `scenario`;
    only the demand terms of its objective and its constant change."""
    base, keep, penalty = m.info["fixed"]
    m.info["scenario"] = scenario
    dual, const = m.info["dual"], 0.0
    obj = dict(base)
    for t in range(dual["b"].shape[0]):
        for ch in CHANNELS:
            for i in range(dual[ch].shape[1]):
                v = float(scenario.channel(ch)[t, i])
                obj[int(dual[ch][t, i])] = keep[ch] * v
                const -= keep[ch] * float(penalty[ch][t, i]) * v
    m.set_objective(obj, const=const)


def extract_worst_scenario(model: LinearModel, sol: Solution) -> DemandScenario:
    """Demand selected by the subproblem's binary selectors."""
    info = model.info
    demand = {ch: np.zeros(info["dual"][ch].shape) for ch in CHANNELS}
    for ch in CHANNELS:
        for (t, i), (wcols, vals, _p) in info["w"][ch].items():
            demand[ch][t, i] = _selected_value(sol, wcols, vals, f"channel {ch} cell ({t},{i})")
    return DemandScenario(demand["b"], demand["o"])


def incumbent_from_scenario(model: LinearModel, scenario: DemandScenario, fixed: Solution):
    """(value, point) of a subproblem MIP at `scenario`, the inverse of
    `extract_worst_scenario`: `fixed`, the dual LP's solution there, in the
    leading columns, the scenario's selectors and their dual-times-selector
    columns; None when a cell's demand is none of its selector values."""
    x = np.zeros(model.num_vars)
    x[:fixed.x.size] = fixed.x
    for ch in CHANNELS:
        for cell, (wcols, vals, pcols) in model.info["w"][ch].items():
            picked = [k for k, v in enumerate(vals) if v == float(scenario.channel(ch)[cell])]
            if len(picked) != 1:
                return None
            x[wcols[picked[0]]] = 1.0
            x[pcols[picked[0]]] = x[model.info["dual"][ch][cell]]
    return float(fixed.objective), x


def demand_move_costs(model: LinearModel, sol: Solution) -> dict:
    """Per channel, keep * (dual - penalty), (T, n): the value per unit of
    demand of a solved fixed-demand `build_subproblem` model at its duals."""
    _base, keep, penalty = model.info["fixed"]
    return {ch: keep[ch] * (sol.x[model.info["dual"][ch]] - penalty[ch]) for ch in CHANNELS}


def _selected_value(sol: Solution, wcols, vals, where: str) -> float:
    picked = None
    for wc, val in zip(wcols, vals):
        wv = float(sol.x[wc])
        if wv > 0.5:
            if abs(wv - 1.0) > 1e-4:
                raise FormulationError(f"non-binary selector at {where}: {wv}")
            picked = val
    if picked is None:
        raise FormulationError(f"no selector chosen at {where}")
    return float(picked)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def build_pwl_baseline(inst: Instance, mean_demand, quantile_demand,
                       discount: float = 0.5) -> LinearModel:
    """Deterministic two-class network model: class 1 is the mean demand at
    full price/penalty, class 2 the excess up to the critical quantile at a
    discounted price/penalty."""
    T, L, Z, E = inst.horizon, inst.num_nodes, inst.num_zones, len(inst.network.edges)
    e = inst.econ
    mw, mo = np.atleast_2d(mean_demand.walkin), np.atleast_2d(mean_demand.online)
    qw, qo = np.atleast_2d(quantile_demand.walkin), np.atleast_2d(quantile_demand.online)
    if (qw < mw - 1e-9).any() or (qo < mo - 1e-9).any():
        raise FormulationError("critical-quantile demand must dominate the mean")
    exw = np.maximum(0.0, qw - mw)
    exo = np.maximum(0.0, qo - mo)

    m = LinearModel("pwl", sense="max")
    x_idx, repo_idx, obj = _add_first_stage(m, inst, None, BioConfig(lam=0.0), None)
    # class 2: discounted sales of the excess, drawing on the class-1 stock;
    # a period's columns: s2 of each node, then y2 of each edge
    block = _columns(m, "s2y2", 0.0, np.hstack([exw[:T], np.full((T, E), INF)]))
    _price(obj, block, np.hstack([discount * (e.walkin_price + e.walkin_penalty),
                                  _ship_margin(inst, discount)]))
    s2, y2 = block[:, :L], block[:, L:]
    terms, const, _ = _add_recourse_block(
        m, inst, mw, mo, cols=(x_idx, repo_idx), extra_s=s2, extra_y=y2,
        const=_less_lost_sales(inst, 0.0, exw, exo, discount, discount), tag="1")
    # class-2 e-commerce rows after the block's rows: with them before, the
    # simplex takes 12% more iterations on the rolling-horizon PWL plans
    for t in range(T):
        for z in range(Z):
            cols = {int(c): 1.0 for c, ed in zip(y2[t], inst.network.edges) if ed[1] == z}
            m.add_constr(cols, "<=", float(exo[t, z]), name=f"ecom2[{t},{z}]")
    obj.update(terms)
    m.set_objective(obj, const=const)
    m.info = {"x": x_idx, "repo": repo_idx}
    return m


def pwl_allocation(inst: Instance, mean_demand, quantile_demand,
                   discount: float = 0.5) -> Allocation:
    m = build_pwl_baseline(inst, mean_demand, quantile_demand, discount)
    sol = solve(m)
    if sol.status != "optimal":
        raise FormulationError(f"PWL model status {sol.status}")
    return Allocation(first_stage_x(m, sol))


def infer_warehouses(inst: Instance, means) -> list[int]:
    """Nodes with no walk-in demand act as warehouses for the heuristics."""
    mw = np.atleast_2d(means.walkin)
    return [l for l in range(inst.num_nodes) if float(mw[:, l].sum()) == 0.0]


def critical_ratios(inst: Instance, warehouses: list[int]) -> tuple[list[float], float]:
    """Margin-ratio critical levels of the heuristics: one walk-in level per
    node, and one chain-level online level at the mean purchase cost of the
    warehouses (of every node when there is none) and the mean shipping
    cost.  Each is capped below 1, so that a zero cost still gives a valid
    quantile level."""
    e = inst.econ
    walkin = []
    for l in range(inst.num_nodes):
        price = float(e.walkin_price[0, l])
        cr = (price - float(e.purchase_cost[l])) / price if price > 0 else 0.0
        walkin.append(min(cr, CRITICAL_RATIO_CAP))
    edges = inst.network.edges
    avg_ship = float(np.mean([e.fulfill_cost[l, z] for l, z, _ in edges])) if edges else 0.0
    cands = warehouses if warehouses else list(range(inst.num_nodes))
    avg_cost = float(np.mean([e.purchase_cost[l] for l in cands]))
    price = float(e.online_price[0])
    online = (price - avg_cost - avg_ship) / price if price > 0 else 0.0
    return walkin, min(online, CRITICAL_RATIO_CAP)


def basestock_policy(inst: Instance, means) -> Allocation:
    """Order-up-to heuristic: store orders cover lead-time-plus-cycle walk-in
    demand at the margin-ratio critical quantile; a chain-level e-commerce
    order-up-to is split across warehouses in proportion to their individual
    base-stock quantities (zones mapped to their nearest warehouse)."""
    T, L, Z = inst.horizon, inst.num_nodes, inst.num_zones
    e = inst.econ
    mw = np.atleast_2d(means.walkin)
    mo = np.atleast_2d(means.online)
    x = np.zeros((T, L))
    position = np.array([sum(inst.inventory.pipeline[l]) for l in range(L)])

    warehouses = infer_warehouses(inst, means)
    cr_w, cr_o = critical_ratios(inst, warehouses)
    store_excess = np.zeros(L)
    for l in range(L):
        horizon_l = min(T, int(inst.inventory.lead_time[l]) + 1)
        mu = float(mw[:horizon_l, l].sum())
        target = float(poisson_quantile(cr_w[l], mu)) if cr_w[l] > 0.0 and mu > 0 else 0.0
        if l not in warehouses:
            x[0, l] = max(0.0, target - position[l])
            store_excess[l] = max(0.0, position[l] - target)

    if Z == 0:
        return Allocation(x)
    candidates = warehouses if warehouses else list(range(L))
    # zone -> nearest candidate by fulfillment cost; ties to the lower index
    zone_home = {}
    for z in range(Z):
        best, best_c = None, INF
        for l in candidates:
            c = float(e.fulfill_cost[l, z])
            if c < best_c - 1e-12:
                best, best_c = l, c
        zone_home[z] = best

    lead_o = max((int(inst.inventory.lead_time[l]) for l in candidates), default=0)
    horizon_o = min(T, lead_o + 1)
    chain_mu = float(mo[:horizon_o, :].sum())
    chain_target = float(poisson_quantile(cr_o, chain_mu)) if cr_o > 0.0 and chain_mu > 0 else 0.0
    chain_position = float(sum(position[l] for l in warehouses) + store_excess.sum())
    chain_order = max(0.0, chain_target - chain_position)
    if chain_order <= 0.0:
        return Allocation(x)

    per_wh = np.zeros(L)
    for l in candidates:
        mu_l = float(sum(mo[:horizon_o, z].sum() for z in range(Z) if zone_home[z] == l))
        tgt = float(poisson_quantile(cr_o, mu_l)) if cr_o > 0.0 and mu_l > 0 else 0.0
        per_wh[l] = max(0.0, tgt - position[l])
    total = per_wh.sum()
    if total > 0:
        for l in candidates:
            x[0, l] += chain_order * per_wh[l] / total
    else:
        share = chain_order / len(candidates)
        for l in candidates:
            x[0, l] += share
    return Allocation(x)
