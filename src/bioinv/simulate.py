"""Policy evaluation: batch Monte-Carlo profit distributions and the
transaction-level rolling-horizon simulation with a KPI ledger.

The rolling-horizon run re-solves the configured replenishment policy each
week on the live inventory state with a short look-ahead, executes only the
current week's orders, then plays out the week one customer order at a time:
walk-in orders consume local stock, online orders ship from the cheapest
node of the best availability tier, where a node's tier depends on whether
its on-hand exceeds a reserve covering the remaining week's expected walk-in
demand.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .ccg import ALTERNATING, CcgError, CcgOptions, solve_two_stage
from .formulations import (
    Allocation,
    BioConfig,
    FormulationError,
    allowed_edges,
    basestock_policy,
    critical_ratios,
    evaluate_profits,
    infer_warehouses,
    pwl_allocation,
)
from .instance import Instance, InventoryState
from .solver import SolverError
from .uncertainty import (
    CHANNELS,
    DemandMeans,
    DemandScenario,
    UncertaintyError,
    poisson_quantile,
    quantile_bounds_from_means,
)


class SimulationError(Exception):
    pass


# ---------------------------------------------------------------------------
# batch Monte-Carlo
# ---------------------------------------------------------------------------

def lower_quantile(sorted_values: np.ndarray, q: float) -> float:
    """Lower empirical quantile of an ascending array."""
    n = len(sorted_values)
    k = max(0, min(n - 1, math.ceil(q * n) - 1))
    return float(sorted_values[k])


def batch_evaluate(inst: Instance, alloc: Allocation,
                   scenarios: list[DemandScenario]) -> dict:
    """Per-scenario optimal-fulfillment profits and their distribution
    statistics (lower empirical quantiles)."""
    if not scenarios:
        raise SimulationError("at least one scenario is required")
    profits = evaluate_profits(inst, alloc, scenarios)
    srt = np.sort(profits)
    return {
        "min": float(srt[0]),
        "p5": lower_quantile(srt, 0.05),
        "p10": lower_quantile(srt, 0.10),
        "median": lower_quantile(srt, 0.50),
        "mean": float(profits.mean()),
        "max": float(srt[-1]),
        "count": len(profits),
        "profits": profits,
    }


# ---------------------------------------------------------------------------
# order-stream machinery
# ---------------------------------------------------------------------------

@dataclass
class Order:
    channel: str          # "walkin" | "ecom"
    location: int         # node index (walkin) or zone index (ecom)
    rank: float           # arrival position within the day


def spread_down(weekly_demand, days: int, seed: int) -> list[list[Order]]:
    """Multinomial split of week-location demand across days (equal day
    probabilities); every unit becomes a single-unit order with a random
    arrival rank within its day."""
    if days < 1:
        raise SimulationError("days must be >= 1")
    return _spread_orders(np.random.default_rng(seed), weekly_demand, days, "walkin")


def _spread_orders(rng, weekly, days, channel) -> list[list[Order]]:
    out: list[list[Order]] = [[] for _ in range(days)]
    for loc, units in enumerate(np.asarray(weekly)):
        units = int(units)
        if units <= 0:
            continue
        counts = rng.multinomial(units, np.full(days, 1.0 / days))
        for day, cnt in enumerate(counts):
            for _ in range(cnt):
                out[day].append(Order(channel, loc, float(rng.random())))
    return out


@dataclass
class DayState:
    """Mutable per-day fulfillment state shared by the order processor."""
    on_hand: np.ndarray             # per node
    reserves: np.ndarray            # per node, walk-in protection level
    edges: dict                     # zone -> [(cost, node)] sorted
    stores: set                     # node indices counted as stores


def fulfill_order_stream(orders: list[Order], state: DayState) -> list[dict]:
    """Process one day's orders in arrival order.  Walk-in orders consume
    local on-hand; online orders ship from the cheapest node in the lowest
    non-empty tier (tier 1: on-hand above the walk-in reserve); unmet orders
    become lost sales."""
    events = []
    for od in sorted(orders, key=lambda o: o.rank):
        if od.channel == "walkin":
            l = od.location
            if state.on_hand[l] >= 1.0 - 1e-9:
                state.on_hand[l] -= 1.0
                events.append({"type": "walkin_sale", "node": l})
            else:
                events.append({"type": "walkin_lost", "node": l})
            continue
        z = od.location
        chosen = None
        for tier in (1, 2):
            best = None
            for cost, l in state.edges.get(z, ()):
                if state.on_hand[l] < 1.0 - 1e-9:
                    continue
                node_tier = 1 if state.on_hand[l] > state.reserves[l] else 2
                if node_tier != tier:
                    continue
                best = (cost, l)
                break  # edges pre-sorted by (cost, node)
            if best is not None:
                chosen = best
                break
        if chosen is None:
            events.append({"type": "ecom_lost", "zone": z})
        else:
            cost, l = chosen
            state.on_hand[l] -= 1.0
            events.append({"type": "ecom_ship", "zone": z, "node": l, "cost": cost,
                           "from_store": l in state.stores})
    return events


# ---------------------------------------------------------------------------
# rolling-horizon business-value simulation
# ---------------------------------------------------------------------------

# days per simulated week; the PWL class-2 discount; the Poisson quantiles
# of the bio policy's uncertainty set
DAYS_PER_WEEK = 7
PWL_DISCOUNT = 0.5
POLICY_LOWER_Q, POLICY_UPPER_Q = 0.05, 0.95
# a policy solve that fails with one of these counts as a solver failure and
# orders nothing that week; any other exception is a bug and propagates
POLICY_ERRORS = (SolverError, FormulationError, CcgError, UncertaintyError)
# a planned order this close below a half unit rounds up with the half
ORDER_ROUND_TOL = 1e-9


def whole_units(orders: np.ndarray) -> np.ndarray:
    """Planned orders in the whole units that move through the transaction
    simulator: halves round up, and so does anything within ORDER_ROUND_TOL
    below one, where LP round-off puts a plan that sits on a half."""
    return np.maximum(0.0, np.floor(np.asarray(orders, dtype=float) + (0.5 + ORDER_ROUND_TOL)))


@dataclass
class PolicySpec:
    """A replenishment policy; it plans over the instance horizon."""
    kind: str                       # basestock | pwl | bio
    lam: float = 0.0
    ccg: CcgOptions = field(default_factory=lambda: CcgOptions(
        max_iterations=10, max_seconds=1e9, subproblem_mode=ALTERNATING,
        ah_rounds=10, rescore_worst_case=False))

    def __post_init__(self):
        if self.kind not in ("basestock", "pwl", "bio"):
            raise SimulationError(f"unknown policy kind {self.kind!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise SimulationError(f"lambda must lie in [0,1], got {self.lam}")


@dataclass
class KpiReport:
    replenish_qty: float = 0.0
    dc_replenish_qty: float = 0.0
    walkin_sales_qty: float = 0.0
    total_sales_qty: float = 0.0
    sfs_qty: float = 0.0
    satisfied_revenue: float = 0.0
    missed_revenue: float = 0.0
    shipping_cost: float = 0.0
    purchase_cost: float = 0.0
    excess_inventory_at_cost: float = 0.0
    walkin_service_level: float = 1.0
    ecom_service_level: float = 1.0
    total_service_level: float = 1.0
    inventory_turnover: float = 0.0
    penalized_profit: float = 0.0
    realized_profit: float = 0.0
    solver_failures: int = 0

    def as_row(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


KPI_FIELDS = tuple(f.name for f in fields(KpiReport) if f.name != "solver_failures")


def _critical_quantile_demand(inst: Instance, means: DemandMeans,
                              warehouses: list[int]) -> DemandMeans:
    """Per-cell Poisson quantile at the margin-ratio critical level (the PWL
    second class ceiling)."""
    cr_w, cr_o = critical_ratios(inst, warehouses)
    levels = {"b": cr_w, "o": [cr_o] * inst.num_zones}
    quant = {}
    for ch in CHANNELS:
        mu = np.array(means.channel(ch), dtype=float)
        quant[ch] = mu.copy()
        for (t, i), mean in np.ndenumerate(mu):
            mean = float(mean)
            if levels[ch][i] > 0 and mean > 0:
                quant[ch][t, i] = max(mean, float(poisson_quantile(levels[ch][i], mean)))
    return DemandMeans(quant["b"], quant["o"])


def _solve_policy(plan_inst: Instance, policy: PolicySpec, means: DemandMeans) -> Allocation:
    if policy.kind == "basestock":
        return basestock_policy(plan_inst, means)
    if policy.kind == "pwl":
        wh = infer_warehouses(plan_inst, means)
        quant = _critical_quantile_demand(plan_inst, means, wh)
        return pwl_allocation(plan_inst, means, quant, PWL_DISCOUNT)
    uset = quantile_bounds_from_means(means, POLICY_LOWER_Q, POLICY_UPPER_Q)
    rep = solve_two_stage(plan_inst, uset, BioConfig(lam=policy.lam), policy.ccg)
    return rep.allocation


def run_rolling_horizon(inst: Instance, policy: PolicySpec, weekly_means: DemandMeans,
                        weeks: int, replications: int, seed: int,
                        keep_trace: bool = False):
    """Weekly re-solve / daily transaction simulation.

    The policy plans `inst.horizon` weeks ahead.  Returns (aggregate,
    reports): per-field mean and standard error across replications, plus
    the per-replication KpiReports.  With `keep_trace` each report carries a
    per-day ledger (start/arrivals/sales/shipments/end per node, lost units
    per channel) for invariant checking.
    """
    T = inst.horizon
    if weeks < int(inst.inventory.lead_time.max()) + 1:
        raise SimulationError("weeks must cover at least lead time + 1")
    if replications < 1:
        raise SimulationError("replications must be >= 1")
    L, Z = inst.num_nodes, inst.num_zones
    mw = np.asarray(weekly_means.walkin, dtype=float)
    mo = np.asarray(weekly_means.online, dtype=float)
    if mw.shape != (weeks, L) or mo.shape != (weeks, Z):
        raise SimulationError(
            f"weekly means must be shaped ({weeks},{L})/({weeks},{Z}), "
            f"got {mw.shape}/{mo.shape}")
    e = inst.econ
    warehouses = set(infer_warehouses(inst, DemandMeans(mw, mo)))
    stores = {l for l in range(L) if l not in warehouses}
    edges = {}
    for l, z, _d in allowed_edges(inst):
        edges.setdefault(z, []).append((float(e.fulfill_cost[l, z]), l))
    for z in edges:
        edges[z].sort()

    # the plan depends only on the plan state and the look-ahead rows, and
    # replications share early-week states; failures are not cached
    planned: dict[tuple, np.ndarray] = {}
    reports = []
    for rep_i in range(replications):
        rng = np.random.default_rng([seed, rep_i])
        kpi = KpiReport()
        trace = [] if keep_trace else None
        on_hand = np.array([inst.inventory.on_hand(l) for l in range(L)], dtype=float)
        in_transit: dict[tuple[int, int], float] = {}
        for l in range(L):
            for j in range(1, int(inst.inventory.lead_time[l]) + 1):
                qty = inst.inventory.arriving(l, j)
                if qty:
                    in_transit[j - 1, l] = in_transit.get((j - 1, l), 0.0) + qty
        walkin_demanded = walkin_sold = ecom_demanded = ecom_sold = 0.0
        onhand_days = []
        for week in range(weeks):
            # arrivals at the start of the week
            for l in range(L):
                qty = in_transit.pop((week, l), 0.0)
                on_hand[l] += qty
            # plan on the current state with a T-week look-ahead
            rows = tuple(min(week + k, weeks - 1) for k in range(T))
            pipeline = []
            for l in range(L):
                lead = int(inst.inventory.lead_time[l])
                row = [on_hand[l]] + [in_transit.get((week + j, l), 0.0)
                                      for j in range(1, lead + 1)]
                pipeline.append(tuple(row))
            key = (tuple(pipeline), rows)
            # an order is pointless when it cannot arrive within the run
            receivable = [l for l in range(L)
                          if week + int(inst.inventory.lead_time[l]) < weeks]
            if not receivable:
                orders_now = np.zeros(L)
            elif key in planned:
                orders_now = planned[key]
            else:
                plan_inst = Instance(inst.network, inst.econ,
                                     InventoryState(tuple(pipeline),
                                                    inst.inventory.lead_time,
                                                    inst.inventory.reposition_lead),
                                     inst.horizon, inst.business_rules)
                try:
                    alloc = _solve_policy(plan_inst, policy,
                                          DemandMeans(mw[list(rows)], mo[list(rows)]))
                    orders_now = planned[key] = whole_units(alloc.x[0])
                except POLICY_ERRORS:
                    kpi.solver_failures += 1
                    orders_now = np.zeros(L)
            for l in range(L):
                q = float(orders_now[l])
                if q <= 0 or l not in set(receivable):
                    continue
                kpi.replenish_qty += q
                if l in warehouses:
                    kpi.dc_replenish_qty += q
                kpi.purchase_cost += q * float(e.purchase_cost[l])
                lead = int(inst.inventory.lead_time[l])
                if lead == 0:
                    on_hand[l] += q
                else:
                    key = (week + lead, l)
                    in_transit[key] = in_transit.get(key, 0.0) + q
            # realize the week's demand and play it out day by day
            wk_walkin = rng.poisson(mw[week])
            wk_ecom = rng.poisson(mo[week]) if Z else np.zeros(0, dtype=int)
            walkin_demanded += float(wk_walkin.sum())
            ecom_demanded += float(wk_ecom.sum())
            day_orders = _spread_orders(rng, wk_walkin, DAYS_PER_WEEK, "walkin")
            for day, lst in enumerate(_spread_orders(rng, wk_ecom, DAYS_PER_WEEK, "ecom")):
                day_orders[day].extend(lst)
            for day in range(DAYS_PER_WEEK):
                reserves = (mw[week] / DAYS_PER_WEEK) * (DAYS_PER_WEEK - day)
                state = DayState(on_hand, reserves, edges, stores)
                day_start = on_hand.copy()
                day_sales = np.zeros(L)
                day_ships = np.zeros(L)
                lost_walkin_pen = lost_ecom = 0.0
                for ev in fulfill_order_stream(day_orders[day], state):
                    if ev["type"] == "walkin_sale":
                        l = ev["node"]
                        kpi.walkin_sales_qty += 1
                        kpi.total_sales_qty += 1
                        kpi.satisfied_revenue += float(e.walkin_price[0, l])
                        walkin_sold += 1
                        day_sales[l] += 1
                    elif ev["type"] == "walkin_lost":
                        l = ev["node"]
                        kpi.missed_revenue += float(e.walkin_price[0, l])
                        kpi.penalized_profit -= float(e.walkin_penalty[0, l])
                        lost_walkin_pen += float(e.walkin_penalty[0, l])
                    elif ev["type"] == "ecom_ship":
                        kpi.total_sales_qty += 1
                        kpi.satisfied_revenue += float(e.online_price[0])
                        kpi.shipping_cost += ev["cost"]
                        if ev["from_store"]:
                            kpi.sfs_qty += 1
                        ecom_sold += 1
                        day_ships[ev["node"]] += 1
                    else:
                        kpi.missed_revenue += float(e.online_price[0])
                        kpi.penalized_profit -= float(e.online_penalty[0])
                        lost_ecom += 1
                onhand_days.append(float(on_hand.sum()))
                if trace is not None:
                    trace.append({
                        "week": week, "day": day,
                        "start": day_start, "walkin_sales": day_sales,
                        "shipments": day_ships, "end": on_hand.copy(),
                        "lost_walkin_penalty": lost_walkin_pen,
                        "lost_ecom_units": lost_ecom,
                    })
        kpi.excess_inventory_at_cost = float(
            sum(on_hand[l] * e.purchase_cost[l] for l in range(L))
            + sum(q * e.purchase_cost[l] for (_w, l), q in in_transit.items()))
        kpi.realized_profit = kpi.satisfied_revenue - kpi.shipping_cost - kpi.purchase_cost
        kpi.penalized_profit += kpi.realized_profit
        kpi.walkin_service_level = (walkin_sold / walkin_demanded) if walkin_demanded else 1.0
        kpi.ecom_service_level = (ecom_sold / ecom_demanded) if ecom_demanded else 1.0
        total_dem = walkin_demanded + ecom_demanded
        kpi.total_service_level = ((walkin_sold + ecom_sold) / total_dem) if total_dem else 1.0
        avg_onhand = float(np.mean(onhand_days)) if onhand_days else 0.0
        kpi.inventory_turnover = (kpi.total_sales_qty / avg_onhand) if avg_onhand > 0 else 0.0
        if trace is not None:
            kpi.trace = trace
        reports.append(kpi)

    aggregate = {}
    for name in KPI_FIELDS + ("solver_failures",):
        vals = np.array([getattr(r, name) for r in reports], dtype=float)
        stderr = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        aggregate[name] = (float(vals.mean()), stderr)
    return aggregate, reports


def kpi_table(results: dict[str, tuple[dict, list]]) -> str:
    """Delimited ledger: one row per policy and replication plus an aggregate
    row per policy; columns are the KpiReport field names."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["policy", "replication"] + list(KPI_FIELDS) + ["solver_failures"])
    for policy_name, (aggregate, reports) in results.items():
        for i, rep in enumerate(reports):
            row = rep.as_row()
            writer.writerow([policy_name, i] + [repr(row[f]) for f in KPI_FIELDS]
                            + [row["solver_failures"]])
        writer.writerow([policy_name, "aggregate"]
                        + [repr(aggregate[f][0]) for f in KPI_FIELDS]
                        + [aggregate["solver_failures"][0]])
    return buf.getvalue()
