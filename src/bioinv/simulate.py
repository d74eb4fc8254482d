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
import logging
import math
from dataclasses import dataclass, field, fields
from operator import itemgetter

import numpy as np

from .ccg import ALTERNATING, CcgError, CcgOptions, solve_two_stage
from .formulations import (Allocation, BioConfig, FormulationError, basestock_policy,
                           critical_ratios, evaluate_profits, infer_warehouses, pwl_allocation)
from .instance import Instance, InventoryState
from .solver import SolverError
from .uncertainty import (CHANNELS, DemandMeans, DemandScenario, UncertaintyError,
                          poisson_quantile, quantile_bounds_from_means)


_log = logging.getLogger(__name__)


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

def spread_down(weekly_demand, days: int, rng, online: bool = False) -> list[list[tuple]]:
    """Multinomial split of week-location demand across days (equal day
    probabilities).  Every unit becomes a single-unit order `(rank, online,
    location)` with a uniform random arrival rank within its day; location is
    a node for walk-in and a zone for online demand."""
    if days < 1:
        raise SimulationError("days must be >= 1")
    out: list[list[tuple]] = [[] for _ in range(days)]
    probs = np.full(days, 1.0 / days)
    for loc, units in enumerate(np.asarray(weekly_demand, dtype=int).tolist()):
        if units <= 0:
            continue
        counts = rng.multinomial(units, probs).tolist()
        unit_days = [day for day, cnt in enumerate(counts) for _ in range(cnt)]
        for day, rank in zip(unit_days, rng.random(units).tolist()):
            out[day].append((rank, online, loc))
    return out


def fulfill_order_stream(orders: list[tuple], on_hand: np.ndarray, reserves,
                         edges: dict) -> list[tuple]:
    """Serve one day's `(rank, online, location)` orders in arrival order,
    drawing on `on_hand` in place.  A walk-in order takes a unit of local
    stock.  An online order ships along its zone's `(cost, node)` edges,
    sorted by cost: from the first node whose on-hand exceeds its walk-in
    reserve, else from the first node with a unit.  Returns `(online,
    location, node, cost)` per order, node None for a lost sale."""
    served = []
    for _rank, online, loc in sorted(orders, key=itemgetter(0)):
        # a walk-in order's one edge is its own node, free and unreserved
        choice = None
        for edge in edges.get(loc, ()) if online else ((0.0, loc),):
            l = edge[1]
            if on_hand[l] >= 1.0 - 1e-9:
                if not online or on_hand[l] > reserves[l]:
                    choice = edge
                    break
                choice = choice or edge
        if choice is None:
            served.append((online, loc, None, None))
        else:
            cost, node = choice
            on_hand[node] -= 1.0
            served.append((online, loc, node, cost))
    return served


# ---------------------------------------------------------------------------
# rolling-horizon business-value simulation
# ---------------------------------------------------------------------------

# days per simulated week; the PWL class-2 discount
DAYS_PER_WEEK = 7
PWL_DISCOUNT = 0.5
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
        max_iterations=12, max_seconds=1e9, subproblem_mode=ALTERNATING, rescore_worst_case=False))

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


KPI_FIELDS = tuple(f.name for f in fields(KpiReport))


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
    uset = quantile_bounds_from_means(means)
    rep = solve_two_stage(plan_inst, uset, BioConfig(lam=policy.lam), policy.ccg)
    return rep.allocation


def run_rolling_horizon(inst: Instance, policy: PolicySpec, weekly_means: DemandMeans,
                        weeks: int, replications: int, seed: int,
                        keep_trace: bool = False):
    """Weekly re-solve / daily transaction simulation.

    The policy plans `inst.horizon` weeks ahead.  Returns (aggregate,
    reports): per-field mean and standard error across replications, plus
    the per-replication KpiReports.  With `keep_trace` each report carries a
    per-day ledger (start, walk-in sales, shipments and end per node, lost
    walk-in penalty and lost online units) for invariant checking.
    """
    T = inst.horizon
    lead = inst.inventory.lead_time.tolist()
    if weeks < max(lead) + 1:
        raise SimulationError("weeks must cover at least lead time + 1")
    if replications < 1:
        raise SimulationError("replications must be >= 1")
    if policy.kind != "basestock":
        for l, k in enumerate(lead):
            if k >= T:
                raise SimulationError(
                    f"node {inst.network.nodes[l]} has lead time {k}, but the {policy.kind} "
                    f"policy plans {T} weeks ahead: it could never order there")
    L, Z = inst.num_nodes, inst.num_zones
    mw = np.asarray(weekly_means.walkin, dtype=float)
    mo = np.asarray(weekly_means.online, dtype=float)
    if mw.shape != (weeks, L) or mo.shape != (weeks, Z):
        raise SimulationError(
            f"weekly means must be shaped ({weeks},{L})/({weeks},{Z}), "
            f"got {mw.shape}/{mo.shape}")
    e = inst.econ
    purchase = e.purchase_cost.tolist()
    walkin_price, walkin_penalty = e.walkin_price[0].tolist(), e.walkin_penalty[0].tolist()
    online_price, online_penalty = float(e.online_price[0]), float(e.online_penalty[0])
    warehouses = set(infer_warehouses(inst, DemandMeans(mw, mo)))
    edges = {}
    for l, z, _d in inst.network.edges:
        edges.setdefault(z, []).append((float(e.fulfill_cost[l, z]), l))
    for z in edges:
        edges[z].sort()

    # the plan depends only on the plan state and the look-ahead rows, and
    # replications share early-week states; failures are not cached
    planned: dict[tuple, list] = {}
    reports = []
    for rep_i in range(replications):
        rng = np.random.default_rng([seed, rep_i])
        kpi = KpiReport()
        trace = [] if keep_trace else None
        on_hand = np.array([inst.inventory.on_hand(l) for l in range(L)], dtype=float)
        # arriving[w, l]: units that reach node l at the start of week w; the
        # zero rows past the run pad the last weeks' plan pipelines
        arriving = np.zeros((weeks + max(lead) + 1, L))
        for l, row in enumerate(inst.inventory.pipeline):
            arriving[:lead[l], l] = row[1:]
        walkin_demanded = ecom_demanded = 0.0
        onhand_days = []
        for week in range(weeks):
            on_hand += arriving[week]
            # plan on the current state with a T-week look-ahead
            rows = tuple(min(week + k, weeks - 1) for k in range(T))
            # plan entry j is sellable in plan period j - 1, and this week's
            # arrivals are on hand: next week's go in entry 2
            pipeline = tuple((on_hand[l], 0.0, *arriving[week + 1:week + lead[l], l].tolist())
                             if lead[l] else (on_hand[l],) for l in range(L))
            key = (pipeline, rows)
            # an order is pointless when it cannot arrive within the run
            receivable = [week + k < weeks for k in lead]
            if any(receivable) and key not in planned:
                plan_inst = Instance(inst.network, inst.econ,
                                     InventoryState(pipeline, inst.inventory.lead_time,
                                                    inst.inventory.reposition_lead),
                                     inst.horizon, inst.business_rules)
                try:
                    alloc = _solve_policy(plan_inst, policy,
                                          DemandMeans(mw[list(rows)], mo[list(rows)]))
                    planned[key] = whole_units(alloc.x[0]).tolist()
                except POLICY_ERRORS:
                    kpi.solver_failures += 1
            for l, q in enumerate(planned.get(key, ())):
                if q <= 0 or not receivable[l]:
                    continue
                kpi.replenish_qty += q
                if l in warehouses:
                    kpi.dc_replenish_qty += q
                kpi.purchase_cost += q * purchase[l]
                if lead[l]:
                    arriving[week + lead[l], l] += q
                else:
                    on_hand[l] += q
            # realize the week's demand and play it out day by day
            wk_walkin = rng.poisson(mw[week])
            wk_ecom = rng.poisson(mo[week]) if Z else np.zeros(0, dtype=int)
            walkin_demanded += float(wk_walkin.sum())
            ecom_demanded += float(wk_ecom.sum())
            day_orders = spread_down(wk_walkin, DAYS_PER_WEEK, rng)
            for day, lst in enumerate(spread_down(wk_ecom, DAYS_PER_WEEK, rng, online=True)):
                day_orders[day] += lst
            daily_walkin = mw[week] / DAYS_PER_WEEK
            for day, orders in enumerate(day_orders):
                reserves = (daily_walkin * (DAYS_PER_WEEK - day)).tolist()
                day_start = on_hand.copy()
                day_sales, day_ships = np.zeros(L), np.zeros(L)
                lost_walkin_pen = lost_ecom = 0.0
                for online, loc, node, cost in fulfill_order_stream(orders, on_hand,
                                                                    reserves, edges):
                    price, penalty = ((online_price, online_penalty) if online
                                      else (walkin_price[loc], walkin_penalty[loc]))
                    if node is None:
                        kpi.missed_revenue += price
                        kpi.penalized_profit -= penalty
                        if online:
                            lost_ecom += 1
                        else:
                            lost_walkin_pen += penalty
                        continue
                    kpi.total_sales_qty += 1
                    kpi.satisfied_revenue += price
                    if online:
                        kpi.shipping_cost += cost
                        if node not in warehouses:
                            kpi.sfs_qty += 1
                        day_ships[node] += 1
                    else:
                        kpi.walkin_sales_qty += 1
                        day_sales[node] += 1
                onhand_days.append(float(on_hand.sum()))
                if trace is not None:
                    trace.append({
                        "week": week, "day": day,
                        "start": day_start, "walkin_sales": day_sales,
                        "shipments": day_ships, "end": on_hand.copy(),
                        "lost_walkin_penalty": lost_walkin_pen,
                        "lost_ecom_units": lost_ecom,
                    })
            _log.info("simulate %s (lambda %g) replication %d week %d: %g units bought and "
                      "%g sold so far, %g on hand", policy.kind, policy.lam, rep_i, week,
                      kpi.replenish_qty, kpi.total_sales_qty, on_hand.sum())
        # nothing is in transit: orders need week + lead < weeks, and weeks > max(lead)
        kpi.excess_inventory_at_cost = float(sum(on_hand * e.purchase_cost))
        kpi.realized_profit = kpi.satisfied_revenue - kpi.shipping_cost - kpi.purchase_cost
        kpi.penalized_profit += kpi.realized_profit
        kpi.walkin_service_level = (kpi.walkin_sales_qty / walkin_demanded
                                    if walkin_demanded else 1.0)
        kpi.ecom_service_level = ((kpi.total_sales_qty - kpi.walkin_sales_qty) / ecom_demanded
                                  if ecom_demanded else 1.0)
        total_dem = walkin_demanded + ecom_demanded
        kpi.total_service_level = (kpi.total_sales_qty / total_dem) if total_dem else 1.0
        avg_onhand = float(np.mean(onhand_days)) if onhand_days else 0.0
        kpi.inventory_turnover = (kpi.total_sales_qty / avg_onhand) if avg_onhand > 0 else 0.0
        if trace is not None:
            kpi.trace = trace
        reports.append(kpi)

    aggregate = {}
    for name in KPI_FIELDS:
        vals = np.array([getattr(r, name) for r in reports], dtype=float)
        stderr = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        aggregate[name] = (float(vals.mean()), stderr)
    return aggregate, reports


def kpi_table(results: dict[str, tuple[dict, list]]) -> str:
    """Delimited ledger: one row per policy and replication plus an aggregate
    row per policy; columns are the KpiReport field names."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["policy", "replication"] + list(KPI_FIELDS))
    for policy_name, (aggregate, reports) in results.items():
        for i, rep in enumerate(reports):
            writer.writerow([policy_name, i] + [repr(getattr(rep, f)) for f in KPI_FIELDS])
        writer.writerow([policy_name, "aggregate"] + [repr(aggregate[f][0]) for f in KPI_FIELDS])
    return buf.getvalue()
