"""Shipped reference configurations.

The three-location walk-in example (nodes M, W, E; purchase cost 40, no
holding, no lead time, Poisson mean 1 per location) reproduces the documented reference
allocation/objective pairs; its 5%/95% Poisson quantile bounds are the box
[0,3] per location with aggregate budget [1,6].  The synthetic generator
produces seeded omnichannel networks for the simulator and acceptance suite.
"""

from __future__ import annotations

import numpy as np

from .instance import BusinessRules, Instance, build_instance
from .uncertainty import DemandMeans, UncertaintySet, quantile_bounds_from_means

EXAMPLE_NODES = ("M", "W", "E")
EXAMPLE_MEAN = 1.0
EXAMPLE_PURCHASE_COST = 40.0
MONTE_CARLO_SEED = 20240501


def example_walkin_instance(price: float, penalty: float) -> Instance:
    """Symmetric 3-location walk-in-only setting: c = 40, h = 0, L = 0, one
    period, zero initial inventory."""
    return build_instance(
        EXAMPLE_NODES, [], 1,
        walkin_price=price, walkin_penalty=penalty,
        purchase_cost=EXAMPLE_PURCHASE_COST, holding=0.0, lead_time=0,
    )


def example_walkin_means() -> DemandMeans:
    return DemandMeans(np.full((1, 3), EXAMPLE_MEAN), np.zeros((1, 0)))


def example_walkin_uncertainty() -> UncertaintySet:
    """Poisson 5%/95% quantile bounds of the example means: box [0,3] per
    location, budget [1,6]."""
    return quantile_bounds_from_means(example_walkin_means())


def synthetic_instance(stores: int, dcs: int, zones: int, seed: int,
                       horizon: int = 2, weeks: int | None = None,
                       mean_range=(0.5, 3.0), cost_range=(0.35, 0.55),
                       lead_time: int = 1):
    """Seeded random omnichannel instance plus weekly demand means.

    Stores carry walk-in demand; DCs only fulfill online orders (zero walk-in
    mean) and enjoy cheaper outbound shipping.  Store purchase costs are a
    price fraction drawn from `cost_range`; DC costs sit 0.05/0.10 below its
    ends.  Penalty equals price and holding is zero.
    """
    rng = np.random.default_rng(seed)
    store_names = [f"S{i + 1}" for i in range(stores)]
    dc_names = [f"D{i + 1}" for i in range(dcs)]
    nodes = store_names + dc_names
    zone_names = [f"Z{i + 1}" for i in range(zones)]
    L = len(nodes)

    c_lo, c_hi = cost_range
    price = float(rng.integers(80, 121))
    purchase = np.concatenate([
        rng.uniform(c_lo, c_hi, size=stores) * price,
        rng.uniform(max(0.01, c_lo - 0.05), max(0.02, c_hi - 0.10),
                    size=max(dcs, 0)) * price,
    ]).round(2)
    fulfill = np.zeros((L, zones))
    for li in range(L):
        lo, hi = (5.0, 15.0) if li < stores else (2.0, 8.0)
        fulfill[li] = rng.uniform(lo, hi, size=zones).round(2)
    days = rng.integers(1, 4, size=(L, zones))

    weeks = weeks if weeks is not None else horizon
    walkin_means = np.zeros((weeks, L))
    walkin_means[:, :stores] = rng.uniform(*mean_range, size=(weeks, stores)).round(2)
    online_means = rng.uniform(*mean_range, size=(weeks, zones)).round(2)

    inst = build_instance(
        nodes, zone_names, horizon,
        walkin_price=price, walkin_penalty=price,
        online_price=price, online_penalty=price,
        holding=0.0,
        fulfill_cost=fulfill,
        purchase_cost=purchase,
        lead_time=lead_time,
        ship_edges=[(nodes[li], zone_names[zi], int(days[li, zi]))
                    for li in range(L) for zi in range(zones)],
        business_rules=BusinessRules(),
    )
    means = DemandMeans(walkin_means, online_means)
    return inst, means


REFERENCE_SIM_SEED = 7321
REFERENCE_SIM_WEEKS = 3


def reference_sim_setup():
    """The seeded 5-store / 2-DC / 3-zone rolling-horizon reference."""
    inst, means = synthetic_instance(5, 2, 3, seed=REFERENCE_SIM_SEED, horizon=2,
                                     weeks=REFERENCE_SIM_WEEKS, lead_time=1)
    return inst, means
