"""Omnichannel network instance: nodes, zones, economics, lead times,
initial inventory pipeline, horizon, and optional business rules.

Instances are immutable after construction and validated against the standing
assumptions of the planning model: service priority of walk-in customers over
cross-channel fulfillment, prices and penalties non-increasing over time, and
dimensional consistency of every parameter array.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .records import check_keys, field_names, numbers, read_json, record_to_dict


class InstanceError(Exception):
    pass


def _floats(name: str, val) -> np.ndarray:
    """`val` as a float array; InstanceError naming `name` when it is not a
    number or a rectangular array of numbers, or holds a NaN (a JSON null)."""
    a = numbers(name, val, InstanceError)
    if np.isnan(a).any():
        raise InstanceError(f"{name}: expected numbers (got NaN)")
    return a


def _pipeline_row(node, val) -> tuple:
    """A node's pipeline row as a tuple of floats; InstanceError naming the
    row when it is not a list of numbers."""
    name = f"inventory.pipeline[{node}]"
    a = _floats(name, val)
    if a.ndim != 1:
        raise InstanceError(f"{name}: expected numbers (a list, got {val!r})")
    return tuple(a.tolist())


def _grid(name: str, val, shape: tuple) -> np.ndarray:
    """`val` as a float array of `shape`: a scalar fills it, and so does
    None as zero; a row fills a one-row shape.  Any other shape raises
    InstanceError."""
    a = _floats(name, 0.0 if val is None else val)
    if a.ndim == 0:
        return np.full(shape, float(a))
    if a.ndim == 1 and shape == (1, a.size):
        a = a.reshape(shape)
    if a.shape != shape:
        raise InstanceError(f"{name}: expected shape {shape}, got {a.shape}")
    return a


@dataclass(frozen=True)
class Network:
    nodes: tuple            # stores and warehouses
    zones: tuple            # online demand regions
    supplier: str
    sfs_eligible: tuple     # nodes allowed to ship to zones
    ship_edges: tuple       # (node, zone, delivery_days)

    @functools.cached_property
    def edges(self) -> tuple:
        """(node index, zone index, days) of each ship edge from an eligible
        node, in `ship_edges` order: the allowed fulfillment edges."""
        eligible = set(self.sfs_eligible)
        return tuple((self.nodes.index(n), self.zones.index(z), d)
                     for n, z, d in self.ship_edges if n in eligible)


@dataclass(frozen=True)
class EconParams:
    walkin_price: np.ndarray    # (T, n_nodes)
    walkin_penalty: np.ndarray  # (T, n_nodes)
    online_price: np.ndarray    # (T,)
    online_penalty: np.ndarray  # (T,)
    holding: np.ndarray         # (n_nodes,)
    fulfill_cost: np.ndarray    # (n_nodes, n_zones)
    purchase_cost: np.ndarray   # (n_nodes,)
    reposition_cost: np.ndarray | None = None  # (n_nodes, n_nodes)


@dataclass(frozen=True)
class InventoryState:
    pipeline: tuple             # per node: arrivals in j periods, j = 0..lead_time
    lead_time: np.ndarray       # (n_nodes,), integer periods
    reposition_lead: np.ndarray | None = None  # (n_nodes, n_nodes)

    def on_hand(self, l: int) -> float:
        return float(self.pipeline[l][0])

    def arriving(self, l: int, j: int) -> float:
        row = self.pipeline[l]
        return float(row[j]) if j < len(row) else 0.0


@dataclass(frozen=True)
class BusinessRules:
    transport_capacity: np.ndarray | None = None   # (T, n_nodes), cap on x
    fulfill_capacity: np.ndarray | None = None     # (T, n_nodes), cap on sum_z y
    service_window_fraction: float | None = None   # rho in [0,1]
    service_window_days: int | None = None         # day threshold defining fast edges


@dataclass(frozen=True)
class Instance:
    network: Network
    econ: EconParams
    inventory: InventoryState
    horizon: int
    business_rules: BusinessRules = field(default_factory=BusinessRules)

    @property
    def num_nodes(self) -> int:
        return len(self.network.nodes)

    @property
    def num_zones(self) -> int:
        return len(self.network.zones)

    def zero_initial_inventory(self) -> bool:
        return all(all(v == 0 for v in row) for row in self.inventory.pipeline)


def build_instance(nodes, zones, horizon, *, walkin_price, walkin_penalty,
                   online_price=None, online_penalty=None, holding=None,
                   fulfill_cost=None, purchase_cost=None, lead_time=None,
                   pipeline=None, supplier="S", sfs_eligible=None, ship_edges=None,
                   reposition_cost=None, reposition_lead=None,
                   business_rules=None) -> Instance:
    """The one constructor of an instance.  Names become strings; the eligible
    nodes default to every node and the ship edges to every eligible (node,
    zone) pair at 0 days; a scalar fills its array, and an optional array
    left out is zeros.  Dimensions are checked strictly."""
    nodes = tuple(str(n) for n in nodes)
    zones = tuple(str(z) for z in zones)
    eligible = nodes if sfs_eligible is None else tuple(str(n) for n in sfs_eligible)
    if ship_edges is None:
        ship_edges = [(n, z, 0) for n in eligible for z in zones]
    net = Network(nodes, zones, str(supplier), eligible,
                  tuple((str(n), str(z), int(d)) for n, z, d in ship_edges))
    T, L, Z = int(horizon), len(nodes), len(zones)
    econ = EconParams(
        walkin_price=_grid("walkin_price", walkin_price, (T, L)),
        walkin_penalty=_grid("walkin_penalty", walkin_penalty, (T, L)),
        online_price=_grid("online_price", online_price, (T,)),
        online_penalty=_grid("online_penalty", online_penalty, (T,)),
        holding=_grid("holding", holding, (L,)),
        fulfill_cost=_grid("fulfill_cost", fulfill_cost, (L, Z)),
        purchase_cost=_grid("purchase_cost", purchase_cost, (L,)),
        reposition_cost=None if reposition_cost is None
        else _grid("reposition_cost", reposition_cost, (L, L)),
    )
    lt = _grid("lead_time", lead_time, (L,)).astype(int)
    if pipeline is None:
        pipe = tuple(tuple(0.0 for _ in range(lt[l] + 1)) for l in range(L))
    else:
        pipe = tuple(_pipeline_row(nodes[l] if l < L else l, row)
                     for l, row in enumerate(pipeline))
    inv = InventoryState(
        pipeline=pipe,
        lead_time=lt,
        reposition_lead=None if reposition_lead is None
        else _grid("reposition_lead", reposition_lead, (L, L)).astype(int),
    )
    rules = business_rules or BusinessRules()
    inst = Instance(net, econ, inv, T, replace(rules, **{
        k: _floats(f"business_rules.{k}", getattr(rules, k))
        for k in ("transport_capacity", "fulfill_capacity") if getattr(rules, k) is not None}))
    structural = structural_problems(inst)
    if structural:
        raise InstanceError("; ".join(structural))
    return inst


def structural_problems(inst: Instance) -> list[str]:
    """Hard shape/reference errors that make the instance unusable (as
    opposed to assumption violations reported by validate_instance)."""
    out = []
    net = inst.network
    T, L, Z = inst.horizon, inst.num_nodes, inst.num_zones
    if T < 1:
        out.append(f"horizon: must be >= 1, got {T}")
    if len(set(net.nodes)) != L:
        out.append("network.nodes: duplicate node identifiers")
    if len(set(net.zones)) != Z:
        out.append("network.zones: duplicate zone identifiers")
    for n in net.sfs_eligible:
        if n not in net.nodes:
            out.append(f"network.sfs_eligible: unknown node {n!r}")
    seen = set()
    for n, z, d in net.ship_edges:
        if n not in net.nodes:
            out.append(f"network.ship_edges: unknown node {n!r}")
        if z not in net.zones:
            out.append(f"network.ship_edges: unknown zone {z!r}")
        # a second edge of one pair would get a shipment column in no row
        if (n, z) in seen:
            out.append(f"network.ship_edges: repeated edge {n!r} -> {z!r}")
        seen.add((n, z))
    if len(inst.inventory.pipeline) != L:
        out.append("inventory.pipeline: one row per node required")
    else:
        for l in range(L):
            if len(inst.inventory.pipeline[l]) != inst.inventory.lead_time[l] + 1:
                out.append(
                    f"inventory.pipeline[{net.nodes[l]}]: expected lead_time+1 = "
                    f"{inst.inventory.lead_time[l] + 1} entries, got {len(inst.inventory.pipeline[l])}")
    # the models read a window's day threshold and a capacity per (period, node)
    br = inst.business_rules
    if br.service_window_fraction is not None and br.service_window_days is None:
        out.append("business_rules.service_window_fraction: set without service_window_days")
    for name in ("transport_capacity", "fulfill_capacity"):
        cap = getattr(br, name)
        if cap is not None and np.shape(cap) != (T, L):
            out.append(f"business_rules.{name}: expected shape {(T, L)}, got {np.shape(cap)}")
    return out


def validate_instance(inst: Instance) -> list[str]:
    """Check the standing model assumptions; each violation names the failing
    constraint, indices, and values.  Violations are data, not failures."""
    out = []
    net, e = inst.network, inst.econ
    T, L = inst.horizon, inst.num_nodes

    for name, arr in (("walkin_price", e.walkin_price), ("walkin_penalty", e.walkin_penalty),
                      ("online_price", e.online_price), ("online_penalty", e.online_penalty),
                      ("holding", e.holding), ("fulfill_cost", e.fulfill_cost),
                      ("purchase_cost", e.purchase_cost)):
        if (np.asarray(arr) < 0).any():
            out.append(f"nonnegativity: econ.{name} has negative entries")
    if e.reposition_cost is not None and (e.reposition_cost < 0).any():
        out.append("nonnegativity: econ.reposition_cost has negative entries")
    for l in range(L):
        for j, v in enumerate(inst.inventory.pipeline[l]):
            if v < 0:
                out.append(f"nonnegativity: inventory.pipeline[{net.nodes[l]}][{j}] = {v}")
    if (inst.inventory.lead_time < 0).any():
        out.append("nonnegativity: negative lead time")

    # service priority: p_b + b_b > p_o + b_o - c over every allowed edge
    for n, z, _ in net.ship_edges:
        li, zi = net.nodes.index(n), net.zones.index(z)
        for t in range(T):
            lhs = e.walkin_price[t, li] + e.walkin_penalty[t, li]
            rhs = e.online_price[t] + e.online_penalty[t] - e.fulfill_cost[li, zi]
            if not lhs > rhs:
                out.append(
                    f"service-priority: node {net.nodes[li]}, zone {net.zones[zi]}, period {t}: "
                    f"p_b+b_b = {lhs} <= p_o+b_o-c = {rhs}")

    # prices and penalties non-increasing over time
    for t in range(1, T):
        for li in range(L):
            for name, a in (("walkin_price", e.walkin_price), ("walkin_penalty", e.walkin_penalty)):
                if a[t, li] > a[t - 1, li]:
                    out.append(f"monotonicity: {name} increases at period {t}, "
                               f"node {net.nodes[li]} ({a[t-1, li]} -> {a[t, li]})")
        for name, a in (("online_price", e.online_price), ("online_penalty", e.online_penalty)):
            if a[t] > a[t - 1]:
                out.append(f"monotonicity: {name} increases at period {t} ({a[t-1]} -> {a[t]})")

    eligible = set(net.sfs_eligible)
    for n, z, _ in net.ship_edges:
        if n in net.nodes and n not in eligible:
            out.append(f"eligibility: ship_edge from non-SFS-eligible node {n!r}")

    br = inst.business_rules
    if br.service_window_fraction is not None and not 0.0 <= br.service_window_fraction <= 1.0:
        out.append(f"business-rules: service_window_fraction {br.service_window_fraction} "
                   "outside [0,1]")
    for name, cap in (("transport_capacity", br.transport_capacity),
                      ("fulfill_capacity", br.fulfill_capacity)):
        if cap is not None and (cap < 0).any():
            out.append(f"business-rules: {name} has negative entries")
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

EDGE_KEYS = ("node", "zone", "days")   # a ship edge is a (node, zone, days) tuple


def instance_to_dict(inst: Instance) -> dict:
    d = record_to_dict(inst)
    d["network"]["ship_edges"] = [dict(zip(EDGE_KEYS, e)) for e in inst.network.ship_edges]
    return d


def instance_from_dict(d: dict) -> Instance:
    """`build_instance` of the sections' fields, which are its keywords; of
    the network only `nodes` is required."""
    def section(cls, name, required=None):
        known, fixed = field_names(cls)
        return check_keys(d.get(name, {}), known, fixed if required is None else required,
                          InstanceError, name)

    check_keys(d, *field_names(Instance), InstanceError, "instance")
    net = section(Network, "network", ("nodes",))
    econ = section(EconParams, "econ")
    rules = section(BusinessRules, "business_rules")
    edges = [check_keys(e, EDGE_KEYS, EDGE_KEYS[:2], InstanceError, f"network.ship_edges[{i}]")
             for i, e in enumerate(net.get("ship_edges", []))]
    L = len(net["nodes"])
    return build_instance(
        **{**net, "zones": net.get("zones", []),
           "ship_edges": [(e["node"], e["zone"], e.get("days", 0)) for e in edges]},
        **{**econ, "fulfill_cost": econ["fulfill_cost"] or np.zeros((L, 0))},
        **section(InventoryState, "inventory"),
        horizon=d["horizon"],
        business_rules=BusinessRules(**rules),
    )


def save_instance(inst: Instance, path: str):
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1)
        fh.write("\n")


def load_instance(path: str) -> Instance:
    return instance_from_dict(read_json(path, InstanceError))
