import json
import os
import re

import numpy as np
import pytest

from bioinv.formulations import Allocation, evaluate_allocation
from bioinv.instance import (
    BusinessRules,
    InstanceError,
    build_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    validate_instance,
)
from bioinv.records import record_to_dict
from bioinv.reference import example_walkin_instance, example_walkin_means, reference_sim_setup
from bioinv.uncertainty import DemandScenario

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
SHIPPED_INSTANCES = sorted(f for f in os.listdir(DATA)
                           if f.endswith(".json") and "means" not in f)


def single_store(**overrides):
    kw = dict(
        walkin_price=100.0, walkin_penalty=0.0,
        online_price=100.0, online_penalty=0.0,
        fulfill_cost=[[10.0]], purchase_cost=0.0, holding=0.0, lead_time=0,
        pipeline=[[3.0]],
    )
    kw.update(overrides)
    return build_instance(["L1"], ["Z1"], 1, **kw)


class TestValidation:
    def test_clean_instance_no_violations(self):
        assert validate_instance(single_store()) == []

    def test_service_priority_violation(self):
        inst = single_store(fulfill_cost=[[0.0]], online_penalty=50.0)
        out = validate_instance(inst)
        assert len(out) == 1
        assert "service-priority" in out[0]
        assert "100" in out[0] and "150" in out[0]

    def test_price_monotonicity_violation(self):
        inst = build_instance(
            ["L1"], [], 2,
            walkin_price=[[80.0], [100.0]], walkin_penalty=[[0.0], [0.0]],
            purchase_cost=10.0, lead_time=0,
        )
        out = validate_instance(inst)
        assert len(out) == 1
        assert "monotonicity" in out[0] and "period 1" in out[0]

    def test_negative_cost_reported(self):
        inst = single_store(holding=-1.0)
        assert any("nonnegativity" in v and "holding" in v for v in validate_instance(inst))

    def test_validation_is_pure(self):
        inst = single_store(online_penalty=50.0, fulfill_cost=[[0.0]])
        assert validate_instance(inst) == validate_instance(inst)

    def test_example_instances_validate(self):
        for p, b in ((0.0, 160.0), (160.0, 0.0), (80.0, 80.0)):
            assert validate_instance(example_walkin_instance(p, b)) == []

    def test_business_rule_fraction_range(self):
        inst = single_store(
            business_rules=BusinessRules(service_window_fraction=1.5,
                                         service_window_days=2))
        assert any("outside [0,1]" in v for v in validate_instance(inst))


class TestStructure:
    def test_minimal_one_store_no_zones(self):
        inst = build_instance(["L1"], [], 1, walkin_price=10.0, walkin_penalty=0.0)
        assert inst.num_nodes == 1 and inst.num_zones == 0

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(InstanceError, match="duplicate"):
            build_instance(["A", "A"], [], 1, walkin_price=1.0, walkin_penalty=0.0)

    def test_unknown_zone_in_edge_rejected(self):
        with pytest.raises(InstanceError, match="zone"):
            build_instance(["A"], ["Z1"], 1, walkin_price=1.0, walkin_penalty=0.0,
                           fulfill_cost=[[1.0]], ship_edges=[("A", "Z9", 1)])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InstanceError, match="walkin_price"):
            build_instance(["A", "B"], [], 2, walkin_price=[[1.0, 1.0]],
                           walkin_penalty=0.0)

    def test_integer_node_ids_load(self):
        # every name becomes a string before the eligible nodes and edges are checked
        kw = dict(walkin_price=10.0, walkin_penalty=10.0)
        net = build_instance([1, 2], ["Z"], 1, **kw).network
        assert net.nodes == ("1", "2") and net.sfs_eligible == ("1", "2")
        assert net.ship_edges == (("1", "Z", 0), ("2", "Z", 0))
        net = build_instance([1, 2], [3], 1, sfs_eligible=[2], supplier=0,
                             ship_edges=[(2, 3, 1)], **kw).network
        assert (net.zones, net.supplier, net.sfs_eligible) == (("3",), "0", ("2",))
        assert net.ship_edges == (("2", "3", 1),) and net.edges == ((1, 0, 1),)

    def test_edges_are_the_eligible_ship_edges_in_order(self):
        inst = build_instance(
            ["A", "B", "C"], ["Z1", "Z2"], 1, walkin_price=10.0, walkin_penalty=10.0,
            sfs_eligible=["C", "A"],
            ship_edges=[("C", "Z2", 3), ("B", "Z1", 1), ("A", "Z2", 2), ("A", "Z1", 0)])
        assert inst.network.edges == ((2, 1, 3), (0, 1, 2), (0, 0, 0))
        assert inst.network.edges is inst.network.edges
        # a derived value, not a field: it is never written
        assert "edges" not in instance_to_dict(inst)["network"]

    def test_repeated_ship_edge_rejected(self, tmp_path):
        # two edges of one (node, zone) pair left every fulfillment LP unbounded
        kw = dict(walkin_price=100.0, walkin_penalty=0.0, online_price=100.0,
                  fulfill_cost=[[10.0]])
        with pytest.raises(InstanceError, match="repeated edge 'A' -> 'Z1'"):
            build_instance(["A"], ["Z1"], 1, ship_edges=[("A", "Z1", 1), ("A", "Z1", 2)], **kw)
        doc = instance_to_dict(build_instance(["A"], ["Z1"], 1, ship_edges=[("A", "Z1", 1)],
                                              **kw))
        doc["network"]["ship_edges"].append(dict(doc["network"]["ship_edges"][0], days=2))
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceError, match="repeated edge"):
            load_instance(str(path))

    def test_scalars_fill_every_array(self):
        inst = build_instance(["A", "B"], ["Z"], 2, walkin_price=10.0, walkin_penalty=1.0,
                              fulfill_cost=2.0, lead_time=1, reposition_cost=3.0,
                              reposition_lead=1)
        assert np.array_equal(inst.econ.fulfill_cost, np.full((2, 1), 2.0))
        assert np.array_equal(inst.econ.reposition_cost, np.full((2, 2), 3.0))
        assert np.array_equal(inst.inventory.reposition_lead, np.ones((2, 2), dtype=int))
        assert inst.inventory.reposition_lead.dtype.kind == "i"
        with pytest.raises(InstanceError, match=r"reposition_cost: expected shape \(2, 2\)"):
            build_instance(["A", "B"], [], 1, walkin_price=1.0, walkin_penalty=0.0,
                           reposition_cost=[1.0, 2.0])

    @pytest.mark.parametrize("kw,field", [
        ({"holding": "x"}, "holding"),
        ({"walkin_price": [[1.0, 2.0], [3.0]]}, "walkin_price"),
        ({"fulfill_cost": [["a"], [1.0]]}, "fulfill_cost"),
        ({"lead_time": ["a", 1]}, "lead_time"),
        ({"reposition_cost": [[0.0, 1.0], [1.0]]}, "reposition_cost"),
        ({"reposition_lead": "x"}, "reposition_lead"),
        ({"business_rules": BusinessRules(fulfill_capacity=[[1.0, 2.0], [3.0]])},
         "business_rules.fulfill_capacity"),
        ({"business_rules": BusinessRules(transport_capacity=[["x", 1.0]])},
         "business_rules.transport_capacity"),
        ({"holding": [0.0, None]}, "holding"),
        ({"reposition_cost": [[0.0, float("nan")], [1.0, 0.0]]}, "reposition_cost"),
        ({"business_rules": BusinessRules(fulfill_capacity=[[1.0, None], [1.0, 1.0]])},
         "business_rules.fulfill_capacity"),
        ({"pipeline": [["x"], [0.0]]}, "inventory.pipeline[A]"),
        ({"pipeline": [[0.0], [None]]}, "inventory.pipeline[B]"),
        ({"pipeline": [[0.0], 5.0]}, "inventory.pipeline[B]"),
        ({"pipeline": [[0.0], [0.0], [[1.0]]]}, "inventory.pipeline[2]"),
    ])
    def test_unreadable_arrays_name_their_field(self, kw, field):
        # a non-numeric, ragged or NaN array (a JSON null) is an InstanceError
        # naming its field, not numpy's ValueError
        with pytest.raises(InstanceError, match=f"^{re.escape(field)}: expected numbers"):
            build_instance(["A", "B"], ["Z"], 2, **{"walkin_price": 1.0, "walkin_penalty": 0.0,
                                                    "fulfill_cost": 1.0, **kw})

    def test_infinite_entries_stay_legal(self):
        rules = BusinessRules(fulfill_capacity=np.full((2, 2), np.inf))
        inst = build_instance(["A", "B"], ["Z"], 2, walkin_price=1.0, walkin_penalty=0.0,
                              fulfill_cost=1.0, holding=[0.0, np.inf], pipeline=[[np.inf], [0.0]],
                              business_rules=rules)
        assert np.isinf(inst.econ.holding[1]) and inst.inventory.pipeline[0] == (np.inf,)

    def test_pipeline_length_checked(self):
        with pytest.raises(InstanceError, match="pipeline"):
            build_instance(["A"], [], 1, walkin_price=1.0, walkin_penalty=0.0,
                           lead_time=2, pipeline=[[1.0]])

    @pytest.mark.parametrize("rules,field", [
        ({"service_window_fraction": 0.5}, "service_window_fraction"),
        ({"fulfill_capacity": [[1.0] * 7]}, "fulfill_capacity"),
        ({"transport_capacity": [[1.0] * 6] * 2}, "transport_capacity"),
    ])
    def test_business_rules_the_models_cannot_read_rejected(self, tmp_path, rules, field):
        # the models compare edge days with the window's threshold and read a
        # capacity per (period, node); either gap crashed a model build
        kw = {k: np.array(v) if isinstance(v, list) else v for k, v in rules.items()}
        with pytest.raises(InstanceError, match=f"business_rules.{field}"):
            build_instance([f"N{i}" for i in range(7)], [], 2, walkin_price=10.0,
                           walkin_penalty=0.0, business_rules=BusinessRules(**kw))
        with open(os.path.join(DATA, "reference_sim_instance.json")) as fh:
            doc = json.load(fh)
        doc["business_rules"] = rules
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceError, match=f"business_rules.{field}"):
            load_instance(str(path))


class TestCapacities:
    def test_capacities_given_as_lists_become_float_arrays(self):
        # the models read a capacity as cap[t, l] and validate_instance
        # compares it with 0, so build_instance turns both into float arrays
        inst = build_instance(
            ["A", "B"], ["Z1"], 1, walkin_price=100.0, walkin_penalty=0.0, online_price=90.0,
            fulfill_cost=[[10.0], [12.0]], pipeline=[[5.0], [0.0]],
            business_rules=BusinessRules(transport_capacity=[[2, 3]], fulfill_capacity=[[1.0, 0.5]]))
        for cap in (inst.business_rules.transport_capacity, inst.business_rules.fulfill_capacity):
            assert isinstance(cap, np.ndarray) and cap.dtype == float and cap.shape == (1, 2)
        assert validate_instance(inst) == []
        plan = evaluate_allocation(inst, Allocation(np.zeros((1, 2))),
                                   DemandScenario([[0.0, 0.0]], [[4.0]]))
        assert plan.shipments.sum() == pytest.approx(1.0)


class TestSerialization:
    def test_roundtrip_identity(self, tmp_path):
        inst = single_store(online_penalty=5.0, lead_time=2,
                            pipeline=[[1.0, 2.0, 0.5]])
        path = tmp_path / "inst.json"
        save_instance(inst, str(path))
        loaded = load_instance(str(path))
        assert instance_to_dict(loaded) == instance_to_dict(inst)

    def test_example_table_instance_roundtrip(self, tmp_path):
        inst = example_walkin_instance(0.0, 160.0)
        assert np.all(inst.econ.purchase_cost == 40.0)
        assert np.all(inst.econ.holding == 0.0)
        assert np.all(inst.inventory.lead_time == 0)
        path = tmp_path / "ex.json"
        save_instance(inst, str(path))
        loaded = load_instance(str(path))
        assert loaded.network.nodes == ("M", "W", "E")
        assert instance_to_dict(loaded) == instance_to_dict(inst)

    def test_unknown_field_rejected(self):
        d = instance_to_dict(single_store())
        d["network"]["color"] = "blue"
        with pytest.raises(InstanceError, match="color"):
            instance_from_dict(d)
        d2 = instance_to_dict(single_store())
        d2["surprise"] = 1
        with pytest.raises(InstanceError, match="surprise"):
            instance_from_dict(d2)

    @pytest.mark.parametrize("edit, match", [
        (lambda d: d.pop("horizon"), "instance: missing fields \\['horizon'\\]"),
        (lambda d: d["econ"].pop("online_price"), "econ: missing fields \\['online_price'\\]"),
        (lambda d: d["inventory"].pop("lead_time"), "inventory: missing fields \\['lead_time'\\]"),
        (lambda d: d["network"].pop("nodes"), "network: missing fields \\['nodes'\\]"),
        (lambda d: d["network"]["ship_edges"][0].pop("zone"),
         "network.ship_edges\\[0\\]: missing fields \\['zone'\\]"),
        (lambda d: d["network"]["ship_edges"][0].update(cost=1),
         "network.ship_edges\\[0\\]: unknown fields \\['cost'\\]"),
        (lambda d: d.update(business_rules={"window": 2}),
         "business_rules: unknown fields \\['window'\\]"),
        (lambda d: d.update(econ=[1.0]), "econ: expected an object, got list"),
    ])
    def test_missing_and_unknown_fields_raise(self, edit, match):
        d = instance_to_dict(single_store())
        edit(d)
        with pytest.raises(InstanceError, match=match):
            instance_from_dict(d)

    def test_optional_network_fields_keep_their_defaults(self):
        d = instance_to_dict(build_instance(["L1", "L2"], [], 1, walkin_price=10.0,
                                            walkin_penalty=0.0))
        d["network"] = {"nodes": ["L1", "L2"]}
        inst = instance_from_dict(d)
        assert inst.network.supplier == "S"
        assert inst.network.sfs_eligible == ("L1", "L2")
        assert inst.network.zones == () and inst.network.ship_edges == ()

    def test_integer_node_ids_name_their_eligible_nodes(self, tmp_path):
        d = instance_to_dict(build_instance(["1", "2"], ["3"], 1, walkin_price=10.0,
                                            walkin_penalty=0.0))
        d["network"].update(nodes=[1, 2], zones=[3], sfs_eligible=[1],
                            ship_edges=[{"node": 1, "zone": 3, "days": 1}])
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(d))
        save_instance(load_instance(str(path)), str(path))
        net = json.loads(path.read_text())["network"]
        assert net["nodes"] == ["1", "2"] and net["sfs_eligible"] == ["1"]
        assert net["ship_edges"] == [{"node": "1", "zone": "3", "days": 1}]

    def test_edge_referential_integrity_named(self):
        d = instance_to_dict(single_store())
        d["network"]["ship_edges"][0]["zone"] = "Z9"
        with pytest.raises(InstanceError, match="Z9"):
            instance_from_dict(d)

    def test_parse_error_carries_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{\n  broken\n}")
        with pytest.raises(InstanceError, match="line"):
            load_instance(str(p))

    def test_business_rules_roundtrip(self, tmp_path):
        inst = single_store(
            business_rules=BusinessRules(
                transport_capacity=np.array([[5.0]]),
                fulfill_capacity=np.array([[2.0]]),
                service_window_fraction=0.8, service_window_days=2))
        path = tmp_path / "br.json"
        save_instance(inst, str(path))
        loaded = load_instance(str(path))
        assert loaded.business_rules.service_window_fraction == 0.8
        assert np.array_equal(loaded.business_rules.transport_capacity, [[5.0]])

    def test_repositioning_and_every_rule_roundtrip(self, tmp_path):
        inst = build_instance(
            ["A", "B"], ["Z1"], 2, walkin_price=100.0, walkin_penalty=5.0,
            online_price=90.0, online_penalty=3.0, fulfill_cost=[[4.0], [6.0]],
            purchase_cost=[30.0, 35.0], holding=1.0, lead_time=[1, 2],
            pipeline=[[2.0, 1.0], [0.0, 3.0, 4.0]], ship_edges=[("A", "Z1", 1), ("B", "Z1", 3)],
            reposition_cost=[[0.0, 2.0], [3.0, 0.0]], reposition_lead=[[0, 1], [1, 0]],
            business_rules=BusinessRules(
                transport_capacity=np.full((2, 2), 9.0), fulfill_capacity=np.full((2, 2), 4.0),
                service_window_fraction=0.5, service_window_days=2))
        path, again = tmp_path / "a.json", tmp_path / "b.json"
        save_instance(inst, str(path))
        loaded = load_instance(str(path))
        save_instance(loaded, str(again))
        assert again.read_bytes() == path.read_bytes()
        doc = json.loads(path.read_text())
        assert list(doc) == ["network", "econ", "inventory", "horizon", "business_rules"]
        assert doc["network"]["ship_edges"] == [{"node": "A", "zone": "Z1", "days": 1},
                                                {"node": "B", "zone": "Z1", "days": 3}]
        assert doc["econ"]["reposition_cost"] == [[0.0, 2.0], [3.0, 0.0]]
        assert doc["inventory"] == {"pipeline": [[2.0, 1.0], [0.0, 3.0, 4.0]],
                                    "lead_time": [1, 2], "reposition_lead": [[0, 1], [1, 0]]}
        assert doc["business_rules"] == {
            "transport_capacity": [[9.0, 9.0], [9.0, 9.0]],
            "fulfill_capacity": [[4.0, 4.0], [4.0, 4.0]],
            "service_window_fraction": 0.5, "service_window_days": 2}
        assert np.array_equal(loaded.econ.reposition_cost, inst.econ.reposition_cost)
        assert loaded.inventory.reposition_lead.dtype.kind == "i"
        assert np.array_equal(loaded.inventory.reposition_lead, [[0, 1], [1, 0]])
        rules = loaded.business_rules
        assert np.array_equal(rules.fulfill_capacity, np.full((2, 2), 4.0))
        assert (rules.service_window_fraction, rules.service_window_days) == (0.5, 2)
        assert validate_instance(loaded) == validate_instance(inst) == []

    @pytest.mark.parametrize("name", SHIPPED_INSTANCES)
    def test_shipped_instance_resaves_byte_identically(self, tmp_path, name):
        path = tmp_path / name
        save_instance(load_instance(os.path.join(DATA, name)), str(path))
        with open(os.path.join(DATA, name), "rb") as fh:
            assert path.read_bytes() == fh.read()

    @pytest.mark.parametrize("name,build", [
        ("reference_sim_instance.json", lambda: reference_sim_setup()[0]),
        ("example_walkin_p0_b160.json", lambda: example_walkin_instance(0.0, 160.0)),
        ("example_walkin_p160_b0.json", lambda: example_walkin_instance(160.0, 0.0)),
        ("example_walkin_p80_b80.json", lambda: example_walkin_instance(80.0, 80.0)),
        ("reference_sim_means.json", lambda: reference_sim_setup()[1]),
        ("example_walkin_means.json", example_walkin_means),
    ])
    def test_shipped_fixture_is_its_constructor(self, name, build):
        # the tests build these through bioinv.reference; the CLI tests and
        # the benchmark load the files
        path = os.path.join(DATA, name)
        if "means" in name:
            with open(path) as fh:
                assert json.load(fh) == record_to_dict(build())
        else:
            assert instance_to_dict(load_instance(path)) == instance_to_dict(build())
