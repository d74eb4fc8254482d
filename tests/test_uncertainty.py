import json

import numpy as np
import pytest
from itertools import product

from bioinv.records import record_from_dict, record_to_dict
from bioinv.uncertainty import (
    DemandMeans,
    DemandScenario,
    UncertaintyError,
    UncertaintySet,
    load_scenarios,
    poisson_quantile,
    quantile_bounds_from_means,
    sample_scenarios,
    save_scenarios,
)


def walkin_set(lo, hi, bl, bu):
    n = len(lo)
    return UncertaintySet(
        local_lower={"b": np.array([lo], dtype=float), "o": np.zeros((1, 0))},
        local_upper={"b": np.array([hi], dtype=float), "o": np.zeros((1, 0))},
        budget_lower={"b": np.array([bl], dtype=float), "o": np.zeros(1)},
        budget_upper={"b": np.array([bu], dtype=float), "o": np.zeros(1)},
    )


def scen(walkin):
    return DemandScenario(np.array([walkin], dtype=float), np.zeros((1, 0)))


THREE_LOC = walkin_set([0, 0, 0], [3, 3, 3], 1, 6)


class TestContains:
    def test_worst_case_point_inside(self):
        assert THREE_LOC.contains(scen([3, 3, 0]))

    def test_budget_lower_violated(self):
        assert not THREE_LOC.contains(scen([0, 0, 0]))

    def test_budget_upper_violated(self):
        assert not THREE_LOC.contains(scen([3, 3, 1]))

    def test_box_violated(self):
        assert not THREE_LOC.contains(scen([4, 0, 0]))

    def test_dimension_mismatch(self):
        with pytest.raises(UncertaintyError):
            THREE_LOC.contains(scen([1, 1]))


class TestEnumerateDiscretePoints:
    def test_box_equals_budget(self):
        s = walkin_set([0], [3], 0, 3)
        assert s.enumerate_discrete_points("b", 0) == [(0,), (1,), (2,), (3,)]

    def test_two_locations_budget_filter(self):
        s = walkin_set([0, 0], [1, 1], 1, 2)
        assert s.enumerate_discrete_points("b", 0) == [(0, 1), (1, 0), (1, 1)]

    def test_three_locations_count_matches_bruteforce(self):
        pts = THREE_LOC.enumerate_discrete_points("b", 0)
        brute = [d for d in product(range(4), repeat=3) if 1 <= sum(d) <= 6]
        assert pts == brute
        assert len(pts) == 53

    def test_every_point_is_contained(self):
        for p in THREE_LOC.enumerate_discrete_points("b", 0):
            assert THREE_LOC.contains(scen(list(p)))

    def test_cap_exceeded(self):
        s = walkin_set([0] * 9, [100] * 9, 0, 900)
        with pytest.raises(UncertaintyError, match="cap"):
            s.enumerate_discrete_points("b", 0)


class TestEnumerateVertices:
    def test_single_location_interval_endpoints(self):
        s = walkin_set([0], [3], 1, 3)
        assert s.enumerate_vertices("b", 0) == [(1,), (3,)]

    def test_two_location_example(self):
        s = walkin_set([0, 0], [2, 2], 0, 3)
        verts = set(s.enumerate_vertices("b", 0))
        assert verts == {(0, 0), (2, 0), (0, 2), (2, 1), (1, 2)}

    def test_three_location_integrality(self):
        for v in THREE_LOC.enumerate_vertices("b", 0):
            for coord in v:
                assert coord == int(coord)

    def test_randomized_integrality(self):
        # Prop-1 style randomized check with exact arithmetic
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            lo = rng.integers(0, 3, size=n)
            hi = lo + rng.integers(0, 4, size=n)
            bl = int(max(lo.sum(), rng.integers(0, max(1, int(hi.sum())) + 1)))
            bu = int(rng.integers(bl, int(hi.sum()) + 1))
            if lo.sum() > bu or hi.sum() < bl:
                continue
            s = walkin_set(list(lo), list(hi), bl, bu)
            for v in s.enumerate_vertices("b", 0):
                for coord in v:
                    assert coord == int(coord)

    def test_linear_optimum_matches_discrete_points(self):
        # min/max of random linear functions agree between vertex and
        # discrete-point enumerations (integral bounds)
        rng = np.random.default_rng(3)
        s = THREE_LOC
        verts = s.enumerate_vertices("b", 0)
        pts = s.enumerate_discrete_points("b", 0)
        for _ in range(25):
            c = rng.normal(size=3)
            ov = min(np.dot(c, v) for v in verts)
            op = min(np.dot(c, p) for p in pts)
            assert ov == pytest.approx(op, abs=1e-9)
            ov = max(np.dot(c, v) for v in verts)
            op = max(np.dot(c, p) for p in pts)
            assert ov == pytest.approx(op, abs=1e-9)

    def test_dimension_limit(self):
        s = walkin_set([0] * 7, [1] * 7, 0, 7)
        with pytest.raises(UncertaintyError, match="limited"):
            s.enumerate_vertices("b", 0)


class TestPoissonQuantiles:
    def test_degenerate_mean_zero(self):
        assert poisson_quantile(0.05, 0.0) == 0
        assert poisson_quantile(0.95, 0.0) == 0

    def test_mean_four(self):
        assert poisson_quantile(0.05, 4.0) == 1
        assert poisson_quantile(0.95, 4.0) == 8

    def test_budget_from_summed_means(self):
        means = DemandMeans(np.array([[2.0, 2.0]]), np.zeros((1, 0)))
        s = quantile_bounds_from_means(means)
        assert s.budget_lower["b"][0] == 1
        assert s.budget_upper["b"][0] == 8

    def test_example_reference_bounds(self):
        means = DemandMeans(np.full((1, 3), 1.0), np.zeros((1, 0)))
        s = quantile_bounds_from_means(means)
        assert np.array_equal(s.local_lower["b"], np.zeros((1, 3)))
        assert np.array_equal(s.local_upper["b"], np.full((1, 3), 3.0))
        assert s.budget_lower["b"][0] == 1 and s.budget_upper["b"][0] == 6


class TestSampling:
    def test_poisson_zero_means(self):
        means = DemandMeans(np.zeros((1, 2)), np.zeros((1, 1)))
        for s in sample_scenarios(means, 5, seed=1):
            assert not s.walkin.any() and not s.online.any()

    def test_seed_determinism(self):
        means = DemandMeans(np.array([[1.0, 2.0]]), np.array([[0.5]]))
        a = sample_scenarios(means, 20, seed=11)
        b = sample_scenarios(means, 20, seed=11)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.walkin, sb.walkin)
            assert np.array_equal(sa.online, sb.online)

    def test_poisson_batch_draw_matches_per_scenario_loop(self):
        # one draw for the batch gives the stream of one draw per scenario
        # and channel, walk-in first; zero means, an empty online channel and
        # several periods included
        cases = (DemandMeans(np.array([[1.5, 0.0, 7.0], [2.0, 0.3, 12.5]]),
                             np.array([[4.0, 0.0], [9.5, 1.0]])),
                 DemandMeans(np.full((1, 3), 1.0), np.zeros((1, 0))))
        for means in cases:
            for seed in (7, 2024):
                rng = np.random.default_rng(seed)
                loop = [(rng.poisson(means.walkin).astype(float),
                         rng.poisson(means.online).astype(float)) for _ in range(1000)]
                batch = sample_scenarios(means, 1000, seed)
                assert len(batch) == 1000
                for s, (w, o) in zip(batch, loop):
                    assert s.walkin.shape == w.shape and s.online.shape == o.shape
                    assert np.array_equal(s.walkin, w) and np.array_equal(s.online, o)

    def test_uniform_support_equals_enumeration(self):
        s = THREE_LOC
        draws = sample_scenarios(None, 30000, seed=5, family="uniform", uset=s)
        support = {tuple(d.walkin[0]) for d in draws}
        expected = {tuple(float(v) for v in p) for p in s.enumerate_discrete_points("b", 0)}
        assert support == expected
        for d in draws[:200]:
            assert s.contains(d)

    def test_unknown_family(self):
        with pytest.raises(UncertaintyError):
            sample_scenarios(None, 1, seed=0, family="normal")


class TestSetValidation:
    def test_crossed_local_bounds_rejected(self):
        with pytest.raises(UncertaintyError):
            walkin_set([2], [1], 0, 2)

    def test_empty_budget_rejected(self):
        with pytest.raises(UncertaintyError, match="empty"):
            walkin_set([0, 0], [1, 1], 5, 6)

    def test_non_integral_bounds_rejected(self):
        with pytest.raises(UncertaintyError, match="non-integral"):
            walkin_set([0.5], [2], 0, 2)

    def test_roundtrip_dict(self):
        d = record_to_dict(THREE_LOC)
        s2 = record_from_dict(UncertaintySet, d, UncertaintyError)
        assert np.array_equal(s2.local_upper["b"], THREE_LOC.local_upper["b"])
        with pytest.raises(UncertaintyError, match="unknown"):
            record_from_dict(UncertaintySet, {**d, "extra": 1}, UncertaintyError)

    def test_set_fields_and_channels_are_checked(self):
        d = record_to_dict(THREE_LOC)
        assert list(d) == ["local_lower", "local_upper", "budget_lower", "budget_upper"]
        assert all(list(per_channel) == ["b", "o"] for per_channel in d.values())
        del d["budget_upper"]
        with pytest.raises(UncertaintyError, match="missing fields \\['budget_upper'\\]"):
            record_from_dict(UncertaintySet, d, UncertaintyError)
        d = record_to_dict(THREE_LOC)
        del d["local_lower"]["o"]
        with pytest.raises(UncertaintyError, match="local_lower: expected one entry per channel"):
            record_from_dict(UncertaintySet, d, UncertaintyError)
        d = record_to_dict(THREE_LOC)
        d["budget_lower"]["x"] = [0.0]
        with pytest.raises(UncertaintyError, match="budget_lower"):
            record_from_dict(UncertaintySet, d, UncertaintyError)


class TestScenarioFiles:
    def test_roundtrip(self, tmp_path):
        scenarios = sample_scenarios(DemandMeans([[1.0, 2.0]], [[3.0]]), 4, seed=1)
        path = str(tmp_path / "s.json")
        save_scenarios(path, scenarios, seed=1, family="poisson")
        doc = json.load(open(path))
        assert list(doc) == ["seed", "family", "scenarios"]
        assert doc["scenarios"][0] == {"walkin": scenarios[0].walkin.tolist(),
                                       "online": scenarios[0].online.tolist()}
        loaded, meta = load_scenarios(path)
        assert meta == {"seed": 1, "family": "poisson"}
        assert [s.key() for s in loaded] == [s.key() for s in scenarios]

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc["scenarios"][1].update(extra=1), "scenarios\\[1\\]: unknown fields \\['extra'\\]"),
        (lambda doc: doc["scenarios"][0].pop("online"), "scenarios\\[0\\]: missing fields \\['online'\\]"),
        (lambda doc: doc.pop("scenarios"), "missing fields \\['scenarios'\\]"),
        (lambda doc: doc.update(note="x"), "unknown fields \\['note'\\]"),
    ])
    def test_unknown_and_missing_fields_raise(self, tmp_path, edit, match):
        path = tmp_path / "s.json"
        save_scenarios(str(path), [scen([1, 2, 3]), scen([0, 0, 1])])
        doc = json.load(open(path))
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(UncertaintyError, match=match):
            load_scenarios(str(path))


class TestMeans:
    def test_missing_online_means_no_zones(self):
        means = record_from_dict(DemandMeans, {"walkin": [[1.0, 2.0], [3.0, 4.0]]}, UncertaintyError)
        assert means.online.shape == (2, 0)
        assert record_to_dict(means) == {"walkin": [[1.0, 2.0], [3.0, 4.0]], "online": [[], []]}

    def test_unknown_and_missing_fields_raise(self):
        with pytest.raises(UncertaintyError, match="unknown fields \\['offline'\\]"):
            record_from_dict(DemandMeans, {"walkin": [[1.0]], "offline": [[1.0]]}, UncertaintyError)
        with pytest.raises(UncertaintyError, match="missing fields \\['walkin'\\]"):
            record_from_dict(DemandMeans, {"online": [[1.0]]}, UncertaintyError)
        with pytest.raises(UncertaintyError, match="expected an object, got list"):
            record_from_dict(DemandMeans, [[1.0]], UncertaintyError)
