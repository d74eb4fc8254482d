import hashlib
import json
import os

import numpy as np
import pytest

from bioinv.ccg import CcgOptions, solve_two_stage
from bioinv.formulations import Allocation, BioConfig, evaluate_profit, evaluate_profits
from bioinv.instance import build_instance, load_instance
from bioinv.reference import (
    example_walkin_instance,
    example_walkin_means,
    example_walkin_uncertainty,
    synthetic_instance,
)
from bioinv.tuning import (
    ScoringObjective,
    TuningError,
    closed_form_single_location,
    score_allocation,
    solve_saa,
    superpose,
    tune_lambda,
    verify_superposition,
)
from bioinv.uncertainty import (
    DemandMeans,
    DemandScenario,
    UncertaintySet,
    quantile_bounds_from_means,
    sample_scenarios,
)

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def walkin_set(lo, hi, bl, bu):
    return UncertaintySet(
        local_lower={"b": np.array([lo], dtype=float), "o": np.zeros((1, 0))},
        local_upper={"b": np.array([hi], dtype=float), "o": np.zeros((1, 0))},
        budget_lower={"b": np.array([bl], dtype=float), "o": np.zeros(1)},
        budget_upper={"b": np.array([bu], dtype=float), "o": np.zeros(1)},
    )


def wscen(walkin):
    return DemandScenario(np.atleast_2d(np.asarray(walkin, dtype=float)),
                          np.zeros((1, 0)))


def single_loc_instance(p, b, h, c):
    return build_instance(["A"], [], 1, walkin_price=p, walkin_penalty=b,
                          holding=h, purchase_cost=c)


class TestSuperpose:
    def test_table_blend(self):
        x0 = Allocation([[3.0, 3.0, 3.0]])
        x1 = Allocation([[1.0, 0.0, 0.0]])
        assert superpose(x0, x1, 0.5).x.tolist() == [[2.0, 1.5, 1.5]]
        assert superpose(x0, x1, 0.75).x.tolist() == [[1.5, 0.75, 0.75]]

    def test_lambda_zero_is_identity(self):
        x0 = Allocation([[3.0, 1.0]])
        x1 = Allocation([[0.0, 9.0]])
        assert np.array_equal(superpose(x0, x1, 0.0).x, x0.x)

    def test_shape_mismatch(self):
        with pytest.raises(TuningError):
            superpose(Allocation([[1.0]]), Allocation([[1.0, 2.0]]), 0.5)


class TestClosedForm:
    def test_pessimistic_parameterization(self):
        out = closed_form_single_location(0.0, 160.0, 0.0, 40.0, 0.0, 3.0)
        assert out["x_bio0"] == pytest.approx(3.0)
        assert out["z_bio0"] == pytest.approx(-120.0)
        assert out["x_bio1"] == pytest.approx(0.0)
        assert out["z_bio1"] == pytest.approx(0.0)

    def test_degenerate_interval(self):
        out = closed_form_single_location(50.0, 30.0, 5.0, 20.0, 2.0, 2.0)
        assert out["x_bio0"] == pytest.approx(2.0)

    def test_optimistic_parameterization(self):
        out = closed_form_single_location(160.0, 0.0, 0.0, 40.0, 1.0, 3.0)
        assert out["x_bio0"] == pytest.approx(1.0)
        assert out["z_bio0"] == pytest.approx(120.0)
        assert out["x_bio1"] == pytest.approx(3.0)
        assert out["z_bio1"] == pytest.approx(360.0)

    def test_negative_margin_orders_demand_floor(self):
        # with p < c, every unit below d_min still sells; ordering the floor
        # beats ordering zero (zero eats the full penalty b * d_min)
        out = closed_form_single_location(10.0, 100.0, 0.0, 40.0, 2.0, 5.0)
        assert out["x_bio1"] == pytest.approx(2.0)
        assert out["z_bio1"] == pytest.approx(-60.0)
        # brute force over x and the best demand in [2, 5]
        def best_case_value(x):
            return max((10.0 - 40.0) * d - (10.0 + 100.0 - 40.0) * max(d - x, 0)
                       - 40.0 * max(x - d, 0) for d in np.linspace(2, 5, 61))
        xs = np.linspace(0, 6, 121)
        assert max(best_case_value(x) for x in xs) == pytest.approx(-60.0)

    def test_brute_force_cross_check(self):
        # grid over x and integral d reproduces the closed forms
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = float(rng.integers(0, 120))
            b = float(rng.integers(0, 120))
            h = float(rng.integers(0, 10))
            c = float(rng.integers(1, 61))
            if p + b < c:
                continue
            dmin = float(rng.integers(0, 3))
            dmax = dmin + float(rng.integers(0, 4))
            out = closed_form_single_location(p, b, h, c, dmin, dmax)
            xs = np.linspace(0, dmax + 1, 400)
            def robust_obj(x):
                worst = min((p - c) * d - (p + b - c) * max(d - x, 0.0)
                            - (h + c) * max(x - d, 0.0)
                            for d in (dmin, dmax))
                return worst
            zs = [robust_obj(x) for x in xs]
            assert max(zs) <= out["z_bio0"] + 1e-6
            assert robust_obj(out["x_bio0"]) == pytest.approx(out["z_bio0"], abs=1e-9)

    def test_precondition(self):
        with pytest.raises(TuningError):
            closed_form_single_location(1.0, 1.0, 0.0, 40.0, 0.0, 3.0)
        with pytest.raises(TuningError):
            closed_form_single_location(100.0, 0.0, 0.0, 40.0, 3.0, 1.0)


class TestScoring:
    def setup_method(self):
        self.inst = example_walkin_instance(0.0, 160.0)

    def test_singleton_mean_equals_worst(self):
        alloc = Allocation([[1.0, 1.0, 1.0]])
        scen = [wscen([1, 1, 1])]
        m = score_allocation(self.inst, alloc, scen, ScoringObjective("mean"))
        w = score_allocation(self.inst, alloc, scen, ScoringObjective("worst_case"))
        assert m == w

    def test_cvar_lowest_third(self):
        assert ScoringObjective("cvar", level=1 / 3).score([-10.0, 0.0, 10.0]) == -10.0

    def test_cvar_sample_requirement(self):
        alloc = Allocation([[1.0, 1.0, 1.0]])
        with pytest.raises(TuningError, match="samples"):
            score_allocation(self.inst, alloc, [wscen([1, 1, 1])],
                             ScoringObjective("cvar", level=0.25))

    def test_mixture(self):
        obj = ScoringObjective("mixture", components=[
            (0.5, ScoringObjective("mean")), (0.5, ScoringObjective("worst_case"))])
        assert obj.score([0.0, 2.0]) == pytest.approx(0.5 * 1.0 + 0.5 * 0.0)

    def test_ordering_worst_mean_best(self):
        uset = example_walkin_uncertainty()
        scen = sample_scenarios(None, 60, seed=3, family="uniform", uset=uset)
        alloc = Allocation([[2.0, 2.0, 2.0]])
        w = score_allocation(self.inst, alloc, scen, ScoringObjective("worst_case"))
        m = score_allocation(self.inst, alloc, scen, ScoringObjective("mean"))
        b = score_allocation(self.inst, alloc, scen, ScoringObjective("best_case"))
        assert w <= m <= b

    def test_empty_scenarios_rejected(self):
        with pytest.raises(TuningError):
            score_allocation(self.inst, Allocation(np.zeros((1, 3))), [],
                             ScoringObjective("mean"))


class TestVerifySuperposition:
    def test_identity_at_lambda_zero(self):
        inst = example_walkin_instance(0.0, 160.0)
        uset = example_walkin_uncertainty()
        out = verify_superposition(inst, uset, 0.0, CcgOptions())
        assert out["residual"] <= 1e-9

    def test_example_columns(self):
        # exact-solver values; blends land exactly on the segment
        uset = example_walkin_uncertainty()
        for (p, b), (z0, z1) in (((0.0, 160.0), (-360.0, -40.0)),
                                 ((160.0, 0.0), (40.0, 720.0)),
                                 ((80.0, 80.0), (-160.0, 240.0))):
            inst = example_walkin_instance(p, b)
            out = verify_superposition(inst, uset, 0.5, CcgOptions())
            assert out["converged"]
            assert out["z0"] == pytest.approx(z0, abs=1e-6)
            assert out["z1"] == pytest.approx(z1, abs=1e-6)
            assert out["residual"] <= 1e-6 * (1 + abs(out["z_lambda"]))
            assert out["rescore_residual"] <= 1e-6 * (1 + abs(out["z_lambda"]))

    def test_random_omnichannel_residuals(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            inst = build_instance(
                ["A", "B"], ["Z"], 1,
                walkin_price=float(rng.integers(20, 120)),
                walkin_penalty=float(rng.integers(10, 120)),
                online_price=float(rng.integers(10, 60)),
                online_penalty=float(rng.integers(0, 40)),
                fulfill_cost=[[5.0], [6.0]],
                purchase_cost=float(rng.integers(5, 40)))
            lo = rng.integers(0, 2, size=3)
            hi = lo + rng.integers(1, 3, size=3)
            uset = UncertaintySet(
                local_lower={"b": [lo[:2].tolist()], "o": [[int(lo[2])]]},
                local_upper={"b": [hi[:2].tolist()], "o": [[int(hi[2])]]},
                budget_lower={"b": [int(lo[:2].sum())], "o": [int(lo[2])]},
                budget_upper={"b": [int(hi[:2].sum())], "o": [int(hi[2])]},
            )
            for lam in (0.25, 0.5, 0.75):
                out = verify_superposition(inst, uset, lam, CcgOptions())
                assert out["converged"], f"trial {trial}"
                assert out["residual"] <= 1e-6 * (1 + abs(out["z_lambda"])), f"trial {trial}"


class TestTuneLambda:
    def test_grid_worst_case_picks_zero(self):
        inst = example_walkin_instance(0.0, 160.0)
        uset = example_walkin_uncertainty()
        pts = [wscen(list(p)) for p in uset.enumerate_discrete_points("b", 0)]
        res = tune_lambda(inst, uset, pts, ScoringObjective("worst_case"),
                          method="grid", grid=(0.0, 1.0), validation_fraction=1.0)
        assert res.lam == 0.0

    def test_grid_best_case_picks_one(self):
        inst = example_walkin_instance(160.0, 0.0)
        uset = example_walkin_uncertainty()
        pts = [wscen(list(p)) for p in uset.enumerate_discrete_points("b", 0)]
        res = tune_lambda(inst, uset, pts, ScoringObjective("best_case"),
                          method="grid", grid=(0.0, 1.0), validation_fraction=1.0)
        assert res.lam == 1.0

    def test_grid_tie_prefers_smaller_lambda(self):
        # all-zero demand set: every lambda scores the same
        inst = example_walkin_instance(0.0, 160.0)
        uset = walkin_set([0, 0, 0], [0, 0, 0], 0, 0)
        res = tune_lambda(inst, uset, [wscen([0, 0, 0])] * 5,
                          ScoringObjective("mean"), method="grid",
                          grid=(0.05, 0.5))
        assert res.lam == 0.05

    @pytest.mark.parametrize("method", ["grid", "bisection"])
    @pytest.mark.parametrize("samples,split", [(40, "holdout"), (10, "validation")])
    def test_sample_counts_checked_before_any_solve(self, monkeypatch, method, samples, split):
        # cvar at level 0.05 needs 20 scenarios; 40 split 32/8 and 10 split 8/2
        from bioinv import tuning
        calls = []
        monkeypatch.setattr(tuning, "solve_two_stage", lambda *a, **k: calls.append(a))
        scen = sample_scenarios(example_walkin_means(), samples, seed=1)
        with pytest.raises(TuningError, match=f"{split} split holds"):
            tune_lambda(example_walkin_instance(0.0, 160.0), example_walkin_uncertainty(),
                        scen, ScoringObjective("cvar", level=0.05), method=method)
        assert calls == []

    def test_bisection_requires_zero_inventory(self):
        inst = build_instance(["A"], [], 1, walkin_price=10.0, walkin_penalty=5.0,
                              purchase_cost=3.0, pipeline=[[2.0]])
        uset = walkin_set([0], [2], 0, 2)
        with pytest.raises(TuningError, match="zero initial inventory"):
            tune_lambda(inst, uset, [wscen([1])] * 4, method="bisection")

    def test_bisection_rejected_in_integer_mode(self):
        inst = single_loc_instance(0.0, 160.0, 0.0, 40.0)
        uset = walkin_set([0], [3], 0, 3)
        with pytest.raises(TuningError, match="integer"):
            tune_lambda(inst, uset, [wscen([1])] * 4, method="bisection",
                        cfg_base=BioConfig(integer_allocations=True))

    def test_bisection_keeps_cfg_base(self):
        # both channels allied: the lam = 1 endpoint commits online sales y+,
        # as grid search's lam = 1 solve does
        inst, means = synthetic_instance(2, 0, 1, seed=1, horizon=1)
        uset = quantile_bounds_from_means(means)
        scen = sample_scenarios(means, 10, seed=1)
        cfg = BioConfig(allied_channels="both")
        grid = tune_lambda(inst, uset, scen, method="grid", grid=(1.0,), cfg_base=cfg)
        bis = tune_lambda(inst, uset, scen, method="bisection", cfg_base=cfg)
        expected = grid.reports[1.0].allocation
        assert bis.reports[1.0].allocation.y_plus is not None
        assert np.array_equal(bis.reports[1.0].allocation.y_plus, expected.y_plus)
        assert np.array_equal(bis.reports[1.0].allocation.x, expected.x)

    def test_bisection_matches_explicit_saa(self):
        # p = 0 single location: the lam segment spans [0, d_max], so the
        # segment search must reach the SAA-LP optimum exactly
        rng = np.random.default_rng(77)
        for trial in range(6):
            b = float(rng.integers(50, 200))
            c = float(rng.integers(10, int(b)))
            inst = single_loc_instance(0.0, b, 0.0, c)
            dmax = int(rng.integers(2, 6))
            uset = walkin_set([0], [dmax], 0, dmax)
            scen = sample_scenarios(None, 40, seed=trial, family="uniform", uset=uset)
            res = tune_lambda(inst, uset, scen, ScoringObjective("mean"),
                              method="bisection", validation_fraction=1.0)
            _xs, saa_val = solve_saa(inst, scen)
            assert res.validation_score == pytest.approx(
                saa_val, rel=1e-6, abs=1e-6), f"trial {trial}"

    def test_bisection_flat_maximum_resolves_to_its_smaller_end(self):
        # the validation score is -315 on all of [1/3, ~0.45]; rounding noise
        # alone once picked a point inside that range
        means = example_walkin_means()
        res = tune_lambda(example_walkin_instance(0.0, 160.0), example_walkin_uncertainty(),
                          sample_scenarios(means, 40, 1), method="bisection")
        assert res.lam == pytest.approx(1.0 / 3.0, rel=0.0, abs=1e-8)
        assert res.validation_score == pytest.approx(-315.0, rel=0.0, abs=1e-6)
        assert res.score == pytest.approx(-340.0, rel=0.0, abs=1e-6)

    def test_concavity_along_segment(self):
        inst = example_walkin_instance(0.0, 160.0)
        uset = example_walkin_uncertainty()
        scen = sample_scenarios(None, 50, seed=2, family="uniform", uset=uset)
        rep0 = solve_two_stage(inst, uset, BioConfig(lam=0.0), CcgOptions())
        rep1 = solve_two_stage(inst, uset, BioConfig(lam=1.0), CcgOptions())
        def phi(lam):
            alloc = superpose(rep0.allocation, rep1.allocation, lam)
            return score_allocation(inst, alloc, scen, ScoringObjective("mean"))
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, bb = sorted(rng.uniform(0, 1, size=2))
            mid = 0.5 * (a + bb)
            assert phi(mid) >= 0.5 * phi(a) + 0.5 * phi(bb) - 1e-7


class TestSaaOracle:
    def test_saa_sandwiched_by_bio_extremes(self):
        # with samples supported inside the set, min <= mean <= max pointwise
        # lifts to Z_bio0 <= Z_saa <= Z_bio1
        inst = example_walkin_instance(80.0, 80.0)
        uset = example_walkin_uncertainty()
        scen = sample_scenarios(None, 40, seed=21, family="uniform", uset=uset)
        _x, saa_val = solve_saa(inst, scen)
        rep0 = solve_two_stage(inst, uset, BioConfig(lam=0.0), CcgOptions())
        rep1 = solve_two_stage(inst, uset, BioConfig(lam=1.0), CcgOptions())
        assert rep0.objective - 1e-7 <= saa_val <= rep1.objective + 1e-7

    def test_saa_single_scenario_equals_fulfillment(self):
        inst = example_walkin_instance(0.0, 160.0)
        scen = wscen([1, 2, 0])
        alloc, val = solve_saa(inst, [scen])
        assert val == pytest.approx(evaluate_profit(inst, alloc, scen), abs=1e-7)

    def test_saa_behaves_like_newsvendor(self):
        # p=100, b=0, C=40 -> critical ratio 0.6; samples {0,0,3,3,3}: order 3
        inst = single_loc_instance(100.0, 0.0, 0.0, 40.0)
        scen = [wscen([0]), wscen([0]), wscen([3]), wscen([3]), wscen([3])]
        alloc, _ = solve_saa(inst, scen)
        assert alloc.x[0, 0] == pytest.approx(3.0)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _data_means(name, periods=None):
    with open(os.path.join(DATA, name)) as fh:
        doc = json.load(fh)
    return DemandMeans(walkin=doc["walkin"][:periods], online=doc["online"][:periods])


def test_scenario_batch_profits_are_pinned():
    # the benchmark's evaluate batch: the reference week-0 plan (its first
    # two periods), 150 Poisson scenarios, a base allocation and its double.
    # The digests were taken before the dual simplex's bookkeeping was
    # rewritten, which must leave every profit bit for bit as it was; they
    # hold for one numpy and BLAS build, whose rounding another may not share
    inst = load_instance(os.path.join(DATA, "reference_sim_instance.json"))
    means = _data_means("reference_sim_means.json", 2)
    scenarios = sample_scenarios(means, 150, seed=7)
    base = np.ceil(means.walkin)
    base[:, 5:] = np.ceil(means.online.sum(axis=1) / 2.0)[:, None]  # the DCs
    assert [_digest(evaluate_profits(inst, Allocation(x=x), scenarios).tobytes())
            for x in (base, 2.0 * base)] == ["53799ca22d59a351", "dd1392b578b56b71"]


def test_bisection_tune_is_pinned():
    # lambda, scores, curve and allocation of a bisection tune on the walk-in
    # fixture over 40 Poisson scenarios, pinned as above
    inst = load_instance(os.path.join(DATA, "example_walkin_p0_b160.json"))
    means = _data_means("example_walkin_means.json")
    res = tune_lambda(inst, quantile_bounds_from_means(means),
                      sample_scenarios(means, 40, seed=7), method="bisection")
    assert _digest(res.lam, res.score, res.validation_score, res.curve,
                   res.allocation.x.tobytes()) == "8ecf89ca6c7c4ddb"
