from dataclasses import asdict

import numpy as np
import pytest

from bioinv.formulations import (
    Allocation,
    critical_ratios,
    infer_warehouses,
    pipeline_arrival,
    pwl_allocation,
)
from bioinv.instance import build_instance
from bioinv.reference import (
    MONTE_CARLO_SEED,
    example_walkin_instance,
    example_walkin_means,
    reference_sim_setup,
)
from bioinv.simulate import (
    PWL_DISCOUNT,
    PolicySpec,
    SimulationError,
    batch_evaluate,
    fulfill_order_stream,
    kpi_table,
    lower_quantile,
    run_rolling_horizon,
    spread_down,
    whole_units,
)
from bioinv.uncertainty import (
    CHANNELS,
    DemandMeans,
    DemandScenario,
    poisson_quantile,
    sample_scenarios,
)


def wscen(walkin):
    return DemandScenario(np.atleast_2d(np.asarray(walkin, dtype=float)),
                          np.zeros((1, 0)))


class TestBatchEvaluate:
    def test_single_scenario_all_stats_equal(self):
        inst = example_walkin_instance(0.0, 160.0)
        out = batch_evaluate(inst, Allocation([[3.0, 3.0, 3.0]]), [wscen([1, 1, 1])])
        assert out["min"] == out["median"] == out["mean"] == out["max"]

    def test_example_median_and_max(self):
        # pure RO allocation never beats -360 and attains it on most samples
        inst = example_walkin_instance(0.0, 160.0)
        scen = sample_scenarios(example_walkin_means(), 2000, seed=MONTE_CARLO_SEED)
        out = batch_evaluate(inst, Allocation([[3.0, 3.0, 3.0]]), scen)
        assert out["median"] == pytest.approx(-360.0)
        assert out["max"] == pytest.approx(-360.0)
        assert out["mean"] == pytest.approx(-372.32, rel=0.02)

    def test_empty_scenarios_rejected(self):
        inst = example_walkin_instance(0.0, 160.0)
        with pytest.raises(SimulationError):
            batch_evaluate(inst, Allocation(np.zeros((1, 3))), [])

    def test_lower_quantile_convention(self):
        vals = np.array(sorted([5.0, 1.0, 3.0, 2.0, 4.0]))
        assert lower_quantile(vals, 0.05) == 1.0
        assert lower_quantile(vals, 0.5) == 3.0
        assert lower_quantile(vals, 1.0) == 5.0


class TestSpreadDown:
    def test_zero_demand_no_orders(self):
        days = spread_down([0, 0], 7, np.random.default_rng(1))
        assert all(not lst for lst in days)

    def test_conservation(self):
        for online in (False, True):
            days = spread_down([7, 3], 7, np.random.default_rng(5), online=online)
            assert sum(len(lst) for lst in days) == 10
            by_loc = {0: 0, 1: 0}
            for lst in days:
                for _rank, flag, loc in lst:
                    assert flag is online
                    by_loc[loc] += 1
            assert by_loc == {0: 7, 1: 3}

    def test_determinism(self):
        a = spread_down([5, 2], 7, np.random.default_rng(9))
        b = spread_down([5, 2], 7, np.random.default_rng(9))
        assert a == b

    def test_stream_is_one_multinomial_then_one_rank_per_unit(self):
        # the seeded ledgers depend on this draw order: per location, the
        # day counts, then each unit's rank in day order
        got = spread_down([4, 0, 6], 3, np.random.default_rng(2), online=True)
        rng = np.random.default_rng(2)
        want = [[], [], []]
        for loc, units in ((0, 4), (2, 6)):
            for day, cnt in enumerate(rng.multinomial(units, np.full(3, 1 / 3))):
                want[day] += [(float(rng.random()), True, loc) for _ in range(cnt)]
        assert got == want

    def test_multinomial_concentration(self):
        n, days = 70000, 7
        out = spread_down([n], days, np.random.default_rng(3))
        counts = np.array([len(lst) for lst in out])
        expect = n / days
        sigma = np.sqrt(n * (1 / days) * (1 - 1 / days))
        assert np.all(np.abs(counts - expect) < 5 * sigma)

    def test_days_must_be_positive(self):
        with pytest.raises(SimulationError):
            spread_down([1], 0, np.random.default_rng(0))


class TestFulfillOrderStream:
    # orders are (rank, online, location); results (online, location, node, cost)
    def test_walkin_priority_then_ecom_lost(self):
        on_hand = np.array([1.0])
        served = fulfill_order_stream([(0.1, False, 0), (0.9, True, 0)], on_hand,
                                      [0.0], {0: [(5.0, 0)]})
        assert served == [(False, 0, 0, 0.0), (True, 0, None, None)]
        assert on_hand[0] == 0.0

    def test_walkin_ignores_reserve(self):
        on_hand = np.array([1.0])
        served = fulfill_order_stream([(0.5, False, 0)], on_hand, [5.0], {})
        assert served == [(False, 0, 0, 0.0)]

    def test_cheapest_node_within_tier(self):
        served = fulfill_order_stream([(0.5, True, 0)], np.array([3.0, 3.0]), [0.0, 0.0],
                                      {0: [(5.0, 0), (7.0, 1)]})
        assert served == [(True, 0, 0, 5.0)]

    def test_tier_precedence_over_cost(self):
        # node A cheap but below reserve, node B above reserve: ship from B
        on_hand = np.array([2.0, 2.0])
        served = fulfill_order_stream([(0.5, True, 0)], on_hand, [5.0, 0.0],
                                      {0: [(5.0, 0), (7.0, 1)]})
        assert served == [(True, 0, 1, 7.0)]
        assert on_hand.tolist() == [2.0, 1.0]

    def test_tier_two_ships_when_tier_one_empty(self):
        served = fulfill_order_stream([(0.5, True, 0)], np.array([2.0]), [5.0],
                                      {0: [(5.0, 0)]})
        assert served == [(True, 0, 0, 5.0)]

    def test_no_ship_from_empty_node(self):
        on_hand = np.array([0.0])
        served = fulfill_order_stream([(0.5, True, 0), (0.6, False, 0)], on_hand,
                                      [0.0], {0: [(5.0, 0)]})
        assert served == [(True, 0, None, None), (False, 0, None, None)]
        assert on_hand[0] == 0.0

    def test_orders_processed_in_rank_order(self):
        # listed walk-in first, but the e-com order arrived first and took the unit
        served = fulfill_order_stream([(0.8, False, 0), (0.2, True, 0)], np.array([1.0]),
                                      [0.0], {0: [(5.0, 0)]})
        assert served == [(True, 0, 0, 5.0), (False, 0, None, None)]


def test_whole_units_round_halves_up_within_tolerance():
    # LP round-off leaves plans a few ULPs below a half; they round with it
    got = whole_units(np.array([5.499999999999999, 5.5, 3.4999999999999822, 2.4999, 0.0]))
    assert got.tolist() == [6.0, 6.0, 4.0, 2.0, 0.0]
    assert whole_units(np.array([-0.7, 7.0, 1e-10])).tolist() == [0.0, 7.0, 0.0]


class TestRollingHorizon:
    def setup_method(self):
        self.inst, self.means = reference_sim_setup()

    def test_zero_demand_zero_everything(self):
        means = DemandMeans(np.zeros((3, self.inst.num_nodes)),
                            np.zeros((3, self.inst.num_zones)))
        for kind in ("basestock", "pwl", "bio"):
            agg, reps = run_rolling_horizon(self.inst, PolicySpec(kind), means,
                                            weeks=3, replications=2, seed=1)
            assert agg["total_sales_qty"][0] == 0.0
            assert agg["replenish_qty"][0] == 0.0
            assert agg["realized_profit"][0] == 0.0
            assert agg["walkin_service_level"][0] == 1.0

    def test_replication_determinism(self):
        pol = PolicySpec("basestock")
        a, ra = run_rolling_horizon(self.inst, pol, self.means, 3, 3, seed=77)
        b, rb = run_rolling_horizon(self.inst, pol, self.means, 3, 3, seed=77)
        for x, y in zip(ra, rb):
            assert asdict(x) == asdict(y)

    def test_accounting_identity_and_conservation(self):
        pol = PolicySpec("bio", lam=0.10)
        agg, reps = run_rolling_horizon(self.inst, pol, self.means, 3, 4, seed=5)
        e = self.inst.econ
        for r in reps:
            assert r.realized_profit == pytest.approx(
                r.satisfied_revenue - r.shipping_cost - r.purchase_cost, abs=1e-9)
            assert r.penalized_profit <= r.realized_profit + 1e-9
            assert 0.0 <= r.walkin_service_level <= 1.0
            assert 0.0 <= r.total_service_level <= 1.0
            # conservation: everything bought or initially held is sold,
            # still on hand (valued at cost), or in transit
            assert r.total_sales_qty <= r.replenish_qty + sum(
                sum(row) for row in self.inst.inventory.pipeline) + 1e-9

    def test_perfect_service_with_deterministic_cover(self):
        # zero-variance demand of 0 everywhere except ample initial stock
        inst, _ = reference_sim_setup()
        means = DemandMeans(np.zeros((2, inst.num_nodes)), np.zeros((2, inst.num_zones)))
        agg, _ = run_rolling_horizon(inst, PolicySpec("basestock"), means, 2, 2, seed=3)
        assert agg["walkin_service_level"][0] == 1.0

    def test_service_level_one_when_stock_always_suffices(self):
        from bioinv.instance import build_instance
        inst = build_instance(
            ["A", "B"], [], 2, walkin_price=100.0, walkin_penalty=10.0,
            purchase_cost=40.0, lead_time=0, pipeline=[[500.0], [500.0]])
        means = DemandMeans(np.full((3, 2), 2.0), np.zeros((3, 0)))
        agg, reps = run_rolling_horizon(inst, PolicySpec("basestock"), means,
                                        weeks=3, replications=3, seed=8)
        assert agg["walkin_service_level"][0] == 1.0
        assert agg["total_sales_qty"][0] > 0

    def test_initial_pipeline_arrives_on_schedule(self):
        # lead times 1/2/2 and no demand: each week starts from the previous
        # week's end plus the initial pipeline's units due that week
        # (pipeline[l][j] becomes sellable in week j - 1)
        pipeline = [[3.0, 4.0], [1.0, 2.0, 5.0], [0.0, 6.0, 7.0]]
        inst = build_instance(["S1", "S2", "S3"], [], 2, walkin_price=10.0,
                              walkin_penalty=1.0, purchase_cost=4.0,
                              lead_time=[1, 2, 2], pipeline=pipeline)
        means = DemandMeans(np.zeros((3, 3)), np.zeros((3, 0)))
        _, (rep,) = run_rolling_horizon(inst, PolicySpec("basestock"), means, weeks=3,
                                        replications=1, seed=0, keep_trace=True)
        end = np.array([row[0] for row in pipeline])
        for week in range(3):
            due = np.array([row[week + 1] if week + 1 < len(row) else 0.0
                            for row in pipeline])
            first, last = rep.trace[7 * week], rep.trace[7 * week + 6]
            assert (first["week"], first["day"], last["day"]) == (week, 0, 6)
            assert np.array_equal(first["start"], end + due)
            end = last["end"]
        assert rep.replenish_qty == 0.0
        assert rep.excess_inventory_at_cost == 4.0 * sum(map(sum, pipeline))

    def test_lead_time_zero_order_is_on_hand_the_same_week(self, monkeypatch):
        import bioinv.simulate as sim
        inst = build_instance(["S1", "S2"], [], 2, walkin_price=10.0,
                              walkin_penalty=1.0, purchase_cost=4.0, lead_time=0)
        order = np.array([[3.0, 5.0], [0.0, 0.0]])
        monkeypatch.setattr(sim, "_solve_policy", lambda *args: Allocation(order))
        means = DemandMeans(np.zeros((2, 2)), np.zeros((2, 0)))
        _, (rep,) = run_rolling_horizon(inst, PolicySpec("basestock"), means, weeks=2,
                                        replications=1, seed=0, keep_trace=True)
        # each week's order is on hand from day 0 of that week
        assert np.array_equal(rep.trace[0]["start"], [3.0, 5.0])
        assert np.array_equal(rep.trace[7]["start"], [6.0, 10.0])
        assert rep.replenish_qty == 16.0
        assert rep.purchase_cost == 64.0

    def test_plan_pipeline_is_sellable_when_it_arrives(self, monkeypatch):
        import bioinv.simulate as sim
        inst = build_instance(["S1", "S2", "S3"], [], 4, walkin_price=10.0,
                              walkin_penalty=1.0, purchase_cost=4.0, lead_time=[1, 2, 3])
        plans = []

        def recorder(plan_inst, policy, means):
            plans.append(plan_inst)
            return Allocation(np.zeros((4, 3)) if len(plans) > 1
                              else np.array([[2.0, 5.0, 7.0]] + [[0.0] * 3] * 3))

        monkeypatch.setattr(sim, "_solve_policy", recorder)
        means = DemandMeans(np.zeros((4, 3)), np.zeros((4, 0)))
        _, (rep,) = run_rolling_horizon(inst, PolicySpec("basestock"), means, weeks=4,
                                        replications=1, seed=0, keep_trace=True)
        # week 0 orders reach S1, S2 and S3 at the start of weeks 1, 2 and 3
        assert [rep.trace[7 * w]["start"].tolist() for w in range(4)] == [
            [0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.0, 5.0, 0.0], [2.0, 5.0, 7.0]]
        # the week-1 plan sees S1's units on hand and the rest arrive in its
        # periods 1 (S2, due in week 2) and 2 (S3, due in week 3)
        week1 = plans[1]
        assert week1.inventory.pipeline == ((2.0, 0.0), (0.0, 0.0, 5.0), (0.0, 0.0, 0.0, 7.0))
        assert [pipeline_arrival(week1, t, 1) for t in range(3)] == [0.0, 5.0, 0.0]
        assert [pipeline_arrival(week1, t, 2) for t in range(3)] == [0.0, 0.0, 7.0]

    def test_pwl_orders_at_positive_demand(self):
        import bioinv.simulate as sim
        inst = self.inst
        T = inst.horizon
        weeks = int(inst.inventory.lead_time.max()) + 1
        plan_means = DemandMeans(self.means.walkin[:T], self.means.online[:T])
        wh = infer_warehouses(inst, plan_means)
        quant = sim._critical_quantile_demand(inst, plan_means, wh)
        cr_w, cr_o = critical_ratios(inst, wh)
        levels = {"b": cr_w, "o": [cr_o] * inst.num_zones}
        for ch in CHANNELS:
            for (t, i), mean in np.ndenumerate(plan_means.channel(ch)):
                level = levels[ch][i]
                want = (max(mean, float(poisson_quantile(level, mean)))
                        if level > 0 and mean > 0 else mean)
                assert quant.channel(ch)[t, i] == want
        assert (quant.walkin > plan_means.walkin).any()
        # only week 0 can order something that arrives within the run
        expected = whole_units(pwl_allocation(inst, plan_means, quant, PWL_DISCOUNT).x[0])
        assert expected.sum() > 0
        means = DemandMeans(self.means.walkin[:weeks], self.means.online[:weeks])
        _, reps = run_rolling_horizon(inst, PolicySpec("pwl"), means, weeks=weeks,
                                      replications=2, seed=1)
        for r in reps:
            assert r.replenish_qty == expected.sum()
            assert r.purchase_cost == pytest.approx(float(expected @ inst.econ.purchase_cost))
            assert r.solver_failures == 0

    def test_plan_horizon_must_exceed_lead_times(self):
        # a plan of T weeks cannot place an order that arrives after T - 1,
        # so pwl and bio would silently order nothing at node D1
        inst = build_instance(["S1", "D1"], ["Z1"], 2, walkin_price=10.0,
                              walkin_penalty=1.0, online_price=10.0, online_penalty=1.0,
                              fulfill_cost=1.0, purchase_cost=4.0, lead_time=[1, 2])
        means = DemandMeans(np.ones((3, 2)), np.ones((3, 1)))
        for kind in ("pwl", "bio"):
            with pytest.raises(SimulationError,
                               match=r"node D1 has lead time 2.* plans 2 weeks ahead"):
                run_rolling_horizon(inst, PolicySpec(kind), means, weeks=3,
                                    replications=1, seed=0)
        agg, _ = run_rolling_horizon(inst, PolicySpec("basestock"), means, weeks=3,
                                     replications=1, seed=0)
        assert agg["replenish_qty"][0] > 0

    def test_weeks_must_cover_lead_time(self):
        with pytest.raises(SimulationError):
            run_rolling_horizon(self.inst, PolicySpec("basestock"), self.means,
                                weeks=1, replications=1, seed=0)

    def test_kpi_table_format(self):
        pol = PolicySpec("basestock")
        res = run_rolling_horizon(self.inst, pol, self.means, 3, 2, seed=4)
        text = kpi_table({"basestock": res})
        lines = text.strip().splitlines()
        assert lines[0].startswith("policy,replication,replenish_qty")
        assert len(lines) == 1 + 2 + 1  # header, two reps, aggregate
        assert lines[-1].split(",")[1] == "aggregate"

    def test_policy_solves_are_memoized(self, monkeypatch):
        import bioinv.simulate as sim
        calls = []
        real_solve = sim._solve_policy
        monkeypatch.setattr(sim, "_solve_policy",
                            lambda *args: calls.append(args) or real_solve(*args))
        pol = PolicySpec("basestock")
        _, cached = run_rolling_horizon(self.inst, pol, self.means, 3, 5, seed=7)
        # weeks 0 and 1 plan on the same state in every replication (nothing
        # on hand to sell in week 0); week 2 orders nothing that can arrive
        assert len(calls) == 2
        # uncached reference: each replication run alone on its own random
        # stream, so no plan is shared between replications
        real_rng = np.random.default_rng
        uncached = []
        for i in range(5):
            monkeypatch.setattr(np.random, "default_rng",
                                lambda seed, i=i: real_rng([seed[0], i]))
            uncached += run_rolling_horizon(self.inst, pol, self.means, 3, 1, seed=7)[1]
        monkeypatch.setattr(np.random, "default_rng", real_rng)
        assert len(calls) == 2 + 5 * 2
        assert [asdict(r) for r in cached] == [asdict(r) for r in uncached]

    def test_policy_failures_count_and_bugs_propagate(self, monkeypatch):
        import bioinv.simulate as sim
        from bioinv.solver import SolverError

        def fail(*args):
            raise SolverError("simplex iteration safety cap reached")

        def bug(*args):
            raise KeyError("walkin")

        pol = PolicySpec("basestock")
        monkeypatch.setattr(sim, "_solve_policy", fail)
        _, reps = run_rolling_horizon(self.inst, pol, self.means, 3, 3, seed=0)
        # failures are not cached: every planning week of every replication
        assert [r.solver_failures for r in reps] == [2, 2, 2]
        monkeypatch.setattr(sim, "_solve_policy", bug)
        with pytest.raises(KeyError):
            run_rolling_horizon(self.inst, pol, self.means, 3, 1, seed=0)

    def test_basestock_with_free_store_never_fails(self):
        inst = build_instance(["S1", "D1"], ["Z1"], 2, walkin_price=100.0,
                              walkin_penalty=100.0, online_price=100.0,
                              online_penalty=100.0, fulfill_cost=[[9.0], [3.0]],
                              purchase_cost=[0.0, 30.0], lead_time=1)
        means = DemandMeans([[2.0, 0.0]] * 3, [[1.5]] * 3)
        agg, _ = run_rolling_horizon(inst, PolicySpec("basestock"), means, weeks=3,
                                     replications=2, seed=0)
        assert agg["solver_failures"] == (0.0, 0.0)
        assert agg["replenish_qty"][0] > 0


class TestNoNegativeInventory:
    def test_on_hand_never_negative(self):
        inst, means = reference_sim_setup()
        # run with instrumented day states via a small replication count
        agg, reps = run_rolling_horizon(inst, PolicySpec("bio", lam=0.25),
                                        means, 3, 3, seed=11)
        # sales never exceed supply: implied by nonnegative on-hand rule
        for r in reps:
            assert r.total_sales_qty >= 0
            assert r.excess_inventory_at_cost >= -1e-9
