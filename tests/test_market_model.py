"""Unit tests for the pure economic functions and domain types."""

import math

import numpy as np
import pytest

from mec_bazaar.errors import (
    DegenerateMarketError,
    DimensionError,
    DomainError,
)
from mec_bazaar.market_model import (
    SolverConfig,
    compute_agent_economics,
    compute_market_state,
    es_cost,
    es_profit,
    te_payoff,
    te_payout,
    te_utility,
)
from mec_bazaar.scenario_io import GenerationParams, generate_scenario


def one_slot_state(lam, load):
    """Market state of a single slot whose whole ``load`` is one customer's."""
    return compute_market_state(np.array([[load]]), np.zeros((1, 1)),
                                np.asarray(lam, dtype=float)[:, None])


class TestAggregateLoad:
    def test_zero_case(self):
        state = compute_market_state(np.zeros((2, 1)), np.zeros((2, 1)),
                                     np.ones((2, 1)))
        assert state.load[0] == 0.0

    def test_direct_sum(self):
        chi = np.array([[1.0], [2.0]])
        base = np.array([[3.0], [4.0]])
        assert compute_market_state(chi, base, np.ones((2, 1))).load[0] == 10.0

    def test_matches_second_summation_order(self):
        s = generate_scenario(GenerationParams(seed=1))
        bids = np.ones((s.num_es, s.num_slots))
        got = compute_market_state(s.initial_demand, s.base_demand,
                                   bids).load[5]
        # independent recomputation: fsum over the column in reverse order
        col = [float(s.initial_demand[i, 5] + s.base_demand[i, 5])
               for i in range(s.num_te)]
        expected = math.fsum(reversed(col))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            compute_market_state(np.zeros((2, 3)), np.zeros((2, 4)),
                                 np.ones((2, 3)))
        with pytest.raises(DimensionError):
            compute_market_state(np.zeros((2, 3)), np.zeros((2, 3)),
                                 np.ones((2, 4)))


class TestClearingPriceAffine:
    def test_direct_substitution(self):
        assert one_slot_state([2.0, 3.0, 5.0], 20.0).price[0] == 2.0

    def test_zero_load(self):
        assert one_slot_state([1.0], 0.0).price[0] == 0.0

    def test_degenerate(self):
        bids = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(DegenerateMarketError) as err:
            compute_market_state(np.ones((1, 2)), np.zeros((1, 2)), bids)
        assert err.value.slot == 1


class TestSupplyShare:
    def test_proportional(self):
        assert one_slot_state([2.0, 3.0, 5.0], 20.0).supply[2, 0] == 10.0

    def test_symmetry(self):
        for m in (2, 3, 7):
            supply = one_slot_state(np.full(m, 4.2), 21.0).supply[:, 0]
            np.testing.assert_allclose(supply, 21.0 / m)

    def test_shares_sum_to_load(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            lam = rng.uniform(0.01, 5.0, size=rng.integers(2, 9))
            load = rng.uniform(0.0, 100.0)
            total = one_slot_state(lam, load).supply.sum()
            assert total == pytest.approx(load, rel=1e-9, abs=1e-12)

    def test_degenerate(self):
        # a zero bid wins nothing; only an all-zero column is degenerate
        assert one_slot_state([0.0, 3.0], 6.0).supply[0, 0] == 0.0
        with pytest.raises(DegenerateMarketError):
            one_slot_state(np.zeros(3), 5.0)


class TestEsCost:
    def test_hand_values(self):
        assert es_cost((0.01, 0.001, 0.001), 10.0) == pytest.approx(1.011)

    def test_constant_term(self):
        assert es_cost((0.3, 0.2, 0.7), 0.0) == 0.7

    def test_negative_load_rejected(self):
        with pytest.raises(DomainError):
            es_cost((0.1, 0.1, 0.1), -1.0)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            coeffs = (rng.uniform(1e-6, 1.0), rng.uniform(0, 1), rng.uniform(0, 1))
            f1, f2 = rng.uniform(0, 100, size=2)
            mid = es_cost(coeffs, 0.5 * (f1 + f2))
            assert mid <= 0.5 * (es_cost(coeffs, f1) + es_cost(coeffs, f2)) + 1e-12


class TestEsProfit:
    def test_hand_value(self):
        lam = np.array([2.0, 3.0, 5.0])
        assert es_profit(lam, 2, 20.0, (0.01, 0.001, 0.001)) == \
            pytest.approx(18.989)

    def test_zero_bid_pays_fixed_cost(self):
        lam = np.array([0.0, 3.0])
        assert es_profit(lam, 0, 12.0, (0.5, 0.5, 0.25)) == pytest.approx(-0.25)

    def test_two_path_agreement(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = rng.integers(2, 8)
            lam = rng.uniform(0.01, 10.0, size=m)
            load = rng.uniform(0.1, 50.0)
            coeffs = (rng.uniform(1e-4, 0.1), rng.uniform(0, 0.1), rng.uniform(0, 0.1))
            j = int(rng.integers(m))
            direct = es_profit(lam, j, load, coeffs)
            composed = compute_agent_economics(
                np.array([[load]]), np.zeros((1, 1)), lam[:, None],
                np.tile(coeffs, (m, 1)), np.ones((1, 1)),
                np.ones((1, 1))).es_profit[j, 0]
            assert direct == pytest.approx(composed, rel=1e-12, abs=1e-15)


class TestTeUtility:
    def test_saturation_point(self):
        assert te_utility(1.0, 0.5, 2.0) == pytest.approx(1.0)

    def test_saturated_branch(self):
        assert te_utility(1.0, 0.5, 3.0) == pytest.approx(1.0)

    def test_quadratic_branch(self):
        assert te_utility(1.0, 0.5, 1.0) == pytest.approx(0.75)

    def test_continuity_at_kink(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w = rng.uniform(0.1, 5.0)
            alpha = rng.uniform(0.05, 2.0)
            kink = w / alpha
            below = te_utility(w, alpha, kink * (1 - 1e-12))
            above = te_utility(w, alpha, kink * (1 + 1e-12))
            assert below == pytest.approx(w * w / (2 * alpha), rel=1e-9)
            assert above == pytest.approx(w * w / (2 * alpha), rel=1e-9)

    def test_nondecreasing(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            w = rng.uniform(0.1, 5.0)
            alpha = rng.uniform(0.05, 2.0)
            x1, x2 = np.sort(rng.uniform(0, 4 * w / alpha, size=2))
            assert te_utility(w, alpha, x1) <= te_utility(w, alpha, x2) + 1e-12

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            te_utility(1.0, 0.5, -0.1)


class TestTePayoutPayoff:
    def test_product(self):
        assert te_payout(1.0, 1.0, 2.0) == 4.0

    def test_zero_price_payoff_is_total_utility(self):
        chi = np.array([1.0, 2.0, 0.5])
        r = np.array([0.2, 0.1, 0.3])
        w = np.full(3, 1.0)
        alpha = np.full(3, 0.5)
        payoff = te_payoff(chi, r, np.zeros(3), w, alpha)
        expected = sum(te_utility(1.0, 0.5, x) for x in chi + r)
        assert payoff == pytest.approx(expected)

    def test_slot_by_slot_recomputation(self):
        rng = np.random.default_rng(12)
        t = 6
        chi = rng.uniform(0, 3, size=t)
        r = rng.uniform(0, 3, size=t)
        prices = rng.uniform(0, 2, size=t)
        w = rng.uniform(0.5, 2, size=t)
        alpha = rng.uniform(0.2, 1, size=t)
        got = te_payoff(chi, r, prices, w, alpha)
        expected = 0.0
        for k in range(t):
            x = chi[k] + r[k]
            cap = w[k] / alpha[k]
            util = (w[k] * x - alpha[k] / 2 * x * x if x <= cap
                    else w[k] ** 2 / (2 * alpha[k]))
            expected += util - x * prices[k]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            te_payout(-1.0, 0.0, 1.0)


class TestInvariants:
    def test_price_homogeneity(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            lam = rng.uniform(0.1, 5.0, size=5)
            load = rng.uniform(0.1, 40.0)
            c = rng.uniform(0.1, 10.0)
            st1 = one_slot_state(lam, load)
            st2 = one_slot_state(c * lam, load)
            assert st2.price[0] == pytest.approx(st1.price[0] / c, rel=1e-12)
            np.testing.assert_allclose(st1.supply, st2.supply, rtol=1e-12)

    def test_economics_identities(self):
        s = generate_scenario(GenerationParams(
            num_te=20, num_es=4, num_slots=6, seed=5))
        rng = np.random.default_rng(6)
        bids = rng.uniform(100.0, 300.0, size=(4, 6))
        state = compute_market_state(s.initial_demand, s.base_demand, bids)
        econ = compute_agent_economics(s.initial_demand, s.base_demand, bids,
                                       s.cost_coeffs, s.utility_w,
                                       s.utility_alpha, state)
        # profit = revenue - cost entrywise
        cost = (s.cost_coeffs[:, 0][:, None] * state.supply ** 2
                + s.cost_coeffs[:, 1][:, None] * state.supply
                + s.cost_coeffs[:, 2][:, None])
        np.testing.assert_allclose(econ.es_profit, econ.es_revenue - cost,
                                   rtol=1e-12)
        # payoff = total utility - total payout per customer
        x = s.initial_demand + s.base_demand
        util = te_utility(s.utility_w, s.utility_alpha, x).sum(axis=1)
        np.testing.assert_allclose(econ.te_payoff,
                                   util - econ.te_payout.sum(axis=1),
                                   rtol=1e-12)
        # market clears: shares sum to the load
        np.testing.assert_allclose(state.supply.sum(axis=0), state.load,
                                   rtol=1e-9)


class TestScenarioValidation:
    def base(self):
        return generate_scenario(GenerationParams(
            num_te=5, num_es=3, num_slots=4, seed=1))

    def test_valid(self):
        self.base().validate()

    def test_bad_counts(self):
        s = self.base()
        s.num_es = 1
        with pytest.raises(DomainError):
            s.validate()

    def test_negative_a2(self):
        s = self.base()
        s.cost_coeffs[0, 0] = -1.0
        with pytest.raises(DomainError):
            s.validate()

    def test_non_finite_values(self):
        # NaN passes every sign check, so finiteness is checked on its own
        for name, value in (("base_demand", math.nan),
                            ("utility_w", math.inf),
                            ("cost_coeffs", -math.inf)):
            s = self.base()
            getattr(s, name)[0, 0] = value
            with pytest.raises(DomainError, match=name):
                s.validate()

    def test_row_sum_mismatch(self):
        s = self.base()
        s.initial_demand[0, 0] += 1.0
        with pytest.raises(DomainError):
            s.validate()

    def test_solver_config_bounds(self):
        with pytest.raises(DomainError):
            SolverConfig(epsilon=0.0).validate()
        with pytest.raises(DomainError):
            SolverConfig(eta1_decay=1.5).validate()
        SolverConfig().validate()

    def test_solver_config_refuses_integer_too_large_for_float(self):
        with pytest.raises(DomainError, match="solver.epsilon"):
            SolverConfig(epsilon=10 ** 400).validate()
