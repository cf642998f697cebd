"""Unit tests for the pure economic functions and domain types."""

import math

import numpy as np
import pytest

from mec_bazaar.errors import (
    DegenerateMarketError,
    DimensionError,
    DomainError,
    NoClearingPriceError,
)
from mec_bazaar.market_model import (
    PiecewiseBid,
    Scenario,
    SolverConfig,
    aggregate_load,
    clearing_price_affine,
    clearing_price_piecewise,
    compute_agent_economics,
    compute_market_state,
    es_cost,
    es_cost_prime,
    es_profit,
    supply_allocation,
    supply_share,
    te_payoff,
    te_payout,
    te_utility,
)
from mec_bazaar.scenario_io import GenerationParams, generate_scenario


class TestAggregateLoad:
    def test_zero_case(self):
        chi = np.zeros((2, 1))
        base = np.zeros((2, 1))
        assert aggregate_load(chi, base, 0) == 0.0

    def test_direct_sum(self):
        chi = np.array([[1.0], [2.0]])
        base = np.array([[3.0], [4.0]])
        assert aggregate_load(chi, base, 0) == 10.0

    def test_matches_second_summation_order(self):
        s = generate_scenario(GenerationParams(seed=1))
        got = aggregate_load(s.initial_demand, s.base_demand, 5)
        # independent recomputation: fsum over the column in reverse order
        col = [float(s.initial_demand[i, 5] + s.base_demand[i, 5])
               for i in range(s.num_te)]
        expected = math.fsum(reversed(col))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            aggregate_load(np.zeros((2, 3)), np.zeros((2, 4)), 0)
        with pytest.raises(DimensionError):
            aggregate_load(np.zeros((2, 3)), np.zeros((2, 3)), 3)


class TestClearingPriceAffine:
    def test_direct_substitution(self):
        assert clearing_price_affine(np.array([2.0, 3.0, 5.0]), 20.0) == 2.0

    def test_zero_load(self):
        assert clearing_price_affine(np.array([1.0]), 0.0) == 0.0

    def test_degenerate(self):
        with pytest.raises(DegenerateMarketError):
            clearing_price_affine(np.array([0.0, 0.0]), 5.0)


class TestClearingPricePiecewise:
    def bid(self):
        return PiecewiseBid(breakpoints=np.array([1.0]),
                            slopes=np.array([[2.0, 3.0]]))

    def test_segment_one(self):
        # hand evaluation: p = 1.5 / 2 inside [0, 1]
        assert clearing_price_piecewise(self.bid(), 1.5) == pytest.approx(0.75)

    def test_segment_two(self):
        # hand evaluation: p = (6.5 - 2*1) / 3 inside (1, inf)
        assert clearing_price_piecewise(self.bid(), 6.5) == pytest.approx(1.5)

    def test_zero_load(self):
        assert clearing_price_piecewise(self.bid(), 0.0) == 0.0

    def test_discontinuity_gap(self):
        # supply jumps from 2 to 5 at the breakpoint; loads inside the jump
        # have no consistent price
        with pytest.raises(NoClearingPriceError) as err:
            clearing_price_piecewise(self.bid(), 3.0)
        assert err.value.breakpoint_price == 1.0

    def test_single_segment_matches_affine_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            lam = rng.uniform(0.1, 10.0, size=4)
            load = rng.uniform(0.0, 50.0)
            bid = PiecewiseBid(breakpoints=np.array([]),
                               slopes=lam[:, None])
            assert clearing_price_piecewise(bid, load) == \
                clearing_price_affine(lam, load)

    def test_multi_es_segments(self):
        # two suppliers, shared breakpoint at 2: hand evaluation of the
        # segment-two price (10 - 2*(1+2)) / (4+1) = 0.8 is below the
        # breakpoint, so the load sits in the jump
        bid = PiecewiseBid(breakpoints=np.array([2.0]),
                           slopes=np.array([[1.0, 4.0], [2.0, 1.0]]))
        assert clearing_price_piecewise(bid, 3.0) == pytest.approx(1.0)
        with pytest.raises(NoClearingPriceError):
            clearing_price_piecewise(bid, 10.0)
        # the second segment is open at the breakpoint, so supply 16 is
        # only reached in the limit; 16 itself still sits in the gap
        with pytest.raises(NoClearingPriceError):
            clearing_price_piecewise(bid, 16.0)
        assert clearing_price_piecewise(bid, 21.0) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            PiecewiseBid(np.array([2.0, 1.0]),
                         np.array([[1.0, 1.0, 1.0]])).validate()
        with pytest.raises(DimensionError):
            PiecewiseBid(np.array([1.0]), np.array([[1.0]])).validate()


class TestSupplyShare:
    def test_proportional(self):
        assert supply_share(np.array([2.0, 3.0, 5.0]), 2, 20.0) == 10.0

    def test_symmetry(self):
        for m in (2, 3, 7):
            lam = np.full(m, 4.2)
            for j in range(m):
                assert supply_share(lam, j, 21.0) == pytest.approx(21.0 / m)

    def test_shares_sum_to_load(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            lam = rng.uniform(0.01, 5.0, size=rng.integers(2, 9))
            load = rng.uniform(0.0, 100.0)
            total = supply_allocation(lam, load).sum()
            assert total == pytest.approx(load, rel=1e-9, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateMarketError):
            supply_share(np.zeros(3), 0, 5.0)


class TestEsCost:
    def test_hand_values(self):
        assert es_cost((0.01, 0.001, 0.001), 10.0) == pytest.approx(1.011)
        assert es_cost_prime((0.01, 0.001, 0.001), 10.0) == pytest.approx(0.201)

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
            share = supply_share(lam, j, load)
            price = clearing_price_affine(lam, load)
            composed = share * price - es_cost(coeffs, share)
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
            p1 = clearing_price_affine(lam, load)
            p2 = clearing_price_affine(c * lam, load)
            assert p2 == pytest.approx(p1 / c, rel=1e-12)
            s1 = supply_allocation(lam, load)
            s2 = supply_allocation(c * lam, load)
            np.testing.assert_allclose(s1, s2, rtol=1e-12)

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
