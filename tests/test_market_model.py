"""Unit tests for the pure economic functions and domain types."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from mec_bazaar.errors import (
    DegenerateMarketError,
    DimensionError,
    DomainError,
)
from mec_bazaar import market_model
from mec_bazaar.market_model import (
    SolverConfig,
    compute_agent_economics,
    compute_market_state,
    te_utility,
)
from mec_bazaar.scenario_io import GenerationParams, generate_scenario


def one_slot_state(lam, load):
    """Market state of a single slot whose whole ``load`` is one customer's."""
    return compute_market_state(np.array([[load]]), np.zeros((1, 1)),
                                np.asarray(lam, dtype=float)[:, None])


def supplier_economics(lam, loads, coeffs):
    """Economics of a market whose whole load in each slot is one
    customer's demand: ``lam`` holds the (M, T) bids, every supplier has
    the cost triple ``coeffs``."""
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    chi = np.atleast_2d(np.asarray(loads, dtype=float))
    ones = np.ones_like(chi)
    return compute_agent_economics(chi, np.zeros_like(chi), lam,
                                   np.tile(coeffs, (lam.shape[0], 1)),
                                   ones, ones)


def serving_cost(econ):
    """Each supplier's cost per slot, recovered as revenue minus profit."""
    return econ.es_revenue - econ.es_profit


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
        # a lone supplier serves the whole load of 10
        econ = supplier_economics([[1.0]], [10.0], (0.01, 0.001, 0.001))
        assert serving_cost(econ)[0, 0] == pytest.approx(1.011)

    def test_constant_term(self):
        # a0 shifts the profit by exactly itself, whatever the supply
        lam = [[2.0], [3.0]]
        with_a0 = supplier_economics(lam, [6.0], (0.3, 0.2, 0.7)).es_profit
        without = supplier_economics(lam, [6.0], (0.3, 0.2, 0.0)).es_profit
        np.testing.assert_allclose(without - with_a0, 0.7, rtol=1e-12)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            coeffs = (rng.uniform(1e-6, 1.0), rng.uniform(0, 1), rng.uniform(0, 1))
            f1, f2 = rng.uniform(0, 100, size=2)
            # a lone supplier serves f1, f2 and their midpoint in three slots
            cost = serving_cost(supplier_economics(
                np.ones((1, 3)), [f1, f2, 0.5 * (f1 + f2)], coeffs))[0]
            assert cost[2] <= 0.5 * (cost[0] + cost[1]) + 1e-9 * cost.max()


class TestEsProfit:
    def test_hand_value(self):
        econ = supplier_economics([[2.0], [3.0], [5.0]], [20.0],
                                  (0.01, 0.001, 0.001))
        assert econ.es_profit[2, 0] == pytest.approx(18.989)

    def test_zero_bid_pays_fixed_cost(self):
        econ = supplier_economics([[0.0], [3.0]], [12.0], (0.5, 0.5, 0.25))
        assert econ.es_revenue[0, 0] == 0.0
        assert econ.es_profit[0, 0] == -0.25

    def test_two_path_agreement(self):
        # the closed form lambda_j L^2 / Lambda^2 - C(lambda_j L / Lambda)
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = rng.integers(2, 8)
            lam = rng.uniform(0.01, 10.0, size=m)
            load = rng.uniform(0.1, 50.0)
            a2, a1, a0 = (rng.uniform(1e-4, 0.1), rng.uniform(0, 0.1),
                          rng.uniform(0, 0.1))
            j = int(rng.integers(m))
            total = lam.sum()
            f = lam[j] * load / total
            direct = (lam[j] * load * load / (total * total)
                      - (a2 * f * f + a1 * f + a0))
            composed = supplier_economics(lam[:, None], [load],
                                          (a2, a1, a0)).es_profit[j, 0]
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
        # served demand 1 + 1 at price 2 pays 4
        econ = compute_agent_economics(
            np.array([[1.0]]), np.array([[1.0]]), np.array([[0.5], [0.5]]),
            np.full((2, 3), 0.1), np.ones((1, 1)), np.ones((1, 1)))
        assert econ.te_payout[0, 0] == 4.0

    def test_zero_price_payoff_is_total_utility(self):
        chi = np.array([[1.0, 2.0, 0.5]])
        r = np.array([[0.2, 0.1, 0.3]])
        w = np.full((1, 3), 1.0)
        alpha = np.full((1, 3), 0.5)
        # bids so large that every price, and so the payout, vanishes
        bids = np.full((2, 3), 1e300)
        econ = compute_agent_economics(chi, r, bids, np.full((2, 3), 0.1),
                                       w, alpha)
        expected = sum(te_utility(1.0, 0.5, x) for x in (chi + r)[0])
        assert econ.te_payoff[0] == pytest.approx(expected)

    def test_slot_by_slot_recomputation(self):
        rng = np.random.default_rng(12)
        n, t = 3, 6
        chi = rng.uniform(0, 3, size=(n, t))
        r = rng.uniform(0, 3, size=(n, t))
        bids = rng.uniform(0.5, 5, size=(2, t))
        w = rng.uniform(0.5, 2, size=(n, t))
        alpha = rng.uniform(0.2, 1, size=(n, t))
        got = compute_agent_economics(chi, r, bids, np.full((2, 3), 0.1),
                                      w, alpha).te_payoff
        for i in range(n):
            expected = 0.0
            for k in range(t):
                price = (chi[:, k] + r[:, k]).sum() / bids[:, k].sum()
                x = chi[i, k] + r[i, k]
                cap = w[i, k] / alpha[i, k]
                util = (w[i, k] * x - alpha[i, k] / 2 * x * x if x <= cap
                        else w[i, k] ** 2 / (2 * alpha[i, k]))
                expected += util - x * price
            assert got[i] == pytest.approx(expected, rel=1e-12)


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


def test_every_exported_function_is_used_by_the_package():
    """Each function ``market_model`` exports is imported or referenced by
    another module of the package: no second copy of an economic quantity
    lives on for the tests alone."""
    package = Path(market_model.__file__).parent
    own = ast.parse((package / "market_model.py").read_text())
    exported = {node.name for node in own.body
                if isinstance(node, ast.FunctionDef)
                and node.name in market_model.__all__}
    used = set()
    for path in package.glob("*.py"):
        if path.name == "market_model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert exported, "market_model exports no function"
    assert sorted(exported - used) == []
