"""Unit tests for the independent equilibrium oracle."""

import numpy as np
import pytest

from mec_bazaar import _kernels
from mec_bazaar.bidding_games import run_dtoa
from mec_bazaar.equilibrium_oracle import (
    best_response,
    check_gradients,
    psi,
    solve_supplier_equilibrium,
    verify_supplier_equilibrium,
    SupplierEquilibrium,
)
from mec_bazaar.errors import (
    DomainError,
    NoEquilibriumError,
    TwoSupplierMarketError,
)
from mec_bazaar.market_model import Scenario, SolverConfig
from mec_bazaar.scenario_io import GenerationParams, generate_scenario


class TestSolveSupplierEquilibrium:
    def test_symmetric_unit_marginal_cost(self):
        # three identical suppliers with C' = 1 split L = 30 evenly and
        # the stationarity factor gives price (30-10)/(30-20) = 2
        eq = solve_supplier_equilibrium(30.0, [[0.0, 1.0, 0.0]] * 3)
        assert eq.price == pytest.approx(2.0, rel=1e-8)
        np.testing.assert_allclose(eq.supplies, [10.0, 10.0, 10.0], rtol=1e-8)
        np.testing.assert_allclose(eq.implied_bids, [5.0, 5.0, 5.0], rtol=1e-8)
        assert eq.residual < 1e-8

    def test_symmetric_quadratic_costs(self):
        coeffs = [[0.02, 0.01, 0.001]] * 5
        eq = solve_supplier_equilibrium(42.0, coeffs)
        np.testing.assert_allclose(eq.supplies, np.full(5, 42.0 / 5),
                                   rtol=1e-8)

    def test_heterogeneous_costs(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = int(rng.integers(3, 8))
            coeffs = np.column_stack([
                rng.uniform(4.76e-6, 4.76e-5, m),
                np.full(m, 0.001),
                np.full(m, 0.001),
            ])
            load = rng.uniform(1e4, 1e6)
            eq = solve_supplier_equilibrium(load, coeffs)
            assert eq.supplies.sum() == pytest.approx(load, rel=1e-9)
            assert np.all(eq.supplies >= 0)
            assert np.all(eq.supplies < 0.5 * load)
            # cheaper suppliers serve more
            order = np.argsort(coeffs[:, 0])
            assert np.all(np.diff(eq.supplies[order]) <= 1e-9 * load)

    def test_stationarity_increasing(self):
        # a strictly increasing condition has one root, the supply at a price
        rng = np.random.default_rng(5)
        from mec_bazaar.equilibrium_oracle import _stationarity
        for _ in range(50):
            a2, a1 = rng.uniform(1e-5, 0.1), rng.uniform(0.0, 1.0)
            load = rng.uniform(1.0, 100.0)
            f = np.sort(rng.uniform(0.0, 0.499, size=10)) * load
            g = [_stationarity(x, load, a2, a1) for x in f]
            assert np.all(np.diff(g) >= -1e-12)

    def test_non_finite_input_raises(self):
        # a NaN price must end the bracket search, not spin in it
        nan = float("nan")
        with pytest.raises(NoEquilibriumError):
            solve_supplier_equilibrium(30.0, [[nan, 1.0, 0.0]]
                                       + [[0.1, 1.0, 0.0]] * 2)
        with pytest.raises(DomainError):
            solve_supplier_equilibrium(nan, [[0.1, 1.0, 0.0]] * 3)

    def test_two_suppliers_flagged(self):
        with pytest.raises(TwoSupplierMarketError):
            solve_supplier_equilibrium(10.0, [[0.1, 0.0, 0.0]] * 2)

    def test_single_supplier_rejected(self):
        with pytest.raises(DomainError):
            solve_supplier_equilibrium(10.0, [[0.1, 0.0, 0.0]])

    def test_nonpositive_load_rejected(self):
        with pytest.raises(DomainError):
            solve_supplier_equilibrium(0.0, [[0.1, 0.1, 0.1]] * 3)


class TestPsi:
    def test_zero_supply(self):
        assert psi(0.0, 10.0, (0.5, 0.2, 0.7)) == pytest.approx(0.7)

    def test_constant_cost_closed_form(self):
        # for constant cost the integral telescopes and psi == a0
        for f, load in [(0.1, 1.0), (2.0, 10.0), (4.9, 10.0)]:
            assert psi(f, load, (0.0, 0.0, 1.3)) == pytest.approx(1.3, rel=1e-7)

    def test_quadrature_against_riemann(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            load = rng.uniform(5.0, 50.0)
            f = rng.uniform(0.1, 0.45) * load
            coeffs = (rng.uniform(1e-4, 0.1), rng.uniform(0.0, 0.5),
                      rng.uniform(0.0, 0.5))
            n = 1_000_000
            grid = (np.arange(n) + 0.5) * (f / n)
            cost = coeffs[0] * grid ** 2 + coeffs[1] * grid + coeffs[2]
            riemann = float(np.sum(load * cost / (load - 2 * grid) ** 2)
                            * (f / n))
            front = ((load - f) / (load - 2 * f)
                     * (coeffs[0] * f * f + coeffs[1] * f + coeffs[2]))
            assert psi(f, load, coeffs) == pytest.approx(front - riemann,
                                                         rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            psi(5.0, 10.0, (0.1, 0.1, 0.1))
        with pytest.raises(DomainError):
            psi(-0.1, 10.0, (0.1, 0.1, 0.1))


class TestVerifySupplierEquilibrium:
    def setup_case(self):
        coeffs = np.array([[0.01, 0.05, 0.001],
                           [0.02, 0.00, 0.001],
                           [0.03, 0.10, 0.001]])
        eq = solve_supplier_equilibrium(60.0, coeffs)
        return eq, coeffs

    def test_no_probe_beats_equilibrium(self):
        eq, coeffs = self.setup_case()
        report = verify_supplier_equilibrium(eq, coeffs, 60.0, n_probes=300,
                                             seed=2)
        assert report.passed
        assert report.max_excess <= report.tolerance

    def test_identity_probe_zero_excess(self):
        eq, coeffs = self.setup_case()

        def objective(f):
            return -sum(psi(float(f[j]), 60.0, coeffs[j]) for j in range(3))

        assert objective(eq.supplies) - report_objective(eq, coeffs) == 0.0

    def test_perturbed_equilibrium_flagged(self):
        eq, coeffs = self.setup_case()
        shifted = eq.supplies.copy()
        move = 0.05 * shifted[0]
        shifted[0] -= move
        shifted[1] += move
        fake = SupplierEquilibrium(price=eq.price, supplies=shifted,
                                   implied_bids=shifted / eq.price,
                                   residual=0.0)
        report = verify_supplier_equilibrium(fake, coeffs, 60.0,
                                             n_probes=300, seed=2)
        assert not report.passed
        assert report.max_excess > report.tolerance


def report_objective(eq, coeffs):
    return -sum(psi(float(eq.supplies[j]), 60.0, coeffs[j])
                for j in range(coeffs.shape[0]))


class TestBestResponse:
    def small_converged(self):
        cfg = SolverConfig(eta1_init=5.0, eta1_decay=1.0, eta2_init=200.0,
                           eta2_decay=1.0, epsilon=1e-3, lambda_init=200.0,
                           max_iterations=300_000)
        s = generate_scenario(GenerationParams(
            num_es=3, num_te=5, num_slots=4, seed=9, solver=cfg))
        return s, run_dtoa(s)

    def test_single_slot_gain_zero(self):
        s = generate_scenario(GenerationParams(
            num_te=2, num_es=3, num_slots=1, seed=4))
        bids = np.full((3, 1), 100.0)
        rows, gains = best_response(s.initial_demand, s.base_demand, bids,
                                    s.utility_w, s.utility_alpha)
        assert gains[0] == pytest.approx(0.0, abs=1e-12)
        assert rows[0, 0] == pytest.approx(s.shiftable_total[0])

    def test_gain_nonnegative_from_random_rows(self):
        s = generate_scenario(GenerationParams(
            num_te=4, num_es=3, num_slots=5, seed=6))
        rng = np.random.default_rng(10)
        bids = rng.uniform(50.0, 150.0, size=(3, 5))
        chi = s.initial_demand.copy()
        raw = rng.uniform(0.1, 1.0, size=5)
        chi[1] = raw / raw.sum() * s.shiftable_total[1]
        _, gains = best_response(chi, s.base_demand, bids, s.utility_w,
                                 s.utility_alpha)
        assert gains[1] >= -1e-12

    def test_eps_nash_at_convergence(self):
        s, res = self.small_converged()
        _, gains = best_response(res.demand, s.base_demand, res.bids,
                                 s.utility_w, s.utility_alpha)
        assert np.all(gains <= 1e-3 * np.abs(res.economics.te_payoff))

    def test_small_instance_bids_match_oracle(self):
        s, res = self.small_converged()
        loads = res.state.load
        for t in range(s.num_slots):
            eq = solve_supplier_equilibrium(float(loads[t]), s.cost_coeffs)
            assert res.state.price[t] == pytest.approx(eq.price, rel=1e-3)


class TestCheckGradients:
    def test_table2_ranges(self):
        s = generate_scenario(GenerationParams(seed=3))
        report = check_gradients(s, n_samples=40, seed=11)
        assert report.max_te_rel_err < 1e-6
        assert report.max_es_rel_err < 1e-6
        assert report.sign_agreement == 1.0
        assert report.interior_samples == 40

    def test_linear_cost_passes(self):
        # a2 = 0 degenerates the cost to linear; derivatives still check.
        # built by hand because scenario validation requires a2 > 0
        s = generate_scenario(GenerationParams(
            num_te=12, num_es=4, num_slots=6, seed=7))
        s.cost_coeffs[:, 0] = 0.0
        report = check_gradients(s, n_samples=30, seed=5)
        assert report.max_te_rel_err < 1e-6
        assert report.max_es_rel_err < 1e-6
        assert report.sign_agreement == 1.0

    def test_guard_region_counted_separately(self):
        s = generate_scenario(GenerationParams(
            num_te=10, num_es=3, num_slots=4, seed=12))
        found = None
        for seed in range(60):
            report = check_gradients(s, n_samples=30, seed=seed)
            if report.guarded_samples > 0:
                found = report
                break
        assert found is not None, "no sample tripped the guard region"
        assert found.interior_samples + found.guarded_samples == 30
        assert found.sign_agreement == 1.0

    @pytest.mark.parametrize("kernel", ["te_gradient", "es_direction"])
    def test_checks_the_solver_kernel(self, monkeypatch, kernel):
        # a sign error in a kernel the solver runs must fail the check
        s = generate_scenario(GenerationParams(
            num_te=12, num_es=4, num_slots=6, seed=7))
        assert check_gradients(s, n_samples=20, seed=5).passed()
        inner = getattr(_kernels, kernel)
        monkeypatch.setattr(_kernels, kernel, lambda *a: -inner(*a))
        assert not check_gradients(s, n_samples=20, seed=5).passed()

    def test_sample_count_validated(self):
        s = generate_scenario(GenerationParams(
            num_te=5, num_es=3, num_slots=3, seed=1))
        with pytest.raises(DomainError):
            check_gradients(s, n_samples=0)
