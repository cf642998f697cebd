"""Unit tests for the game updates and the solver orchestration."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import traced_peak

from mec_bazaar._kernels import es_direction, es_phase, te_gradient, te_phase
from mec_bazaar.bidding_games import (
    STATUS_CONVERGED,
    project_simplex,
    run_dtoa,
    supplier_fixed_point,
)
from mec_bazaar.errors import DegenerateMarketError, DomainError
from mec_bazaar.market_model import SolverConfig, es_profit
from mec_bazaar.scenario_io import (
    GenerationParams,
    generate_scenario,
    save_result,
)

# Derandomized, so every run draws the same examples; no deadline, since
# a shared host can stall any single example.
deterministic = settings(derandomize=True, deadline=None)
seeds = st.integers(0, 2**32 - 1)


def projection_reference(v, total, tol=1e-13):
    """Independent projection oracle: bisection on the threshold."""
    if total == 0:
        return np.zeros_like(v)
    lo = float(np.min(v) - total / v.size - 1.0)
    hi = float(np.max(v))
    for _ in range(200):
        theta = 0.5 * (lo + hi)
        mass = np.maximum(v - theta, 0.0).sum()
        if mass > total:
            lo = theta
        else:
            hi = theta
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


def surrogate(lam, j, load, coeffs, delta=1e-6):
    """Supplier j's direction from the kernel, on one slot's bid column."""
    m = lam.size
    return es_direction(lam[:, None], np.array([load]), np.full(m, coeffs[0]),
                        np.full(m, coeffs[1]), delta)[j, 0]


def slot_gradient(chi, base, i, t, lam, w, alpha):
    """Customer i's gradient at slot t from the kernel; every slot sees
    the bid column ``lam``."""
    load = (chi + base).sum(axis=0)
    totals = np.full(chi.shape[1], lam.sum())
    return te_gradient(chi, base, w, alpha, load, totals)[i, t]


class TestEsSurrogateGradient:
    def test_symmetric_zero(self):
        # unit marginal cost: price 2 equals the cost factor exactly
        lam = np.array([5.0, 5.0, 5.0])
        grad = surrogate(lam, 0, 30.0, (0.0, 1.0, 0.0))
        assert grad == pytest.approx(0.0, abs=1e-15)

    def test_guard_branch_clamps(self):
        lam = np.array([10.0, 1.0, 1.0])
        grad = surrogate(lam, 0, 12.0, (0.01, 0.0, 0.0))
        assert grad == pytest.approx(-1.0)  # -price with price = 12/12

    def test_sign_matches_profit_derivative(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 200:
            m = int(rng.integers(3, 9))
            lam = rng.uniform(0.5, 5.0, size=m)
            load = rng.uniform(1.0, 50.0)
            coeffs = (rng.uniform(1e-4, 0.2), rng.uniform(0.0, 0.5), 0.001)
            j = int(rng.integers(m))
            share = lam[j] / lam.sum() * load
            if share >= 0.5 * load * (1 - 1e-6):
                continue
            checked += 1
            surr = surrogate(lam, j, load, coeffs)
            h = 1e-6 * lam[j]
            up = lam.copy()
            up[j] += h
            dn = lam.copy()
            dn[j] -= h
            fd = (es_profit(up, j, load, coeffs)
                  - es_profit(dn, j, load, coeffs)) / (2 * h)
            if abs(fd) < 1e-10 and abs(surr) < 1e-8:
                continue
            assert np.sign(surr) == np.sign(fd)

    def test_degenerate(self):
        # all bids zero: the phase reports the slot and leaves bids alone
        lam = np.zeros((3, 1))
        new_lam, _, _, bad = es_phase(lam, np.array([5.0]), np.full(3, 0.1),
                                      np.full(3, 0.1), 0.05, 1e-6)
        assert bad == 0
        np.testing.assert_array_equal(new_lam, lam)


class TestEsUpdateStep:
    def scenario(self):
        return generate_scenario(GenerationParams(
            num_te=20, num_es=3, num_slots=4, seed=2))

    def step(self, bids, loads, s, eta1):
        return es_phase(bids, loads, s.cost_coeffs[:, 0], s.cost_coeffs[:, 1],
                        eta1, s.solver.singularity_delta)

    def test_fixed_point_at_zero_gradient(self):
        s = self.scenario()
        s.cost_coeffs[:] = [[1e-12, 1.0, 0.0]] * 3
        bids = np.full((3, 4), 5.0)
        loads = np.full(4, 30.0)  # symmetric: price 2 = cost factor
        new_bids, _, _, bad = self.step(bids, loads, s, eta1=0.05)
        assert bad == -1
        np.testing.assert_allclose(new_bids, bids, rtol=1e-9)

    def test_nonnegativity_projection(self):
        s = self.scenario()
        s.cost_coeffs[:] = [[1e-9, 2000.0, 0.0]] * 3  # cost dwarfs price
        bids = np.full((3, 4), 1.0)
        loads = np.full(4, 30.0)
        new_bids, _, _, bad = self.step(bids, loads, s, eta1=0.05)
        assert np.all(new_bids == 0.0)
        assert bad == 0  # every slot collapsed; the first is reported

    def test_table2_slot_update_finite(self):
        s = generate_scenario(GenerationParams(seed=4))
        bids = np.full((s.num_es, s.num_slots), s.solver.lambda_init)
        loads = (s.initial_demand + s.base_demand).sum(axis=0)
        for _ in range(20):
            bids, _, _, bad = self.step(bids, loads, s, eta1=0.05)
            assert bad == -1
        assert np.all(np.isfinite(bids)) and np.all(bids >= 0)

    def test_bad_eta(self):
        # the kernels take the step as given; run_dtoa rejects a
        # nonpositive one through the scenario's solver validation
        s = self.scenario()
        s.solver = SolverConfig(eta1_init=0.0)
        with pytest.raises(DomainError):
            run_dtoa(s)


class TestTeGradient:
    def test_hand_value(self):
        # single customer: U' = 0.75, price impact (L + x)/total = 0.5
        chi = np.array([[0.3]])
        base = np.array([[0.2]])
        w = np.array([[1.0]])
        alpha = np.array([[0.5]])
        grad = slot_gradient(chi, base, 0, 0, np.array([1.2, 0.8]), w, alpha)
        assert grad == pytest.approx(0.25)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n, t_count = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            chi = rng.uniform(0.0, 3.0, size=(n, t_count))
            base = rng.uniform(0.0, 3.0, size=(n, t_count))
            w = rng.uniform(0.5, 2.0, size=(n, t_count))
            alpha = rng.uniform(0.2, 1.0, size=(n, t_count))
            lam = rng.uniform(0.5, 4.0, size=3)
            i, t = int(rng.integers(n)), int(rng.integers(t_count))
            analytic = slot_gradient(chi, base, i, t, lam, w, alpha)

            def payoff(v):
                x = v + base[i, t]
                others = (chi[:, t].sum() - chi[i, t]
                          + base[:, t].sum() - base[i, t])
                price = (others + x) / lam.sum()
                cap = w[i, t] / alpha[i, t]
                util = (w[i, t] * x - alpha[i, t] / 2 * x * x if x <= cap
                        else w[i, t] ** 2 / (2 * alpha[i, t]))
                return util - x * price

            h = 1e-7 * (1 + chi[i, t])
            fd = (payoff(chi[i, t] + h) - payoff(chi[i, t] - h)) / (2 * h)
            assert analytic == pytest.approx(fd, rel=2e-6, abs=1e-9)

    def test_degenerate(self):
        # zero bids at slot 0 make its price impact infinite; the kernel
        # has no guard of its own, es_phase reports such a slot first
        ones = np.ones((1, 2))
        with np.errstate(divide="ignore"):
            grad = te_gradient(ones, ones, ones, ones, np.full(2, 2.0),
                               np.array([0.0, 1.0]))
        assert grad[0, 0] == -np.inf
        assert np.isfinite(grad[0, 1])


class TestProjectSimplex:
    def test_already_feasible(self):
        np.testing.assert_allclose(
            project_simplex(np.array([0.5, 0.5]), 1.0), [0.5, 0.5])

    def test_corner(self):
        np.testing.assert_allclose(
            project_simplex(np.array([2.0, 0.0]), 1.0), [1.0, 0.0])

    def test_identity(self):
        np.testing.assert_allclose(
            project_simplex(np.array([1.0, 1.0, 1.0]), 3.0), [1.0, 1.0, 1.0])

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            t = int(rng.integers(1, 7))
            v = rng.normal(0.0, 3.0, size=t)
            q = rng.uniform(0.0, 5.0)
            got = project_simplex(v, q)
            ref = projection_reference(v, q)
            np.testing.assert_allclose(got, ref, atol=1e-9)
            assert np.all(got >= 0)
            assert got.sum() == pytest.approx(q, rel=1e-9, abs=1e-12)

    def test_brute_force_two_dim(self):
        # exhaustive check on the segment x0 in [0, 1], x1 = 1 - x0
        v = np.array([2.0, 0.0])
        grid = np.linspace(0.0, 1.0, 200001)
        dist = (grid - v[0]) ** 2 + (1.0 - grid - v[1]) ** 2
        best = grid[np.argmin(dist)]
        got = project_simplex(v, 1.0)
        assert got[0] == pytest.approx(best, abs=1e-5)

    def test_negative_total(self):
        with pytest.raises(DomainError):
            project_simplex(np.array([1.0]), -1.0)


def random_rows(seed: int):
    """A stack of 1-6 rows over 1-8 slots with mixed-sign entries and one
    total per row, some of them zero."""
    rng = np.random.default_rng(seed)
    r, t = int(rng.integers(1, 7)), int(rng.integers(1, 9))
    v = rng.normal(0.0, rng.uniform(0.1, 100.0), size=(r, t))
    totals = rng.uniform(0.0, 50.0, size=r) * (rng.random(r) > 0.2)
    return v, totals


class TestProjectSimplexProperties:
    @deterministic
    @given(seed=seeds)
    def test_feasible(self, seed):
        v, totals = random_rows(seed)
        x = project_simplex(v, totals)
        assert x.shape == v.shape
        assert np.all(x >= 0.0)
        np.testing.assert_allclose(x.sum(axis=1), totals, rtol=1e-12,
                                   atol=1e-12)

    @deterministic
    @given(seed=seeds)
    def test_idempotent(self, seed):
        v, totals = random_rows(seed)
        x = project_simplex(v, totals)
        np.testing.assert_allclose(project_simplex(x, totals), x,
                                   rtol=1e-12, atol=1e-12)

    @deterministic
    @given(seed=seeds)
    def test_kkt(self, seed):
        # x = max(v - theta, 0): one shift theta on the support, and no
        # entry off the support above it
        v, totals = random_rows(seed)
        x = project_simplex(v, totals)
        for vi, xi in zip(v, x):
            support = xi > 0.0
            if not support.any():
                continue
            shift = (vi - xi)[support]
            tol = 1e-12 * (1.0 + np.max(np.abs(vi)))
            assert np.ptp(shift) <= tol
            assert np.all(vi[~support] <= shift.min() + tol)

    @deterministic
    @given(seed=seeds)
    def test_rows_match_single_projection(self, seed):
        v, totals = random_rows(seed)
        x = project_simplex(v, totals)
        for vi, total, xi in zip(v, totals, x):
            single = project_simplex(vi, total)
            assert single.shape == vi.shape
            assert np.array_equal(xi, single)

    def test_negative_total_in_batch(self):
        with pytest.raises(DomainError):
            project_simplex(np.ones((2, 3)), np.array([1.0, -1.0]))


class TestTeUpdateStep:
    def test_uniform_gradient_leaves_row_unchanged(self):
        # one slot-symmetric customer: every slot sees the same gradient,
        # and the projection removes the common component
        chi = np.array([[2.0, 2.0, 2.0]])
        base = np.array([[1.0, 1.0, 1.0]])
        bids = np.full((2, 3), 4.0)
        w = np.full((1, 3), 1.0)
        alpha = np.full((1, 3), 0.5)
        rows = te_phase(chi, base, w, alpha, (chi + base).sum(axis=0),
                        bids.sum(axis=0), chi.sum(axis=1), 0.7)
        np.testing.assert_allclose(rows, chi, atol=1e-12)

    def test_row_sum_preserved(self):
        s = generate_scenario(GenerationParams(
            num_te=6, num_es=3, num_slots=5, seed=9))
        chi = s.initial_demand.copy()
        bids = np.full((3, 5), s.solver.lambda_init)
        rows = te_phase(chi, s.base_demand, s.utility_w, s.utility_alpha,
                        (chi + s.base_demand).sum(axis=0), bids.sum(axis=0),
                        s.shiftable_total, 0.01)
        np.testing.assert_allclose(rows.sum(axis=1), s.shiftable_total,
                                   rtol=1e-9)
        assert np.all(rows >= 0)


class TestRunDtoa:
    def test_degenerate_simplex_converges_immediately(self):
        # T=1 pins the whole demand row, so the first step cannot move
        s = generate_scenario(GenerationParams(
            num_te=1, num_es=2, num_slots=1, seed=3))
        res = run_dtoa(s)
        assert res.status == STATUS_CONVERGED
        assert res.iterations_used <= 2
        assert res.demand[0, 0] == pytest.approx(s.shiftable_total[0])

    def test_deterministic_rerun(self):
        s = generate_scenario(GenerationParams(
            num_te=40, num_es=4, num_slots=6, seed=13))
        r1 = run_dtoa(s)
        r2 = run_dtoa(s)
        assert np.array_equal(r1.demand, r2.demand)
        assert np.array_equal(r1.bids, r2.bids)
        assert r1.iterations_used == r2.iterations_used

    def test_feasibility_preserved(self):
        s = generate_scenario(GenerationParams(
            num_te=30, num_es=3, num_slots=6, seed=15))
        res = run_dtoa(s)
        assert np.all(res.bids >= 0)
        assert np.all(res.demand >= 0)
        np.testing.assert_allclose(res.demand.sum(axis=1),
                                   s.shiftable_total, rtol=1e-9)

    def test_converged_run_satisfies_stopping_rule(self):
        s = generate_scenario(GenerationParams(
            num_te=30, num_es=3, num_slots=6, seed=16))
        res = run_dtoa(s)
        assert res.status == STATUS_CONVERGED
        assert res.trace.delta[-1] < s.solver.epsilon
        assert res.trace.bid_delta[-1] < s.solver.epsilon
        assert np.all(res.trace.delta >= 0)

    def test_pinned_demand_waits_for_supplier_fixed_point(self):
        # T=1 pins every demand row, so the demand step is zero from the
        # first iteration; the run may stop only once the bids have
        # settled as the supplier game alone settles them at that load
        s = generate_scenario(GenerationParams(
            num_te=200, num_es=4, num_slots=1, seed=3))
        res = run_dtoa(s)
        bids, iterations, converged = supplier_fixed_point(
            res.state.load, s.cost_coeffs, s.solver)
        assert converged
        assert res.status == STATUS_CONVERGED
        assert res.iterations_used == iterations
        np.testing.assert_array_equal(res.bids, bids)

    def test_iteration_cap_status(self):
        s = generate_scenario(GenerationParams(seed=1, num_te=200))
        s.solver = SolverConfig(max_iterations=3)
        res = run_dtoa(s)
        assert res.status == "iteration-cap-reached"
        assert res.iterations_used == 3

    def test_scenario_left_untouched(self, tmp_path):
        # the loop swaps two demand buffers; neither may be the
        # scenario's own initial demand, which is the "before" profile
        s = generate_scenario(GenerationParams(
            num_te=40, num_es=4, num_slots=6, seed=13))
        arrays = {f.name: getattr(s, f.name).copy()
                  for f in dataclasses.fields(s)
                  if isinstance(getattr(s, f.name), np.ndarray)}
        bundles = []
        for k in range(2):
            res = run_dtoa(s)
            assert res.iterations_used > 2
            save_result(str(tmp_path / str(k)), res, s)
            bundles.append({p.name: p.read_bytes()
                            for p in (tmp_path / str(k)).iterdir()})
        for name, want in arrays.items():
            assert getattr(s, name).tobytes() == want.tobytes(), name
        assert len(bundles[0]) == 4
        assert bundles[0] == bundles[1]

    def test_memory_peak(self):
        # N=2000, T=24: the customer phase's workspace is released before
        # the market state and economics, which set the run's peak
        s = generate_scenario(GenerationParams(num_te=2000, seed=1))
        assert traced_peak(run_dtoa, s) <= 8.5 * s.initial_demand.nbytes

    def test_lemma1_region_at_convergence(self):
        s = generate_scenario(GenerationParams(
            num_te=30, num_es=4, num_slots=6, seed=21))
        res = run_dtoa(s)
        assert res.status == STATUS_CONVERGED
        totals = res.bids.sum(axis=0)
        assert np.all(res.bids < totals - res.bids)


class TestSupplierStep:
    """Both loops take the same supplier step and fail the same way."""

    @pytest.mark.parametrize("case", ["collapse", "overflow"])
    @pytest.mark.parametrize("entry", ["run_dtoa", "supplier_fixed_point"])
    def test_degenerate_market(self, entry, case):
        s = generate_scenario(GenerationParams(
            num_te=20, num_es=3, num_slots=4, seed=1))
        if case == "collapse":
            # serving cost far above any price pushes every bid to zero
            s.cost_coeffs[:, 1] = 1e9
            expected = "bids collapsed to zero at slot 0, iteration 1"
        else:
            # finite bids (about 3e300) whose step has no finite norm;
            # slot 3 moves the most
            s.solver = SolverConfig(eta1_init=1e300)
            expected = "bid step overflowed at slot 3, iteration 1"
        with pytest.raises(DegenerateMarketError) as err:
            if entry == "run_dtoa":
                run_dtoa(s)
            else:
                loads = (s.initial_demand + s.base_demand).sum(axis=0)
                supplier_fixed_point(loads, s.cost_coeffs, s.solver)
        assert str(err.value) == expected
        assert err.value.slot == (0 if case == "collapse" else 3)
        assert err.value.iteration == 1


class TestSupplierFixedPoint:
    def test_matches_oracle_price(self):
        from mec_bazaar.equilibrium_oracle import solve_supplier_equilibrium
        rng = np.random.default_rng(19)
        coeffs = np.column_stack([
            rng.uniform(0.005, 0.05, 4),
            rng.uniform(0.0, 0.1, 4),
            np.full(4, 0.001),
        ])
        loads = np.array([80.0, 120.0])
        cfg = SolverConfig(eta1_init=0.2, eta1_decay=1.0, epsilon=1e-9,
                           lambda_init=20.0, max_iterations=100_000)
        bids, _, converged = supplier_fixed_point(loads, coeffs, cfg)
        assert converged
        for t, load in enumerate(loads):
            price = load / bids[:, t].sum()
            eq = solve_supplier_equilibrium(float(load), coeffs)
            assert price == pytest.approx(eq.price, rel=1e-6)
