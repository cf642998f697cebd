"""Property tests of the benchmark's independent checkers.

Run with ``python3 -m pytest -q perfbench``. The checkers are tested
against properties of the method, not against the program's output:
supplies sum to the load and satisfy stationarity, and best responses are
feasible and satisfy the KKT conditions of the customer's program.
"""

import numpy as np
import pytest

import checkers as C


def _random_suppliers(rng, m):
    a2 = rng.uniform(4.76e-6, 4.76e-5, size=m)
    a1 = rng.uniform(0.0, 0.01, size=m)
    return a2, a1


@pytest.mark.parametrize("seed", range(20))
def test_supplier_equilibrium_clears_and_is_stationary(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 12))
    a2, a1 = _random_suppliers(rng, m)
    load = float(rng.uniform(1e3, 1e7))
    phi, f = C.supplier_equilibrium(load, a2, a1)
    assert np.all(f >= 0) and np.all(f < load / 2)
    assert abs(f.sum() - load) <= 1e-12 * load
    interior = f > 0
    stat = C.stationarity(f[interior], load, a2[interior], a1[interior])
    np.testing.assert_allclose(stat, phi, rtol=1e-9)
    # Suppliers left out could not cover even their zero-supply cost.
    assert np.all(a1[~interior] >= phi)


def test_supply_root_matches_bisection():
    rng = np.random.default_rng(7)
    a2, a1 = _random_suppliers(rng, 50)
    load, phi = 2.5e5, 40.0
    f = C.supply_at_price(phi, load, a2, a1)
    for j in range(a2.size):
        lo, hi = 0.0, load / 2
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if C.stationarity(mid, load, a2[j], a1[j]) < phi:
                lo = mid
            else:
                hi = mid
        assert f[j] == pytest.approx(lo, rel=1e-10)


def test_supplier_equilibrium_refuses_two_suppliers():
    with pytest.raises(ValueError):
        C.supplier_equilibrium(100.0, [1e-5, 1e-5], [0.0, 0.0])


def _random_market(rng, n, t):
    base = rng.uniform(0.0, 3.0, size=(n, t))
    chi = rng.uniform(0.1, 2.0, size=(n, t))
    w = rng.uniform(0.8, 4.0, size=(n, t))
    alpha = rng.uniform(0.3, 1.0, size=(n, t))
    totals = rng.uniform(1.0, 20.0, size=t)
    return chi, base, totals, w, alpha


@pytest.mark.parametrize("seed", range(20))
def test_best_response_is_feasible_and_kkt(seed):
    rng = np.random.default_rng(seed)
    n, t = int(rng.integers(1, 6)), int(rng.integers(1, 8))
    chi, base, totals, w, alpha = _random_market(rng, n, t)
    rows, gains = C.best_responses(chi, base, totals, w, alpha)
    q = chi.sum(axis=1)
    assert np.all(rows >= 0)
    np.testing.assert_allclose(rows.sum(axis=1), q, rtol=1e-12)
    assert np.all(gains >= -1e-9 * np.maximum(1.0, np.abs(gains)))
    x = chi + base
    others = x.sum(axis=0)[None, :] - x
    grad = C.marginal(rows, base, others, totals, w, alpha)
    for i in range(n):
        active = rows[i] > 1e-9 * max(q[i], 1.0)
        nu = grad[i, active].mean()
        np.testing.assert_allclose(grad[i, active], nu, atol=1e-7)
        assert np.all(grad[i, ~active] <= nu + 1e-7)


def test_best_response_beats_random_feasible_rows():
    rng = np.random.default_rng(3)
    chi, base, totals, w, alpha = _random_market(rng, 3, 5)
    rows, _ = C.best_responses(chi, base, totals, w, alpha)
    x = chi + base
    others = x.sum(axis=0)[None, :] - x
    best = C.payoffs(rows, base, totals, w, alpha, others)
    q = chi.sum(axis=1)
    for _ in range(500):
        cand = rng.dirichlet(np.ones(chi.shape[1]), size=chi.shape[0])
        cand *= q[:, None]
        assert np.all(C.payoffs(cand, base, totals, w, alpha, others)
                      <= best + 1e-9 * np.abs(best))


def test_best_response_gain_is_zero_at_a_best_response():
    rng = np.random.default_rng(11)
    chi, base, totals, w, alpha = _random_market(rng, 1, 6)
    rows, gains = C.best_responses(chi, base, totals, w, alpha)
    assert gains[0] > 0
    _, again = C.best_responses(rows, base, totals, w, alpha)
    assert abs(again[0]) <= 1e-9 * max(1.0, gains[0])
