"""Property tests of the oracle's closed forms.

Each property is checked against a reference that shares no code with
the closed form: the stationarity condition itself for the supply root,
a midpoint Riemann sum for the potential, and the KKT conditions plus
random feasible rows for the best response.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mec_bazaar.equilibrium_oracle import (
    _stationarity,
    _supply_at_price,
    best_response,
    psi,
)
from mec_bazaar.market_model import te_payoff

# Derandomized, so every run draws the same examples; no deadline, since
# a shared host can stall any single example.
deterministic = settings(derandomize=True, deadline=None)

loads = st.floats(1.0, 4e7)
a2s = st.floats(4.76e-7, 1e-1)
a1s = st.floats(0.0, 1.0)
fractions = st.floats(0.0, 0.49)
seeds = st.integers(0, 2**32 - 1)


class TestSupplyAtPrice:
    @deterministic
    @given(load=loads, a2=a2s, a1=a1s, s=fractions)
    def test_root_of_stationarity(self, load, a2, a1, s):
        phi = _stationarity(s * load, load, a2, a1)
        f = float(_supply_at_price(phi, load, a2, a1))
        assert 0.0 <= f < 0.5 * load
        if f > 0:
            residual = abs(_stationarity(f, load, a2, a1) - phi) / phi
            assert residual <= 1e-12
        else:
            assert phi <= a1

    @deterministic
    @given(load=loads, a2=a2s, a1=a1s, s=fractions, t=fractions)
    def test_nondecreasing_in_price(self, load, a2, a1, s, t):
        lo, hi = sorted((s, t))
        phi_lo = _stationarity(lo * load, load, a2, a1)
        phi_hi = _stationarity(hi * load, load, a2, a1)
        assert (_supply_at_price(phi_lo, load, a2, a1)
                <= _supply_at_price(phi_hi, load, a2, a1))

    @deterministic
    @given(load=loads, a1=st.floats(1e-3, 1.0),
           margin=st.floats(1e-6, 1e3))
    def test_linear_cost(self, load, a1, margin):
        # a2 = 0 turns the quadratic into (2 phi - a1) f = (phi - a1) L;
        # a1 > 0, since a zero cost has no stationary point below L/2
        phi = a1 + margin
        f = float(_supply_at_price(phi, load, 0.0, a1))
        assert f == pytest.approx((phi - a1) * load / (2.0 * phi - a1),
                                  rel=1e-14)

    @deterministic
    @given(load=loads, a2=a2s, a1=st.floats(1e-3, 1.0),
           share=st.floats(0.0, 1.0))
    def test_no_supply_below_marginal_cost(self, load, a2, a1, share):
        assert _supply_at_price(share * a1, load, a2, a1) == 0.0

    def test_vectorized_over_suppliers(self):
        a2 = np.array([1e-5, 2e-5, 0.0, 4.76e-5])
        a1 = np.array([0.001, 0.5, 0.2, 3.0])
        f = _supply_at_price(2.0, 3e7, a2, a1)
        assert f.shape == (4,)
        for j in range(4):
            assert f[j] == _supply_at_price(2.0, 3e7, a2[j], a1[j])
        assert f[3] == 0.0


class TestPsiClosedForm:
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(load=st.floats(1e7, 4e7), a2=st.floats(4.76e-6, 4.76e-5),
           a1=st.floats(0.0, 0.01), a0=st.floats(0.0, 0.01),
           s=st.floats(0.01, 0.45))
    def test_against_riemann_at_paper_scale(self, load, a2, a1, a0, s):
        f = s * load
        n = 1_000_000
        grid = (np.arange(n) + 0.5) * (f / n)
        cost = a2 * grid ** 2 + a1 * grid + a0
        riemann = float(np.sum(load * cost / (load - 2 * grid) ** 2)
                        * (f / n))
        front = (load - f) / (load - 2 * f) * (a2 * f * f + a1 * f + a0)
        assert psi(f, load, (a2, a1, a0)) == pytest.approx(front - riemann,
                                                           rel=1e-10)


def random_market(seed: int):
    """A small market whose utilities saturate in some slots and not in
    others, with every customer's row drawn at random."""
    rng = np.random.default_rng(seed)
    n, t = int(rng.integers(1, 7)), int(rng.integers(1, 9))
    base = rng.uniform(0.0, 10.0, size=(n, t))
    q = rng.uniform(0.1, 50.0, size=n)
    chi = rng.dirichlet(np.ones(t), size=n) * q[:, None]
    w = rng.uniform(0.5, 50.0, size=(n, t))
    alpha = rng.uniform(0.01, 5.0, size=(n, t))
    bids = rng.uniform(0.5, 50.0, size=(3, t))
    return rng, chi, base, bids, w, alpha


def others_load(i, chi, base):
    """Per-slot load of every customer but i."""
    rest = np.arange(chi.shape[0]) != i
    return (chi[rest] + base[rest]).sum(axis=0)


def gradient(i, row, chi, base, bids, w, alpha):
    """Customer i's marginal payoff U'(x) - (o + 2x)/Lambda per slot."""
    x = row + base[i]
    up = np.where(x * alpha[i] <= w[i], w[i] - alpha[i] * x, 0.0)
    return up - (others_load(i, chi, base) + 2.0 * x) / bids.sum(axis=0)


def payoff(i, row, chi, base, bids, w, alpha):
    prices = (others_load(i, chi, base) + row + base[i]) / bids.sum(axis=0)
    return te_payoff(row, base[i], prices, w[i], alpha[i])


class TestBestResponseProperties:
    @deterministic
    @given(seed=seeds)
    def test_feasible(self, seed):
        _, chi, base, bids, w, alpha = random_market(seed)
        rows, gains = best_response(chi, base, bids, w, alpha)
        assert rows.shape == chi.shape and gains.shape == chi.shape[:1]
        assert np.all(rows >= 0.0)
        np.testing.assert_allclose(rows.sum(axis=1), chi.sum(axis=1),
                                   rtol=1e-12)

    @deterministic
    @given(seed=seeds)
    def test_kkt(self, seed):
        # equal marginal payoff on the support, no larger off it
        _, chi, base, bids, w, alpha = random_market(seed)
        rows, _ = best_response(chi, base, bids, w, alpha)
        for i, row in enumerate(rows):
            g = gradient(i, row, chi, base, bids, w, alpha)
            support = row > 1e-9 * chi[i].sum()
            tol = 1e-8 * (1.0 + np.max(np.abs(g)))
            assert np.ptp(g[support]) <= tol
            assert np.all(g[~support] <= g[support].min() + tol)

    @deterministic
    @given(seed=seeds)
    def test_no_random_row_does_better(self, seed):
        rng, chi, base, bids, w, alpha = random_market(seed)
        rows, gains = best_response(chi, base, bids, w, alpha)
        for i, (row, gain) in enumerate(zip(rows, gains)):
            best = payoff(i, row, chi, base, bids, w, alpha)
            start = payoff(i, chi[i], chi, base, bids, w, alpha)
            tol = 1e-10 * max(abs(best), 1.0)
            assert gain == pytest.approx(best - start, abs=tol)
            assert gain >= -tol
            q = chi[i].sum()
            for y in rng.dirichlet(np.ones(chi.shape[1]) * 0.5, size=50) * q:
                assert payoff(i, y, chi, base, bids, w, alpha) <= best + tol
