"""Independent equilibrium computation and verification.

The supplier game's unique equilibrium is characterized as the maximizer
of a separable concave potential over the supply simplex. This module
solves that program directly (nested bisections on the stationarity
condition), evaluates the potential by adaptive quadrature and solves
exact customer best responses. The equilibrium solve shares no code with
the iterative solver, so agreement between the two is meaningful
evidence; ``best_response`` reuses only the solver's simplex projection.

``check_gradients`` evaluates the solver's own direction kernels
(``_kernels.te_gradient`` and ``_kernels.es_direction``) against
independent central finite differences of the payoff functions in
``market_model``, so it tests the code the solver runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMarketError,
    DomainError,
    NoEquilibriumError,
    TwoSupplierMarketError,
)
from . import _kernels
from .bidding_games import project_simplex
from .market_model import Scenario, es_cost, es_profit, te_utility

__all__ = [
    "SupplierEquilibrium",
    "solve_supplier_equilibrium",
    "psi",
    "verify_supplier_equilibrium",
    "VerificationReport",
    "best_response",
    "check_gradients",
    "GradientCheckReport",
]


@dataclass
class SupplierEquilibrium:
    """Equilibrium of the supplier game at one slot."""

    price: float            # clearing price phi*
    supplies: np.ndarray    # (M,) equilibrium supplies, sum to the load
    implied_bids: np.ndarray  # (M,) slopes supplies / price
    residual: float         # max relative KKT residual


def _stationarity(f: float, load: float, a2: float, a1: float) -> float:
    """((L - f)/(L - 2f)) * C'(f); strictly increasing on [0, L/2)."""
    return (load - f) / (load - 2.0 * f) * (2.0 * a2 * f + a1)


def _supply_at_price(phi: float, load: float, a2: float, a1: float,
                     tol: float) -> float:
    """Unique f in [0, L/2) with stationarity(f) = phi (0 if none)."""
    if _stationarity(0.0, load, a2, a1) >= phi:
        return 0.0
    lo = 0.0
    hi = 0.5 * load * (1.0 - 1e-12)
    if _stationarity(hi, load, a2, a1) < phi:
        return hi
    while hi - lo > tol * load:
        mid = 0.5 * (lo + hi)
        if _stationarity(mid, load, a2, a1) < phi:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_supplier_equilibrium(load: float, cost_coeffs,
                               tol: float = 1e-10) -> SupplierEquilibrium:
    """Solve the supplier game at one slot by nested bisection.

    Outer bisection runs on the equilibrium price phi (total supply is
    increasing in phi); for each candidate price, every supplier's supply
    is the root of its stationarity condition on [0, L/2). Two-supplier
    markets are refused: their symmetric stationary point sits on the
    boundary supply = L/2, so no interior equilibrium exists.
    """
    coeffs = np.atleast_2d(np.asarray(cost_coeffs, dtype=float))
    m = coeffs.shape[0]
    if m < 2:
        raise DomainError("supplier equilibrium needs at least two suppliers")
    if m == 2:
        raise TwoSupplierMarketError(
            "two-supplier markets are degenerate: total interior supply is "
            "capped below the load, so no equilibrium exists")
    if load <= 0:
        raise DomainError("load must be positive")
    a2 = coeffs[:, 0]
    a1 = coeffs[:, 1]

    def total_supply(phi: float) -> tuple[float, np.ndarray]:
        f = np.array([
            _supply_at_price(phi, load, a2[j], a1[j], tol) for j in range(m)
        ])
        return float(f.sum()), f

    phi_hi = max(_stationarity(load / m, load, a2[j], a1[j])
                 for j in range(m))
    phi_hi = max(phi_hi, tol)
    total, f = total_supply(phi_hi)
    while total < load:
        phi_hi *= 2.0
        if phi_hi > 1e280:
            raise NoEquilibriumError(
                "could not bracket an equilibrium price")
        total, f = total_supply(phi_hi)
    phi_lo = 0.0
    for _ in range(200):
        phi = 0.5 * (phi_lo + phi_hi)
        total, f = total_supply(phi)
        if abs(total - load) <= tol * load:
            break
        if total < load:
            phi_lo = phi
        else:
            phi_hi = phi
    else:
        phi = 0.5 * (phi_lo + phi_hi)
        total, f = total_supply(phi)
        if abs(total - load) > 10 * tol * load:
            raise NoEquilibriumError(
                f"price bisection stalled at residual {abs(total - load)}")

    interior = f > 0
    kkt = 0.0
    for j in range(m):
        if interior[j]:
            kkt = max(kkt, abs(_stationarity(f[j], load, a2[j], a1[j]) - phi)
                      / max(phi, 1e-300))
    residual = max(kkt, abs(total - load) / load)
    return SupplierEquilibrium(price=phi, supplies=f,
                               implied_bids=f / phi, residual=residual)


# --------------------------------------------------------------------------
# Potential function
# --------------------------------------------------------------------------

def _simpson(func, a: float, b: float) -> float:
    return (b - a) / 6.0 * (func(a) + 4.0 * func(0.5 * (a + b)) + func(b))


def _adaptive_simpson(func, a, b, whole, tol, depth):
    mid = 0.5 * (a + b)
    left = _simpson(func, a, mid)
    right = _simpson(func, mid, b)
    err = left + right - whole
    if abs(err) <= 15.0 * tol or depth <= 0:
        return left + right + err / 15.0
    return (_adaptive_simpson(func, a, mid, left, 0.5 * tol, depth - 1)
            + _adaptive_simpson(func, mid, b, right, 0.5 * tol, depth - 1))


def psi(f: float, load: float, coeffs) -> float:
    """Per-supplier potential whose summed negation peaks at equilibrium.

    ((L-f)/(L-2f)) * C(f) minus the integral of L*C(pi)/(L-2*pi)^2 from 0
    to f, by adaptive Simpson quadrature. Constant costs give the closed
    form psi == a0 identically, which the tests use as an oracle.
    """
    if not 0.0 <= f < 0.5 * load:
        raise DomainError("supply must lie in [0, load/2)")

    def integrand(p: float) -> float:
        return load * es_cost(coeffs, p) / (load - 2.0 * p) ** 2

    front = (load - f) / (load - 2.0 * f) * es_cost(coeffs, f)
    if f == 0.0:
        return front
    whole = _simpson(integrand, 0.0, f)
    tol = 1e-8 * (1.0 + abs(whole))
    integral = _adaptive_simpson(integrand, 0.0, f, whole, tol, 48)
    return front - integral


@dataclass
class VerificationReport:
    objective: float
    max_excess: float
    violations: int
    probes: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def verify_supplier_equilibrium(eq: SupplierEquilibrium, costs, load: float,
                                n_probes: int = 200,
                                seed: int = 0) -> VerificationReport:
    """Probe the equilibrium objective against feasible perturbations.

    Redistributes load between random supplier pairs (staying inside
    [0, L/2) per supplier) and reports the largest objective excess of
    any probe over the equilibrium; a correct equilibrium admits none
    beyond 1e-8 * |objective|.
    """
    coeffs = np.atleast_2d(np.asarray(costs, dtype=float))
    m = coeffs.shape[0]

    def objective(f: np.ndarray) -> float:
        return -sum(psi(float(f[j]), load, coeffs[j]) for j in range(m))

    base = objective(eq.supplies)
    tolerance = 1e-8 * max(abs(base), 1.0)
    rng = np.random.default_rng(seed)
    cap = 0.5 * load * (1.0 - 1e-9)
    max_excess = 0.0
    violations = 0
    for _ in range(n_probes):
        j, k = rng.choice(m, size=2, replace=False)
        f = eq.supplies.copy()
        room = min(f[j], cap - f[k])
        if room <= 0:
            continue
        delta = rng.uniform(0.0, room)
        f[j] -= delta
        f[k] += delta
        excess = objective(f) - base
        max_excess = max(max_excess, excess)
        if excess > tolerance:
            violations += 1
    return VerificationReport(objective=base, max_excess=max_excess,
                              violations=violations, probes=n_probes,
                              tolerance=tolerance)


# --------------------------------------------------------------------------
# Customer side
# --------------------------------------------------------------------------

def best_response(chi: np.ndarray, base: np.ndarray, i: int,
                  bids: np.ndarray, w: np.ndarray, alpha: np.ndarray,
                  grad_tol: float = 1e-10,
                  max_iterations: int = 100_000):
    """Solve customer i's concave program exactly, others held fixed.

    Projected gradient ascent with the inverse-Lipschitz step; stops when
    the projected-gradient mapping norm drops below ``grad_tol``. Returns
    (optimal_row, payoff_gain); the gain is never negative because the
    ascent is monotone from the current row.
    """
    chi = np.asarray(chi, dtype=float)
    base = np.asarray(base, dtype=float)
    bids = np.asarray(bids, dtype=float)
    totals = bids.sum(axis=0)
    if np.any(totals <= 0):
        raise DegenerateMarketError("all bids are zero at some slot")
    others = (chi.sum(axis=0) - chi[i]) + (base.sum(axis=0) - base[i])
    r_i = base[i]
    w_i = np.asarray(w, dtype=float)[i]
    a_i = np.asarray(alpha, dtype=float)[i]
    q = float(chi[i].sum())

    def payoff(c: np.ndarray) -> float:
        x = c + r_i
        price = (others + x) / totals
        return float(np.sum(te_utility(w_i, a_i, x) - x * price))

    def gradient(c: np.ndarray) -> np.ndarray:
        x = c + r_i
        up = np.where(x * a_i <= w_i, w_i - a_i * x, 0.0)
        return up - (others + 2.0 * x) / totals

    lipschitz = float(np.max(a_i) + 2.0 / np.min(totals))
    step = 1.0 / lipschitz
    c = chi[i].copy()
    start = payoff(c)
    for _ in range(max_iterations):
        nxt = project_simplex(c + step * gradient(c), q)
        if float(np.linalg.norm(nxt - c)) * lipschitz <= grad_tol:
            c = nxt
            break
        c = nxt
    return c, payoff(c) - start


# --------------------------------------------------------------------------
# Derivative cross-checks
# --------------------------------------------------------------------------

@dataclass
class GradientCheckReport:
    max_te_rel_err: float
    max_es_rel_err: float
    sign_agreement: float    # fraction on the stable region
    interior_samples: int
    guarded_samples: int

    def passed(self, tol: float = 1e-6) -> bool:
        return (self.max_te_rel_err < tol and self.max_es_rel_err < tol
                and self.sign_agreement == 1.0)


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale < 1e-300:
        return 0.0
    return abs(a - b) / scale


def check_gradients(scenario: Scenario, n_samples: int = 100,
                    seed: int = 0) -> GradientCheckReport:
    """Compare the solver's direction kernels with finite differences.

    Samples random feasible states and one customer, supplier and slot
    per state. Checks ``_kernels.te_gradient`` against the finite
    difference of the customer's slot payoff, and the supplier profit
    derivative implied by ``_kernels.es_direction`` against the finite
    difference of ``es_profit``, together with the direction's sign, on
    the stable region share < load/2 (states beyond it are counted
    separately). Both kernels are called on the sampled slot only.
    """
    if n_samples < 1:
        raise DomainError("need at least one sample")
    rng = np.random.default_rng(seed)
    n, m, t_count = scenario.num_te, scenario.num_es, scenario.num_slots
    base = scenario.base_demand
    w, alpha = scenario.utility_w, scenario.utility_alpha
    a2, a1 = scenario.cost_coeffs[:, 0], scenario.cost_coeffs[:, 1]
    guard = scenario.solver.singularity_delta
    max_te = 0.0
    max_es = 0.0
    agree = 0
    interior = 0
    guarded = 0
    for _ in range(n_samples):
        raw = rng.uniform(0.1, 1.0, size=(n, t_count))
        chi = raw * (scenario.shiftable_total / raw.sum(axis=1))[:, None]
        lam = scenario.solver.lambda_init * rng.uniform(0.5, 2.0,
                                                        size=(m, t_count))
        i = int(rng.integers(n))
        j = int(rng.integers(m))
        t = int(rng.integers(t_count))
        lam_col = lam[:, t]
        total = lam_col.sum()
        load = float((chi[:, t] + base[:, t]).sum())

        # customer gradient vs finite difference of the slot payoff
        analytic = float(_kernels.te_gradient(
            chi[i, t], base[i, t], w[i, t], alpha[i, t], load, total))
        other = load - chi[i, t] - base[i, t]

        def slot_payoff(v: float) -> float:
            x = v + base[i, t]
            price = (other + x) / total
            return te_utility(w[i, t], alpha[i, t], x) - x * price

        h = 1e-7 * (1.0 + abs(chi[i, t]))
        fd = (slot_payoff(chi[i, t] + h) - slot_payoff(chi[i, t] - h)) / (2 * h)
        max_te = max(max_te, _rel_err(analytic, fd))

        # supplier profit derivative vs finite difference
        coeffs = scenario.cost_coeffs[j]
        f_j = lam_col[j] * load / total
        surrogate = float(_kernels.es_direction(
            lam[:, t:t + 1], load, a2, a1, guard)[j, 0])
        hl = 1e-6 * lam_col[j]

        def profit_at(v: float) -> float:
            col = lam_col.copy()
            col[j] = v
            return es_profit(col, j, load, coeffs)

        fd_p = (profit_at(lam_col[j] + hl)
                - profit_at(lam_col[j] - hl)) / (2 * hl)
        if f_j < (0.5 - guard) * load:
            interior += 1
            analytic_p = (load - 2.0 * f_j) / total * surrogate
            max_es = max(max_es, _rel_err(analytic_p, fd_p))
            same = np.sign(surrogate) == np.sign(fd_p)
            near_zero = (abs(surrogate) < 1e-9 * max(1.0, load / total)
                         and abs(fd_p) < 1e-9)
            if same or near_zero:
                agree += 1
        else:
            guarded += 1
    agreement = agree / interior if interior else 1.0
    return GradientCheckReport(max_te_rel_err=max_te, max_es_rel_err=max_es,
                               sign_agreement=agreement,
                               interior_samples=interior,
                               guarded_samples=guarded)
