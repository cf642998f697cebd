"""Independent equilibrium computation and verification.

The supplier game's unique equilibrium is characterized as the maximizer
of a separable concave potential over the supply simplex. This module
solves that program in closed forms (each supply at a price is a
quadratic's root, one bisection finds the price, the potential is
elementary) and all customers' exact best responses in one water-filling
pass. It shares no code with the iterative solver, so agreement between
the two is meaningful evidence, save one batched call of the solver's
simplex projection in ``best_response``; that import keeps its name
because the benchmark's traced pass counts its calls.

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
from .market_model import Scenario, es_profit, te_utility

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


_TOL = 1e-10  # relative tolerance of the price bisection's load balance


def _stationarity(f, load, a2, a1):
    """((L - f)/(L - 2f)) * C'(f); strictly increasing on [0, L/2)."""
    return (load - f) / (load - 2.0 * f) * (2.0 * a2 * f + a1)


def _supply_at_price(phi, load, a2, a1):
    """Each supplier's unique f in [0, L/2) with stationarity(f) = phi.

    That f is the smaller root of 2 a2 f^2 - b f + c with
    b = 2 a2 L - a1 + 2 phi and c = (phi - a1) L, taken as the
    cancellation-free 2c / (b + sqrt(b^2 - 8 a2 c)); the discriminant is
    4 a2 L (a2 L + a1) + (2 phi - a1)^2 >= 0. Zero where a1 >= phi.
    """
    c = (phi - a1) * load
    b = 2.0 * a2 * load - a1 + 2.0 * phi
    disc = 4.0 * a2 * load * (a2 * load + a1) + (2.0 * phi - a1) ** 2
    f = np.divide(2.0 * c, b + np.sqrt(disc), out=np.zeros(np.shape(c)),
                  where=c > 0)
    return np.minimum(f, 0.5 * load * (1.0 - 1e-12))


def solve_supplier_equilibrium(load: float,
                               cost_coeffs) -> SupplierEquilibrium:
    """Solve the supplier game at one slot.

    Bisection runs on the equilibrium price phi (total supply is
    increasing in phi); at each candidate price every supplier's supply is
    the closed-form root of its stationarity condition on [0, L/2). Two-
    supplier markets are refused: their symmetric stationary point sits on
    the boundary supply = L/2, so no interior equilibrium exists.
    """
    coeffs = np.atleast_2d(np.asarray(cost_coeffs, dtype=float))
    m = coeffs.shape[0]
    if m < 2:
        raise DomainError("supplier equilibrium needs at least two suppliers")
    if m == 2:
        raise TwoSupplierMarketError(
            "two-supplier markets are degenerate: total interior supply is "
            "capped below the load, so no equilibrium exists")
    if not load > 0:
        raise DomainError("load must be positive")
    a2, a1 = coeffs[:, 0], coeffs[:, 1]

    def total_supply(phi: float) -> tuple[float, np.ndarray]:
        f = _supply_at_price(phi, load, a2, a1)
        return float(f.sum()), f

    phi_hi = max(float(np.max(_stationarity(load / m, load, a2, a1))), _TOL)
    total, f = total_supply(phi_hi)
    while total < load:
        phi_hi *= 2.0
        if not phi_hi < 1e280:  # also stops a NaN price
            raise NoEquilibriumError("could not bracket an equilibrium price")
        total, f = total_supply(phi_hi)
    phi_lo = 0.0
    for _ in range(200):
        phi = 0.5 * (phi_lo + phi_hi)
        total, f = total_supply(phi)
        if abs(total - load) <= _TOL * load:
            break
        if total < load:
            phi_lo = phi
        else:
            phi_hi = phi
    else:
        phi = 0.5 * (phi_lo + phi_hi)
        total, f = total_supply(phi)
        if abs(total - load) > 10 * _TOL * load:
            raise NoEquilibriumError(
                f"price bisection stalled at residual {abs(total - load)}")

    kkt = np.abs(_stationarity(f, load, a2, a1) - phi)[f > 0].max(initial=0.0)
    residual = max(float(kkt) / max(phi, 1e-300), abs(total - load) / load)
    return SupplierEquilibrium(price=phi, supplies=f,
                               implied_bids=f / phi, residual=residual)


# --------------------------------------------------------------------------
# Potential function
# --------------------------------------------------------------------------

def psi(f: float, load: float, coeffs) -> float:
    """Per-supplier potential whose summed negation peaks at equilibrium.

    ((L-f)/(L-2f)) * C(f) minus the integral of L*C(pi)/(L-2*pi)^2 from 0
    to f. In u = L - 2*pi the integrand splits into terms in 1/u^2, 1/u
    and a constant, so the integral is C(L/2)*f/(L-2f)
    + (L*(a2*L + a1)/4)*log1p(-2f/L) + a2*L*f/4. Its 1/(L-2f) part cancels
    against the front term; what remains is evaluated. Constant costs give
    psi == a0 identically.
    """
    if not 0.0 <= f < 0.5 * load:
        raise DomainError("supply must lie in [0, load/2)")
    a2, a1, a0 = coeffs
    log_term = 0.25 * load * (a2 * load + a1) * np.log1p(-2.0 * f / load)
    return float(a0 + 0.5 * a1 * f - 0.5 * a2 * f * (load - f) - log_term)


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
    if n_probes < 0:
        raise DomainError("probe count must be nonnegative")
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

def best_response(chi: np.ndarray, base: np.ndarray, bids: np.ndarray,
                  w: np.ndarray, alpha: np.ndarray):
    """Solve every customer's concave program exactly, others held fixed.

    Water-filling: each slot's payoff gradient U'(x) - (o + 2x)/Lambda is
    piecewise linear and strictly decreasing in the served demand x, so
    the demand at which it equals a multiplier nu is closed form. Every
    row bisects on its own nu until its bracket stops shrinking (a stopped
    row's nu stays put while others step) and meets its daily total; one
    batched simplex projection makes the rows exactly feasible. Returns
    (optimal_rows, payoff_gains), one per customer.
    """
    chi, base = np.asarray(chi, dtype=float), np.asarray(base, dtype=float)
    w, alpha = np.asarray(w, dtype=float), np.asarray(alpha, dtype=float)
    totals = np.asarray(bids, dtype=float).sum(axis=0)
    if np.any(totals <= 0):
        raise DegenerateMarketError("all bids are zero at some slot")
    others = (chi.sum(axis=0) - chi) + (base.sum(axis=0) - base)
    q = chi.sum(axis=1)

    def payoff(c: np.ndarray) -> np.ndarray:
        x = c + base
        return np.sum(te_utility(w, alpha, x) - x * (others + x) / totals,
                      axis=1)

    # Below saturation (x <= w/alpha) the gradient is top - slope * x;
    # beyond it, -(o + 2x)/Lambda. ``knee`` is its value at saturation.
    top = w - others / totals
    slope = alpha + 2.0 / totals
    knee = -(others + 2.0 * w / alpha) / totals

    def gradient(x: np.ndarray) -> np.ndarray:
        return np.where(x * alpha <= w, top - slope * x,
                        -(others + 2.0 * x) / totals)

    def demand(nu: np.ndarray) -> np.ndarray:
        nu = nu[:, None]
        x = np.where(nu >= knee, (top - nu) / slope,
                     -0.5 * (nu * totals + others))
        return np.maximum(x - base, 0.0)

    # At hi every slot's demand is zero; at lo each slot alone takes q.
    lo = np.min(gradient(base + q[:, None]), axis=1)
    hi = np.max(gradient(base), axis=1)
    nu = 0.5 * (lo + hi)
    while np.any((lo < nu) & (nu < hi)):
        above = demand(nu).sum(axis=1) > q
        lo = np.where(above, nu, lo)
        hi = np.where(above, hi, nu)
        nu = 0.5 * (lo + hi)
    c = project_simplex(demand(nu), q)
    return c, payoff(c) - payoff(chi)


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
