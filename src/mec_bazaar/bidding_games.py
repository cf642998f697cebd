"""Both noncooperative games as iterative updates, and their orchestration.

One outer iteration does, in order: per-slot supplier bid ascent (all
suppliers step simultaneously from the old column), a price refresh from
the fresh bids, then one demand ascent step for every customer against
that refreshed price (Jacobi style: all customers move from the same
snapshot). Step sizes decay geometrically once per outer iteration and
the loop stops when both games have settled: consecutive demand
matrices and consecutive bid matrices are each closer than epsilon in
Frobenius norm. The bid half is the rule ``supplier_fixed_point``
applies to the supplier game alone, so a converged run and the
fixed-load baseline settle their bids by the same criterion.

Each phase is one call to a vectorized kernel in ``_kernels``, which
updates every supplier (or every customer) at once; this module holds the
loop, the step schedule, the stopping rule and the trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DegenerateMarketError, DomainError
from .market_model import (
    AgentEconomics,
    MarketState,
    Scenario,
    SolverConfig,
    compute_agent_economics,
    compute_market_state,
)

__all__ = [
    "IterationTrace",
    "EquilibriumResult",
    "project_simplex",
    "run_dtoa",
    "supplier_fixed_point",
]

STATUS_CONVERGED = "converged"
STATUS_ITERATION_CAP = "iteration-cap-reached"


@dataclass
class IterationTrace:
    """Per-iteration convergence record of one solver run.

    ``delta`` is the Frobenius distance between consecutive demand
    matrices and ``bid_delta`` the one between consecutive bid matrices;
    ``price`` and ``load`` are the per-slot vectors the customers reacted
    to in that iteration.
    """

    iteration: np.ndarray                  # (G,)
    price: np.ndarray                      # (G, T)
    load: np.ndarray                       # (G, T)
    delta: np.ndarray                      # (G,)
    bid_delta: np.ndarray                  # (G,)
    eta1: np.ndarray                       # (G,)
    eta2: np.ndarray                       # (G,)


@dataclass
class EquilibriumResult:
    bids: np.ndarray        # (M, T)
    demand: np.ndarray      # (N, T)
    state: MarketState
    economics: AgentEconomics
    trace: IterationTrace
    status: str
    iterations_used: int


def project_simplex(v: np.ndarray, total) -> np.ndarray:
    """Euclidean projection of ``v`` onto {x >= 0, sum x = total}, for one
    row or for a stack of rows with one total per row."""
    if np.any(np.less(total, 0)):
        raise DomainError("projection total must be nonnegative")
    v = np.asarray(v, dtype=float)
    out = _kernels.project_rows_np(np.atleast_2d(v), np.atleast_1d(total))
    return out[0] if v.ndim == 1 else out


# --------------------------------------------------------------------------
# Orchestration
# --------------------------------------------------------------------------

def _degenerate(totals: np.ndarray, slot: int,
                iteration: int) -> DegenerateMarketError:
    """The error for a bid step whose totals left (0, inf) at ``slot``."""
    what = "collapsed to zero" if np.isfinite(totals[slot]) else "overflowed"
    return DegenerateMarketError(
        f"bids {what} at slot {slot}, iteration {iteration}",
        slot=slot, iteration=iteration)


def _threshold(cfg: SolverConfig, current: np.ndarray) -> float:
    """Stopping bound for one game's step: epsilon, scaled by the norm of
    the freshly updated matrix when ``relative_stopping`` is set."""
    if cfg.relative_stopping:
        return cfg.epsilon * max(float(np.linalg.norm(current)), 1e-300)
    return cfg.epsilon


def run_dtoa(scenario: Scenario) -> EquilibriumResult:
    """Iterate both games from the scenario's initial profiles.

    The run is converged once, in the same iteration, the demand step and
    the bid step are both below ``epsilon`` in Frobenius norm (each
    relative to its own matrix's norm when ``relative_stopping`` is set).
    A settled demand alone is not enough: the supplier game may still be
    moving toward its fixed point at that load.

    Deterministic for a fixed scenario: the initial demand comes from the
    scenario's seeded draw and bids start at ``lambda_init``.
    """
    scenario.validate()
    cfg = scenario.solver
    chi = np.ascontiguousarray(scenario.initial_demand, dtype=float)
    base = np.ascontiguousarray(scenario.base_demand, dtype=float)
    w = np.ascontiguousarray(scenario.utility_w, dtype=float)
    alpha = np.ascontiguousarray(scenario.utility_alpha, dtype=float)
    q = np.ascontiguousarray(scenario.shiftable_total, dtype=float)
    a2 = np.ascontiguousarray(scenario.cost_coeffs[:, 0], dtype=float)
    a1 = np.ascontiguousarray(scenario.cost_coeffs[:, 1], dtype=float)
    lam = np.full((scenario.num_es, scenario.num_slots), cfg.lambda_init,
                  dtype=float)

    eta1, eta2 = cfg.eta1_init, cfg.eta2_init
    rec_iter: list[int] = []
    rec_price: list[np.ndarray] = []
    rec_load: list[np.ndarray] = []
    rec_delta: list[float] = []
    rec_bid_delta: list[float] = []
    rec_eta1: list[float] = []
    rec_eta2: list[float] = []

    status = STATUS_ITERATION_CAP
    iterations = 0
    for g in range(1, cfg.max_iterations + 1):
        load = chi.sum(axis=0) + base.sum(axis=0)
        lam_new, totals, price, bad = _kernels.es_phase(
            lam, load, a2, a1, eta1, cfg.singularity_delta)
        if bad >= 0:
            raise _degenerate(totals, bad, g)
        chi_new = _kernels.te_phase(chi, base, w, alpha, load, totals, q,
                                    eta2)
        delta = float(np.linalg.norm(chi_new - chi))
        bid_delta = float(np.linalg.norm(lam_new - lam))
        rec_iter.append(g)
        rec_price.append(price)
        rec_load.append(load)
        rec_delta.append(delta)
        rec_bid_delta.append(bid_delta)
        rec_eta1.append(eta1)
        rec_eta2.append(eta2)
        chi = chi_new
        lam = lam_new
        iterations = g
        eta1 *= cfg.eta1_decay
        eta2 *= cfg.eta2_decay
        if (delta < _threshold(cfg, chi)
                and bid_delta < _threshold(cfg, lam)):
            status = STATUS_CONVERGED
            break

    trace = IterationTrace(
        iteration=np.array(rec_iter, dtype=int),
        price=np.array(rec_price),
        load=np.array(rec_load),
        delta=np.array(rec_delta),
        bid_delta=np.array(rec_bid_delta),
        eta1=np.array(rec_eta1),
        eta2=np.array(rec_eta2),
    )
    state = compute_market_state(chi, base, lam)
    econ = compute_agent_economics(chi, base, lam, scenario.cost_coeffs,
                                   w, alpha, state)
    return EquilibriumResult(bids=lam, demand=chi, state=state,
                             economics=econ, trace=trace, status=status,
                             iterations_used=iterations)


def supplier_fixed_point(loads: np.ndarray, cost_coeffs: np.ndarray,
                         solver: SolverConfig):
    """Run the supplier game alone at fixed per-slot loads.

    Same ascent rule, step schedule and stopping style as the full loop,
    applied to the bid matrix only: stop when consecutive bid matrices are
    closer than epsilon in Frobenius norm. Returns
    (bids, iterations_used, converged).
    """
    solver.validate()
    loads = np.ascontiguousarray(loads, dtype=float)
    a2 = np.ascontiguousarray(cost_coeffs[:, 0], dtype=float)
    a1 = np.ascontiguousarray(cost_coeffs[:, 1], dtype=float)
    lam = np.full((cost_coeffs.shape[0], loads.size), solver.lambda_init,
                  dtype=float)
    eta1 = solver.eta1_init
    converged = False
    iterations = 0
    for g in range(1, solver.max_iterations + 1):
        new_lam, totals, _, bad = _kernels.es_phase(
            lam, loads, a2, a1, eta1, solver.singularity_delta)
        if bad >= 0:
            raise _degenerate(totals, bad, g)
        delta = float(np.linalg.norm(new_lam - lam))
        lam = new_lam
        iterations = g
        eta1 *= solver.eta1_decay
        if delta < _threshold(solver, lam):
            converged = True
            break
    return lam, iterations, converged
