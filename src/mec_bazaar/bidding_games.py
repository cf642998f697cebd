"""Both noncooperative games as iterative updates, and their orchestration.

One outer iteration does, in order: per-slot supplier bid ascent (all
suppliers step simultaneously from the old column), a price refresh from
the fresh bids, then one demand ascent step for every customer against
that refreshed price (Jacobi style: all customers move from the same
snapshot). Step sizes decay geometrically once per outer iteration and
the loop stops when both games have settled: consecutive demand
matrices and consecutive bid matrices are each closer than epsilon in
Frobenius norm.

By default (``eta1_init`` and ``eta2_init`` None) each step is sized
per slot t from the slot's bid total Lambda_t and load L_t, so that it
means the same at every market size: the supplier step is
``C1 * d1**k * Lambda_t**2 / L_t`` (the bid direction is in price units
and its slope in a bid is of order L_t / Lambda_t**2), the customer
step ``C2 * d2**k * Lambda_t / (N + 1)`` (the Jacobi step's Jacobian at
a slot is -(I + 11^T) / Lambda_t, of spectral radius (N + 1) /
Lambda_t). A gradient step is stable below 2 / Lipschitz, so the
customer multiplier must stay below 2; on the reference market one of
0.25 or more already takes more iterations than 0.1. A number in
``eta*_init`` is an absolute step, taken as given at every slot.

``run_dtoa`` and ``supplier_fixed_point`` (the supplier game alone at a
fixed load) take the same supplier step, ``_supplier_step``, with the
same degenerate-market checks, and stop their bids by the same
criterion, so a converged run and the fixed-load baseline compare
fairly.

Each phase is one call to a vectorized kernel in ``_kernels``, which
updates every supplier (or every customer) at once; this module holds the
loop, the step schedule, the stopping rule and the trace.
"""

from __future__ import annotations

import math
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

C1 = 0.1  # supplier step, in units of Lambda_t**2 / L_t
C2 = 0.1  # customer step, in units of Lambda_t / (N + 1)


@dataclass
class IterationTrace:
    """Per-iteration convergence record of one solver run.

    Row ``k`` records iteration ``k + 1``. ``delta`` is the Frobenius
    distance between consecutive demand matrices and ``bid_delta`` the
    one between consecutive bid matrices; ``price`` and ``load`` are the
    per-slot vectors the customers reacted to in that iteration.
    ``eta1`` and ``eta2`` are the steps of that iteration, or, for a
    step sized per slot, its multiplier ``C * d**k``.
    """

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
    # the kernel projects the columns of a slot-major (T x N) array
    out = _kernels.project_rows_np(np.atleast_2d(v).T, np.atleast_1d(total))
    return out[:, 0] if v.ndim == 1 else out.T


# --------------------------------------------------------------------------
# Orchestration
# --------------------------------------------------------------------------

def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm of the matrix ``a``; ``inf`` when its squares
    overflow. Summed by ``einsum`` rather than BLAS, so the stopping
    norms, and with them the bundle, do not depend on the BLAS thread
    count."""
    with np.errstate(over="ignore"):
        return math.sqrt(np.einsum("ij,ij->", a, a))


def _supplier_step(lam: np.ndarray, totals: np.ndarray, load: np.ndarray,
                   a2: np.ndarray, a1: np.ndarray, eta1: float,
                   cfg: SolverConfig, iteration: int):
    """One simultaneous bid step of every supplier at per-slot ``load``.

    ``totals`` is the per-slot sum of ``lam``. ``eta1`` is the step, or,
    when ``cfg.eta1_init`` is None, the multiplier of the per-slot step
    ``eta1 * Lambda_t**2 / L_t``. Returns (new_bids, new_totals, price,
    step_norm), the last being the Frobenius norm of the step. Raises
    :class:`DegenerateMarketError` when the bids collapse to zero or
    overflow at some slot, or when the step is too large for a finite
    norm (reported at the slot with the largest move).
    """
    if cfg.eta1_init is None:
        with np.errstate(over="ignore"):
            eta1 = eta1 * totals * totals / load
    new, totals, price, bad = _kernels.es_phase(lam, load, a2, a1, eta1,
                                                totals=totals)
    if bad >= 0:
        what = ("collapsed to zero" if np.isfinite(totals[bad])
                else "overflowed")
        raise DegenerateMarketError(
            f"bids {what} at slot {bad}, iteration {iteration}",
            slot=bad, iteration=iteration)
    step = new - lam
    norm = _frobenius(step)
    if not math.isfinite(norm):
        slot = int(np.argmax(np.abs(step).max(axis=0)))
        raise DegenerateMarketError(
            f"bid step overflowed at slot {slot}, iteration {iteration}",
            slot=slot, iteration=iteration)
    return new, totals, price, norm


def _check_lemma1(bids: np.ndarray, iteration: int) -> None:
    """Raise :class:`DegenerateMarketError` when a converged bid reaches
    the sum of its rivals' bids at some slot, so that its supplier would
    serve half the load or more (Lemma 1's region is every share below
    half). With two suppliers that region is empty, one share is always
    half or more, so the check starts at three. A loop that stops at its
    iteration cap says so instead; its bids may be mid-way there."""
    if bids.shape[0] < 3:
        return
    over = bids >= bids.sum(axis=0) - bids
    if over.any():
        es, slot = (int(i) for i in np.argwhere(over)[0])
        raise DegenerateMarketError(
            f"supplier {es}'s bid reaches its rivals' sum at slot {slot}, "
            f"iteration {iteration}", slot=slot, iteration=iteration)


def run_dtoa(scenario: Scenario) -> EquilibriumResult:
    """Iterate both games from the validated scenario's initial profiles.

    The scenario must have passed ``Scenario.validate`` (as
    ``load_scenario`` and ``generate_scenario`` leave it); only its
    solver block is checked again here, as a caller may have replaced it.

    The run is converged once, in the same iteration, the demand step and
    the bid step are both below ``epsilon`` in Frobenius norm. A settled
    demand alone is not enough: the supplier game may still be moving
    toward its fixed point at that load. Converged bids outside
    Lemma 1's region raise :class:`DegenerateMarketError`
    (``_check_lemma1``), as do bids that collapse or overflow.

    Deterministic for a fixed scenario, at any BLAS thread count: the
    initial demand comes from the scenario's seeded draw and bids start
    at ``lambda_init``.

    The customer phase runs slot-major, in T x N copies of the
    scenario's N x T tables (see ``_kernels``), made once: the current
    demand (a copy of the initial demand, so the scenario's own is never
    written) and the base demand, and the utility's ``w`` and ``alpha``
    only on a market where they are read. Besides these the workspace
    holds one spare, in which ``te_phase`` builds the gradient, steps
    and projects it into the new demand; the demand step, whose norm is
    taken, is then written over the old demand, and the two buffers
    swap every iteration. A market with live pairs adds a ``scratch``
    for chi + base; on any other market the gradient is built in the
    spare alone. The workspace is released and the final demand
    transposed back to N x T before the market state and agent
    economics are computed. The economics take the customers a block of
    rows at a time, so on every market the loop's workspace sets the
    run's memory peak.

    Whether any customer pair's utility can still slope up (``any_live``)
    is found once, before the workspace is allocated; on a market with
    no such pair the customer gradient is the price term alone. Base
    demand never moves and the projection keeps the demand nonnegative,
    so such a market stays flat for the whole run.
    """
    scenario.solver.validate()
    cfg = scenario.solver
    base = np.ascontiguousarray(scenario.base_demand, dtype=float)
    w = np.ascontiguousarray(scenario.utility_w, dtype=float)
    alpha = np.ascontiguousarray(scenario.utility_alpha, dtype=float)
    live = _kernels.any_live(base, w, alpha)
    chi = np.array(scenario.initial_demand.T, dtype=float, order="C")
    base_t = np.ascontiguousarray(base.T)
    if live:
        w_t = np.ascontiguousarray(w.T)
        alpha_t = np.ascontiguousarray(alpha.T)
        scratch = np.empty_like(chi)
    else:
        # never read; views keep the kernel's T x N shapes
        w_t, alpha_t, scratch = w.T, alpha.T, None
    spare = np.empty_like(chi)
    q = np.ascontiguousarray(scenario.shiftable_total, dtype=float)
    a2 = np.ascontiguousarray(scenario.cost_coeffs[:, 0], dtype=float)
    a1 = np.ascontiguousarray(scenario.cost_coeffs[:, 1], dtype=float)
    lam = np.full((scenario.num_es, scenario.num_slots), cfg.lambda_init,
                  dtype=float)
    totals = lam.sum(axis=0)

    eta1 = C1 if cfg.eta1_init is None else cfg.eta1_init
    eta2 = C2 if cfg.eta2_init is None else cfg.eta2_init
    customers = scenario.num_te + 1.0
    rec_price: list[np.ndarray] = []
    rec_load: list[np.ndarray] = []
    rec_delta: list[float] = []
    rec_bid_delta: list[float] = []
    rec_eta1: list[float] = []
    rec_eta2: list[float] = []

    status = STATUS_ITERATION_CAP
    iterations = 0
    base_load = base_t.sum(axis=1)
    for g in range(1, cfg.max_iterations + 1):
        load = chi.sum(axis=1)
        load += base_load
        lam, totals, price, bid_delta = _supplier_step(
            lam, totals, load, a2, a1, eta1, cfg, g)
        step2 = eta2 if cfg.eta2_init is not None else (
            eta2 * totals / customers)
        spare = _kernels.te_phase(chi, base_t, w_t, alpha_t, load, totals,
                                  q, step2, out=spare, scratch=scratch,
                                  live=live)
        delta = _frobenius(np.subtract(spare, chi, out=chi))
        rec_price.append(price)
        rec_load.append(load)
        rec_delta.append(delta)
        rec_bid_delta.append(bid_delta)
        rec_eta1.append(eta1)
        rec_eta2.append(eta2)
        chi, spare = spare, chi
        iterations = g
        eta1 *= cfg.eta1_decay
        eta2 *= cfg.eta2_decay
        if delta < cfg.epsilon and bid_delta < cfg.epsilon:
            status = STATUS_CONVERGED
            break

    trace = IterationTrace(
        price=np.array(rec_price),
        load=np.array(rec_load),
        delta=np.array(rec_delta),
        bid_delta=np.array(rec_bid_delta),
        eta1=np.array(rec_eta1),
        eta2=np.array(rec_eta2),
    )
    del spare, scratch, base_t, w_t, alpha_t
    demand = np.ascontiguousarray(chi.T)
    del chi
    if status == STATUS_CONVERGED:
        _check_lemma1(lam, iterations)
    state = compute_market_state(demand, base, lam)
    econ = compute_agent_economics(demand, base, lam, scenario.cost_coeffs,
                                   w, alpha, state)
    return EquilibriumResult(bids=lam, demand=demand, state=state,
                             economics=econ, trace=trace, status=status,
                             iterations_used=iterations)


def supplier_fixed_point(loads: np.ndarray, cost_coeffs: np.ndarray,
                         solver: SolverConfig):
    """Run the supplier game alone at fixed per-slot loads.

    The same supplier step, step schedule, bid stopping rule and
    Lemma-1 check at convergence as the full loop, applied to the bid
    matrix only: stop when consecutive bid matrices are closer than
    epsilon in Frobenius norm. Returns (bids, iterations_used,
    converged).
    """
    solver.validate()
    loads = np.ascontiguousarray(loads, dtype=float)
    a2 = np.ascontiguousarray(cost_coeffs[:, 0], dtype=float)
    a1 = np.ascontiguousarray(cost_coeffs[:, 1], dtype=float)
    lam = np.full((cost_coeffs.shape[0], loads.size), solver.lambda_init,
                  dtype=float)
    totals = lam.sum(axis=0)
    eta1 = C1 if solver.eta1_init is None else solver.eta1_init
    converged = False
    iterations = 0
    for g in range(1, solver.max_iterations + 1):
        lam, totals, _, delta = _supplier_step(lam, totals, loads, a2, a1,
                                               eta1, solver, g)
        iterations = g
        eta1 *= solver.eta1_decay
        if delta < solver.epsilon:
            converged = True
            break
    if converged:
        _check_lemma1(lam, iterations)
    return lam, iterations, converged
