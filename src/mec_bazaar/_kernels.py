"""Hot numeric kernels of the solver loop, vectorized in numpy.

The solver's inner loop is three phases per iteration: a per-slot supplier
bid update, a per-customer demand update, and batched simplex projection.
Every agent's update is computed at once, as whole-array operations over
the bid matrix (M x T) and the demand matrix (N x T). The two ascent
directions are kernels of their own, so the gradient check evaluates the
same code the solver steps along. All kernels are deterministic.
"""

from __future__ import annotations

import numpy as np


def project_rows_np(cand: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Project each row of ``cand`` onto {x >= 0, sum x = total}.

    Exact sort-and-threshold projection, vectorized over rows.
    """
    r, t = cand.shape
    u = np.sort(cand, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    k = np.arange(1.0, t + 1.0)
    cond = u * k > css - totals[:, None]
    any_true = cond.any(axis=1)
    rho = t - 1 - np.argmax(cond[:, ::-1], axis=1)
    rows = np.arange(r)
    theta = (css[rows, rho] - totals) / (rho + 1.0)
    out = np.maximum(cand - theta[:, None], 0.0)
    out[~any_true] = 0.0
    return out


def es_direction(lam, load, a2, a1, delta):
    """Every supplier's bid-ascent direction at every slot.

    price - ((L-f)/(L-2f)) * C'(f) with f the proportional share. On the
    Lemma-1 region f < L/2 this has the sign of the true profit
    derivative (they differ by the positive factor (L-2f)/sum(bids)).
    Once a share reaches (1/2 - delta) of the load the factor blows up,
    so the direction is clamped to -price, pushing the bid back toward
    the stable region. The bids of each slot must not sum to zero.
    """
    totals = lam.sum(axis=0)
    price = load / totals
    f = lam * (load / totals)
    guard = f >= (0.5 - delta) * load
    denom = np.where(guard, 1.0, load - 2.0 * f)
    marginal = 2.0 * a2[:, None] * f + a1[:, None]
    return np.where(guard, -price, price - (load - f) / denom * marginal)


def es_phase(lam, load, a2, a1, eta1, delta):
    """One simultaneous bid-ascent step for every supplier at every slot.

    Returns (new_bids, new_bid_totals, refreshed_price, bad_slot) where
    bad_slot is the first slot whose bids sum to zero or overflow to a
    non-finite total (-1 if none). Bids step along ``es_direction`` and
    are clipped at zero.
    """
    totals = lam.sum(axis=0)
    if np.any(totals <= 0.0):
        return lam, totals, totals, int(np.argmax(totals <= 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        new_lam = np.maximum(
            lam + eta1 * es_direction(lam, load, a2, a1, delta), 0.0)
        new_totals = new_lam.sum(axis=0)
    bad = ~(np.isfinite(new_totals) & (new_totals > 0.0))
    if np.any(bad):
        return new_lam, new_totals, load / totals, int(np.argmax(bad))
    new_price = load / new_totals
    return new_lam, new_totals, new_price, -1


def te_gradient(chi, base, w, alpha, load, totals):
    """Exact partial derivative of each customer's payoff in its demand.

    U'(x) - (L + x) / sum(bids) with x = chi + base, per customer and
    slot; the second term carries the customer's own impact on the
    clearing price. ``load`` and ``totals`` are per-slot.
    """
    x = chi + base
    up = np.where(x * alpha <= w, w - alpha * x, 0.0)
    return up - (load + x) / totals


def te_phase(chi, base, w, alpha, load, totals, q, eta2):
    """One simultaneous demand-ascent step for every customer row.

    Steps along ``te_gradient``, then projects each row back onto its
    fixed daily total (Euclidean projection).
    """
    grad = te_gradient(chi, base, w, alpha, load, totals)
    return project_rows_np(chi + eta2 * grad, q)
