"""Hot numeric kernels of the solver loop, vectorized in numpy.

The solver's inner loop is three phases per iteration: a per-slot supplier
bid update, a per-customer demand update, and batched simplex projection.
Every agent's update is computed at once, as whole-array operations over
the bid matrix (M x T) and the demand matrix. The two ascent directions
are kernels of their own, so the gradient check evaluates the same code
the solver steps along. All kernels are deterministic.

The customer-phase kernels (``te_gradient``, ``te_phase``,
``project_rows_np``) work slot-major: their demand arrays are T x N, one
row per slot and one column per customer, the transpose of the N x T
tables the scenario and the result bundle hold. Everything the customer
step adds or divides per slot (load, bid total, step size) is then one
scalar per row, broadcast along N contiguous entries, and each
customer's daily sum runs over axis 0. The kernels take optional
keyword-only output and scratch buffers, so the solver loop can run them
in a workspace it allocates once (see ``bidding_games.run_dtoa``).
``te_phase`` runs the whole customer step in its output: the gradient
is built there, stepped and projected in place, as the projection may
write over its input. A buffer not given is allocated and the same
in-place sequence of ufuncs runs on it, so a call gives the same bits
with or without a workspace.

The projection shifts each customer's column uniformly by its excess
over the daily total and sorts only the columns where that shift drives
an entry below zero; its bits are those of the shift, not of a full
sort-and-threshold pass, with which it agrees to rounding.

The customer gradient takes the utility slope U'(x) = max(w - alpha x, 0)
unless told (``live=False``) that the market has no "live" pair, one
with fl(alpha * base) <= w; the solver asks ``any_live`` once per run.
On a market without one it is the price term alone. This is
exact: the projection keeps chi >= 0, so x = fl(chi + base) >= base, and
with alpha > 0, fl(alpha * x) >= fl(alpha * base) > w on a pair that is
not live, where the max is therefore exactly 0.0. A market
``generate_scenario`` makes with the default ranges has no live pair
(alpha * base >= 4830 w), so there the gradient is the price term
alone; a market with a live pair takes the full formula on every pair.
"""

from __future__ import annotations

import numpy as np

LEMMA1_MARGIN = 1e-6  # es_direction clamps a share of (1/2 - this) load


def _per_slot(v):
    """A per-slot vector as a column, so that it broadcasts across the
    customers of a T x N array; a scalar as it is."""
    v = np.asarray(v)
    return v[:, None] if v.ndim == 1 else v


def project_rows_np(cand: np.ndarray, totals: np.ndarray, *,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Project each column of the T x N ``cand`` (one customer's demand
    over the slots) onto {x >= 0, sum x = total}.

    Fast path: shift every column uniformly by theta = (column sum -
    total) / T, the column sum being numpy's ``sum`` over axis 0. A
    column whose shifted entries are all >= 0 is then its own
    projection, as no entry clips; this holds for every column of the
    reference and wide runs, so the fast path sorts nothing. Only the
    other columns (a negative entry, a NaN, or a theta that is not
    finite) go to the sort-and-threshold projection ``_project_sorted``,
    which treats each column on its own.

    The columns are told apart before the shift, so that it can run in
    place: for finite c and theta, fl(c - theta) >= 0 exactly when
    c >= theta, so a column keeps the shift when theta is finite and
    its smallest entry is >= theta (a NaN entry fails this, as the
    minimum propagates it). Every column does when the smallest entry
    of ``cand`` is >= the largest theta, which is tested first.

    ``totals`` holds one total per column, or one for all. ``out``
    receives the projection; it is allocated when not given, and may be
    ``cand`` itself.
    """
    t = cand.shape[0]
    theta = cand.sum(axis=0)
    theta -= totals
    theta /= float(t)
    finite = np.isfinite(theta)
    clipped = None
    if not (finite.all()
            and cand.min(initial=np.inf) >= theta.max(initial=-np.inf)):
        slow = ~(finite & (cand.min(axis=0) >= theta))
        if slow.any():
            clipped = _project_sorted(
                cand[:, slow], np.broadcast_to(totals, theta.shape)[slow])
    out = np.subtract(cand, theta, out=out)
    if clipped is not None:
        out[:, slow] = clipped
    return out


def _project_sorted(cand, totals):
    """Sort-and-threshold projection of each column of ``cand``: the
    general case behind ``project_rows_np``. With the column sorted
    descending (u) and css its running sum, the threshold index rho is
    the last k with u_k (k+1) > css_k - total."""
    t, r = cand.shape
    u = np.sort(cand, axis=0)[::-1]
    css = np.cumsum(u, axis=0)
    k = np.arange(1.0, t + 1.0)[:, None]
    cond = u * k > css - totals
    any_true = cond.any(axis=0)
    rho = t - 1 - np.argmax(cond[::-1], axis=0)
    theta = (css[rho, np.arange(r)] - totals) / (rho + 1.0)
    out = np.maximum(cand - theta, 0.0)
    out[:, ~any_true] = 0.0
    return out


def es_direction(lam, load, a2, a1, *, price=None):
    """Every supplier's bid-ascent direction at every slot.

    price - ((L-f)/(L-2f)) * C'(f) with f the proportional share. On the
    Lemma-1 region f < L/2 this has the sign of the true profit
    derivative (they differ by the positive factor (L-2f)/sum(bids)).
    Once a share reaches (1/2 - LEMMA1_MARGIN) of the load the factor
    blows up, so the direction is clamped to -price, pushing the bid
    back toward the stable region. The bids of each slot must not sum
    to zero.

    ``price`` is the per-slot clearing price load / sum(bids); it is
    computed when not given.
    """
    if price is None:
        price = load / lam.sum(axis=0)
    f = lam * price
    guard = f >= (0.5 - LEMMA1_MARGIN) * load
    denom = 2.0 * f
    np.subtract(load, denom, out=denom)
    denom[guard] = 1.0
    marginal = 2.0 * a2[:, None] * f
    marginal += a1[:, None]
    out = np.subtract(load, f, out=f)
    out /= denom
    out *= marginal
    np.subtract(price, out, out=out)
    np.copyto(out, -price, where=guard)
    return out


def es_phase(lam, load, a2, a1, eta1, *, totals):
    """One simultaneous bid-ascent step for every supplier at every slot.

    Returns (new_bids, new_bid_totals, refreshed_price, bad_slot) where
    bad_slot is the first slot whose bids sum to zero or overflow to a
    non-finite total (-1 if none). Bids step along ``es_direction`` and
    are clipped at zero. ``totals`` is the per-slot sum of ``lam``, as
    the previous step returned it.
    """
    if (totals <= 0.0).any():
        return lam, totals, totals, int(np.argmax(totals <= 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        price = load / totals
        new_lam = es_direction(lam, load, a2, a1, price=price)
        new_lam *= eta1
        new_lam += lam
        np.maximum(new_lam, 0.0, out=new_lam)
        new_totals = new_lam.sum(axis=0)
    bad = ~(np.isfinite(new_totals) & (new_totals > 0.0))
    if bad.any():
        return new_lam, new_totals, price, int(np.argmax(bad))
    return new_lam, new_totals, load / new_totals, -1


def any_live(base, w, alpha):
    """Whether some (customer, slot) pair's utility slope is not flattened
    by base demand alone: False only when fl(alpha * base) > w on every
    pair. A NaN product counts as live.
    """
    return not np.greater(alpha * base, w).all()


def te_gradient(chi, base, w, alpha, load, totals, *, out=None, x=None,
                live=True):
    """Exact partial derivative of each customer's payoff in its demand.

    U'(x) - (L + x) / sum(bids) with x = chi + base, per slot and
    customer; the second term carries the customer's own impact on the
    clearing price. ``load`` and ``totals`` are per-slot (or scalars, for
    a single pair); ``base``, ``w`` and ``alpha`` have the shape of
    ``chi`` (T x N, or scalars), and chi >= 0 (the feasible set, which
    the projection keeps).

    U'(x) = max(w - alpha x, 0): for finite inputs, fl(w - alpha x) >= 0
    exactly when alpha x <= w, so this has the bits of the piecewise form.
    It is taken unless ``live`` is false, which a caller may pass only
    where ``any_live`` is false: every pair then gets the price term
    alone, 0.0 - (L + x) / sum(bids), with the same bits, as no pair is
    live, so fl(alpha * base) > w, and as x = fl(chi + base) >= base and
    alpha > 0, fl(alpha * x) >= fl(alpha * base) > w, so fl(w - alpha x)
    < 0 and the max is exactly 0.0. The default, ``live=True``, the full
    formula, gives the same bits on any market.

    ``out`` receives the gradient and ``x`` is scratch for chi + base;
    each is allocated in the shape of ``chi`` when not given. Without
    the utility slope the gradient is built in ``out`` itself, so ``x``
    is then neither needed nor written.
    """
    if out is None:
        out = np.empty(np.shape(chi))
    if not live:
        x = out
    elif x is None:
        x = np.empty(np.shape(chi))
    np.add(chi, base, out=x)
    # 0.0 - p, not -p: at p = 0.0 the full formula gives +0.0
    slope = 0.0
    if live:
        slope = np.multiply(alpha, x, out=out)
        np.subtract(w, slope, out=slope)
        np.maximum(slope, 0.0, out=slope)
    x += _per_slot(load)
    x /= _per_slot(totals)
    return np.subtract(slope, x, out=out)


def te_phase(chi, base, w, alpha, load, totals, q, eta2, *, out=None,
             scratch=None, live=True):
    """One simultaneous demand-ascent step for every customer.

    The arrays are T x N, one column per customer; ``load``, ``totals``
    and a per-slot step ``eta2`` (a scalar step is taken at every slot)
    broadcast across the customers. Steps along ``te_gradient``, then
    projects each column back onto its fixed daily total ``q``
    (Euclidean projection). ``live`` is handed to ``te_gradient``.

    The whole step runs in ``out``, which receives the new demand: the
    gradient is built there, stepped from ``chi`` and projected in
    place. ``scratch`` holds chi + base for the gradient where the
    utility slope is taken. Each is allocated when needed and not
    given; neither may overlap ``chi`` or the other. Once they are
    given, a call allocates only a few per-customer vectors.
    """
    out = te_gradient(chi, base, w, alpha, load, totals, out=out,
                      x=scratch, live=live)
    out *= _per_slot(eta2)
    out += chi
    return project_rows_np(out, q, out=out)
