"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``mec_bazaar``: the market model is re-derived from
its definitions so that agreement with the program's outputs is evidence,
not an echo of the same code.

- ``supplier_equilibrium``: the supplier game's equilibrium at one slot's
  load. Each supplier's supply at price phi solves
  ((L - f)/(L - 2f)) (2 a2 f + a1) = phi on [0, L/2); that is a quadratic
  in f with exactly one root there, taken in closed form. The price comes
  from bisection on sum_j f_j(phi) = L.
- ``best_responses``: every customer's exact best response to the others'
  demand and the bids, by water-filling on one multiplier per customer.
  The payoff gradient U'(x) - (o + 2x)/Lambda is piecewise linear and
  strictly decreasing in the customer's own demand, so each slot's demand
  at multiplier nu has a closed form, and bisection on nu meets the daily
  total.
"""

from __future__ import annotations

import json
import os

import numpy as np

# --------------------------------------------------------------------------
# Supplier side
# --------------------------------------------------------------------------


def supply_at_price(phi, load, a2, a1):
    """Each supplier's supply at price ``phi`` (vectorised over suppliers).

    Root in [0, L/2) of 2 a2 f^2 - (2 a2 L - a1 + 2 phi) f + (phi - a1) L,
    in the cancellation-free form 2C / (B + sqrt(B^2 - 4AC)); zero when
    phi does not exceed the marginal cost a1 at zero supply.
    """
    a2 = np.asarray(a2, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    c = (phi - a1) * load
    b = 2.0 * a2 * load - a1 + 2.0 * phi
    disc = np.maximum(b * b - 8.0 * a2 * c, 0.0)
    f = 2.0 * c / (b + np.sqrt(disc))
    return np.where(phi > a1, f, 0.0)


def stationarity(f, load, a2, a1):
    """((L - f)/(L - 2f)) * (2 a2 f + a1): a supplier's price at supply f."""
    return (load - f) / (load - 2.0 * f) * (2.0 * a2 * f + a1)


def supplier_equilibrium(load: float, a2, a1) -> tuple[float, np.ndarray]:
    """(price, supplies) of the supplier game at one slot's load.

    Needs at least three suppliers: total supply tends to M L / 2 as the
    price grows, so with M >= 3 a price clears the load.
    """
    a2 = np.asarray(a2, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    if a2.size < 3:
        raise ValueError("supplier equilibrium needs at least three suppliers")
    if load <= 0:
        raise ValueError("load must be positive")
    lo, hi = 0.0, max(1.0, float(a1.max()))
    while supply_at_price(hi, load, a2, a1).sum() < load:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if supply_at_price(mid, load, a2, a1).sum() < load:
            lo = mid
        else:
            hi = mid
    phi = 0.5 * (lo + hi)
    return phi, supply_at_price(phi, load, a2, a1)


# --------------------------------------------------------------------------
# Customer side
# --------------------------------------------------------------------------


def utility(w, alpha, x):
    """Saturating quadratic utility: w x - alpha x^2 / 2 up to x = w/alpha."""
    return np.where(x * alpha <= w, w * x - 0.5 * alpha * x * x,
                    w * w / (2.0 * alpha))


def payoffs(chi, base, bid_totals, w, alpha, others=None):
    """Daily payoff of every customer row of ``chi``.

    ``others`` is each customer's rivals' load per slot; by default it is
    derived from ``chi`` and ``base`` themselves.
    """
    x = chi + base
    if others is None:
        others = x.sum(axis=0)[None, :] - x
    price = (others + x) / bid_totals[None, :]
    return (utility(w, alpha, x) - x * price).sum(axis=1)


def marginal(c, base, others, bid_totals, w, alpha):
    """d payoff / d chi[i][t]: U'(x) - (o + 2x)/Lambda, x = chi + r."""
    x = c + base
    up = np.where(x * alpha <= w, w - alpha * x, 0.0)
    return up - (others + 2.0 * x) / bid_totals[None, :]


def _demand_at(nu, base, others, lam, w, alpha):
    """Each slot's demand where the marginal payoff equals ``nu``."""
    x1 = (w - others / lam - nu) / (alpha + 2.0 / lam)
    x2 = -(nu * lam + others) / 2.0
    x = np.where(x1 * alpha <= w, x1, x2)
    return np.maximum(x - base, 0.0)


def best_responses(chi, base, bid_totals, w, alpha):
    """Every customer's exact best response to the rest of the profile.

    Returns (rows, gains): the optimal demand rows (same daily totals as
    ``chi``) and each customer's payoff gain over its current row.
    """
    chi = np.asarray(chi, dtype=float)
    lam = np.asarray(bid_totals, dtype=float)[None, :]
    x = chi + base
    others = x.sum(axis=0)[None, :] - x
    q = chi.sum(axis=1)
    # At nu_hi every slot's demand is zero; at nu_lo each is at least q.
    nu_hi = marginal(np.zeros_like(chi), base, others, lam[0], w, alpha).max(
        axis=1)
    nu_lo = marginal(np.repeat(q[:, None], chi.shape[1], axis=1), base,
                     others, lam[0], w, alpha).min(axis=1)
    for _ in range(200):
        mid = 0.5 * (nu_lo + nu_hi)
        total = _demand_at(mid[:, None], base, others, lam, w, alpha).sum(
            axis=1)
        above = total > q
        nu_lo = np.where(above, mid, nu_lo)
        nu_hi = np.where(above, nu_hi, mid)
    rows = _demand_at(nu_hi[:, None], base, others, lam, w, alpha)
    # Close the last rounding gap of the total on the row's largest entry.
    idx = np.argmax(rows, axis=1)
    rows[np.arange(rows.shape[0]), idx] += q - rows.sum(axis=1)
    rows = np.maximum(rows, 0.0)
    gains = (payoffs(rows, base, lam[0], w, alpha, others)
             - payoffs(chi, base, lam[0], w, alpha, others))
    return rows, gains


# --------------------------------------------------------------------------
# Reading the program's files
# --------------------------------------------------------------------------


class Scenario:
    """The arrays of a scenario file, read with the json module."""

    def __init__(self, path: str):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        self.num_es = int(doc["num_es"])
        self.num_te = int(doc["num_te"])
        self.num_slots = int(doc["num_slots"])
        coeffs = np.asarray(doc["cost_coeffs"], dtype=float)
        self.a2, self.a1 = coeffs[:, 0], coeffs[:, 1]
        self.w = np.asarray(doc["utility_w"], dtype=float)
        self.alpha = np.asarray(doc["utility_alpha"], dtype=float)
        self.base = np.asarray(doc["base_demand"], dtype=float)
        self.q = np.asarray(doc["shiftable_total"], dtype=float)
        self.chi0 = np.asarray(doc["initial_demand"], dtype=float)


class Bundle:
    """A result bundle: result.json, demands.csv and bids.csv."""

    FILES = ("result.json", "trace.csv", "demands.csv", "bids.csv")

    def __init__(self, out_dir: str, scenario: Scenario):
        n, m, t = scenario.num_te, scenario.num_es, scenario.num_slots
        with open(os.path.join(out_dir, "result.json"), "r",
                  encoding="utf-8") as fh:
            self.summary = json.load(fh)
        demands = np.loadtxt(os.path.join(out_dir, "demands.csv"),
                             delimiter=",", skiprows=1, ndmin=2)
        bids = np.loadtxt(os.path.join(out_dir, "bids.csv"),
                          delimiter=",", skiprows=1, ndmin=2)
        grid_te = np.repeat(np.arange(n), t)
        grid_es = np.repeat(np.arange(m), t)
        slots_n = np.tile(np.arange(t), n)
        slots_m = np.tile(np.arange(t), m)
        if (demands.shape != (n * t, 4)
                or not np.array_equal(demands[:, 0], grid_te)
                or not np.array_equal(demands[:, 1], slots_n)):
            raise ValueError("demands.csv rows are not (te_id, slot) ordered")
        if (bids.shape != (m * t, 3)
                or not np.array_equal(bids[:, 0], grid_es)
                or not np.array_equal(bids[:, 1], slots_m)):
            raise ValueError("bids.csv rows are not (es_id, slot) ordered")
        self.chi_before = demands[:, 2].reshape(n, t)
        self.chi = demands[:, 3].reshape(n, t)
        self.bids = bids[:, 2].reshape(m, t)
        self.load = np.asarray(self.summary["load"], dtype=float)
        self.price = np.asarray(self.summary["price"], dtype=float)


def relative_gap(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def check_bundle(scenario: Scenario, bundle: Bundle) -> list[str]:
    """Properties every converged bundle must have; returns the failures."""
    errors = []
    if bundle.summary.get("status") != "converged":
        errors.append(f"status {bundle.summary.get('status')!r}")
    if not np.array_equal(bundle.chi_before, scenario.chi0):
        errors.append("chi_before differs from the scenario's initial demand")
    if np.any(bundle.chi < 0):
        errors.append("negative demand in demands.csv")
    scale = np.maximum(scenario.q, 1.0)
    row_err = np.max(np.abs(bundle.chi.sum(axis=1) - scenario.q) / scale)
    if row_err > 1e-9:
        errors.append(f"demand rows miss shiftable_total by {row_err:.3e}")
    load = (bundle.chi + scenario.base).sum(axis=0)
    if relative_gap(bundle.load, load) > 1e-10:
        errors.append("result load differs from sum(demand + base)")
    total = scenario.q.sum() + scenario.base.sum()
    if abs(bundle.load.sum() - total) > 1e-10 * total:
        errors.append("total load not conserved")
    totals = bundle.bids.sum(axis=0)
    if relative_gap(bundle.price, bundle.load / totals) > 1e-12:
        errors.append("price differs from load / sum(bids)")
    if np.any(bundle.bids >= totals[None, :] - bundle.bids):
        errors.append("a bid reaches the sum of its rivals' bids")
    return errors


def price_gap(scenario: Scenario, loads, prices) -> float:
    """Largest relative gap from ``prices`` to the equilibrium prices."""
    eq = [supplier_equilibrium(float(load), scenario.a2, scenario.a1)[0]
          for load in loads]
    return relative_gap(prices, eq)


def nash_gap(scenario: Scenario, bundle: Bundle) -> float:
    """Largest customer best-response gain over |payoff| at the bundle."""
    totals = bundle.bids.sum(axis=0)
    _, gains = best_responses(bundle.chi, scenario.base, totals,
                              scenario.w, scenario.alpha)
    pay = payoffs(bundle.chi, scenario.base, totals, scenario.w,
                  scenario.alpha)
    return float(np.max(gains / np.maximum(np.abs(pay), 1e-300)))
