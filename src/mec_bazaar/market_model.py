"""Domain types and pure economic functions of the resource market.

Everything in this module is a pure function of its arguments: the
customer's task utility, the market state (load, clearing price
load / SUM(bids), proportional supply split) derived from the strategy
matrices, and every agent's economics at that state (supplier revenue
and profit, customer payout and payoff), all in
``compute_agent_economics``. Derived per-slot quantities are never
stored on the scenario; they are always recomputed.

Conventions: demand and supply are measured in task-units, prices in
price-units per task-unit. Suppliers are indexed j = 0..M-1, customers
i = 0..N-1, slots t = 0..T-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from .errors import DegenerateMarketError, DimensionError, DomainError

__all__ = [
    "SolverConfig",
    "Scenario",
    "MarketState",
    "AgentEconomics",
    "te_utility",
    "compute_market_state",
    "compute_agent_economics",
]


# --------------------------------------------------------------------------
# Domain types
# --------------------------------------------------------------------------

_FIELD_KINDS = {"int": "an integer", "float": "a finite number",
                "float | None": "a finite number or null"}


@dataclass(frozen=True)
class SolverConfig:
    """Step-size schedule and stopping rule for the bidding games.

    ``eta1`` drives supplier bid ascent, ``eta2`` customer demand ascent;
    both shrink geometrically once per outer iteration. An ``eta*_init``
    of None (the default) sizes that step per slot from the slot's own
    bid total and load (``bidding_games.C1`` and ``C2`` times the decay);
    a number is an absolute step. The loop stops as soon as, in one
    iteration, the Frobenius distance between consecutive demand
    matrices and the one between consecutive bid matrices both fall
    below ``epsilon``. The supplier game alone (``supplier_fixed_point``)
    stops on the bid half of that rule.
    """

    eta1_init: float | None = None
    eta1_decay: float = 0.985
    eta2_init: float | None = None
    eta2_decay: float = 0.98
    epsilon: float = 0.3
    lambda_init: float = 20000.0
    max_iterations: int = 5000

    def validate(self) -> None:
        # Types first: a string, NaN or bool would slip past (or crash)
        # the range checks below.
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.type == "float | None":
                continue
            if isinstance(value, bool):
                ok = False
            elif f.type == "int":
                ok = isinstance(value, Integral)
            else:
                try:
                    ok = isinstance(value, Real) and math.isfinite(value)
                except OverflowError:  # an int too large for a float
                    ok = False
            if not ok:
                raise DomainError(f"solver.{f.name} must be "
                                  f"{_FIELD_KINDS[f.type]}, got {value!r}",
                                  field=f"solver.{f.name}")
        for name, ok, rule in (
                ("eta1_init", self.eta1_init is None or self.eta1_init > 0,
                 "positive or null"),
                ("eta2_init", self.eta2_init is None or self.eta2_init > 0,
                 "positive or null"),
                ("eta1_decay", 0 < self.eta1_decay <= 1, "in (0, 1]"),
                ("eta2_decay", 0 < self.eta2_decay <= 1, "in (0, 1]"),
                ("epsilon", self.epsilon > 0, "positive"),
                ("lambda_init", self.lambda_init >= 0, "nonnegative"),
                ("max_iterations", self.max_iterations >= 1, "at least 1")):
            if not ok:
                raise DomainError(f"solver.{name} must be {rule}, got "
                                  f"{getattr(self, name)!r}",
                                  field=f"solver.{name}")


ROW_SUM_TOL = 1e-9  # a feasible demand row's relative miss of its total


def row_sum_error(demand: np.ndarray, total: np.ndarray) -> float:
    """Largest miss of a demand row's sum against its customer's daily
    total, relative to ``max(|total|, 1)``."""
    return float((np.abs(demand.sum(axis=1) - total)
                  / np.maximum(np.abs(total), 1.0)).max())


@dataclass
class Scenario:
    """Immutable description of one market instance.

    ``cost_coeffs`` holds one quadratic-cost triple (a2, a1, a0) per
    supplier. ``utility_w`` / ``utility_alpha`` are per-customer per-slot
    utility coefficients. ``initial_demand`` is the drawn shiftable
    profile chi0; its row sums define ``shiftable_total`` and it doubles
    as the "before algorithm" demand profile.
    """

    num_es: int
    num_te: int
    num_slots: int
    cost_coeffs: np.ndarray      # (M, 3) columns a2, a1, a0
    utility_w: np.ndarray        # (N, T)
    utility_alpha: np.ndarray    # (N, T)
    base_demand: np.ndarray      # (N, T)
    shiftable_total: np.ndarray  # (N,)
    initial_demand: np.ndarray   # (N, T)
    solver: SolverConfig = field(default_factory=SolverConfig)
    seed: int = 0

    def validate(self) -> None:
        if self.num_es < 2:
            raise DomainError("need at least two suppliers (num_es >= 2)",
                              field="num_es")
        if self.num_te < 1:
            raise DomainError("need at least one customer (num_te >= 1)",
                              field="num_te")
        if self.num_slots < 1:
            raise DomainError("need at least one slot (num_slots >= 1)",
                              field="num_slots")
        m, n, t = self.num_es, self.num_te, self.num_slots
        shapes = {
            "cost_coeffs": (self.cost_coeffs, (m, 3)),
            "utility_w": (self.utility_w, (n, t)),
            "utility_alpha": (self.utility_alpha, (n, t)),
            "base_demand": (self.base_demand, (n, t)),
            "shiftable_total": (self.shiftable_total, (n,)),
            "initial_demand": (self.initial_demand, (n, t)),
        }
        for name, (arr, expect) in shapes.items():
            if arr.shape != expect:
                raise DimensionError(
                    f"{name} has shape {arr.shape}, expected {expect}",
                    field=name)
        # NaN fails every comparison below without raising, so check first
        bad = [name for name, (arr, _) in shapes.items()
               if not np.all(np.isfinite(arr))]
        if bad:
            raise DomainError(f"non-finite values in {', '.join(bad)}",
                              field=bad[0])
        if np.any(self.cost_coeffs[:, 0] <= 0):
            raise DomainError("cost_coeffs: a2 must be positive",
                              field="cost_coeffs")
        if np.any(self.cost_coeffs[:, 1:] < 0):
            raise DomainError("cost_coeffs: a1 and a0 must be nonnegative",
                              field="cost_coeffs")
        if np.any(self.utility_alpha <= 0):
            raise DomainError("utility_alpha must be positive",
                              field="utility_alpha")
        if np.any(self.utility_w <= 0):
            raise DomainError("utility_w must be positive",
                              field="utility_w")
        if np.any(self.base_demand < 0):
            raise DomainError("base_demand must be nonnegative",
                              field="base_demand")
        if np.any(self.shiftable_total < 0):
            raise DomainError("shiftable_total must be nonnegative",
                              field="shiftable_total")
        if np.any(self.initial_demand < 0):
            raise DomainError("initial_demand must be nonnegative",
                              field="initial_demand")
        if row_sum_error(self.initial_demand,
                         self.shiftable_total) > ROW_SUM_TOL:
            raise DomainError(
                "initial_demand row sums must equal shiftable_total",
                field="initial_demand")
        # a slot without load has no price and makes PAR undefined
        empty = (self.base_demand.sum(axis=0)
                 + self.initial_demand.sum(axis=0)) <= 0
        if np.any(empty):
            raise DomainError(
                f"slot {int(np.argmax(empty))} has no load: base_demand "
                "plus initial_demand sums to 0", field="base_demand")
        self.solver.validate()


@dataclass
class MarketState:
    """Per-slot derived quantities: load, clearing price, supply split."""

    load: np.ndarray    # (T,)
    price: np.ndarray   # (T,)
    supply: np.ndarray  # (M, T)


@dataclass
class AgentEconomics:
    """Per-agent economics at a fixed strategy profile.

    Identities: ``es_profit = es_revenue - cost`` entrywise and
    ``te_payoff = sum_t utility - sum_t payout`` per customer.
    """

    es_profit: np.ndarray   # (M, T)
    es_revenue: np.ndarray  # (M, T)
    te_payout: np.ndarray   # (N, T)
    te_payoff: np.ndarray   # (N,)


# --------------------------------------------------------------------------
# Pure operations
# --------------------------------------------------------------------------

def te_utility(w, alpha, x):
    """Saturating quadratic task utility.

    w*x - (alpha/2)*x^2 up to the saturation point x = w/alpha, constant
    w^2/(2*alpha) beyond it; continuous and nondecreasing.
    """
    w = np.asarray(w, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("served demand must be nonnegative")
    cap = w / alpha
    out = np.where(x <= cap, w * x - 0.5 * alpha * x * x,
                   w * w / (2.0 * alpha))
    return float(out) if out.ndim == 0 else out


def compute_market_state(chi: np.ndarray, base: np.ndarray,
                         bids: np.ndarray) -> MarketState:
    """Derive per-slot load, price and supply split from strategies."""
    chi = np.asarray(chi, dtype=float)
    base = np.asarray(base, dtype=float)
    bids = np.asarray(bids, dtype=float)
    if chi.shape != base.shape:
        raise DimensionError("demand and base demand must conform")
    if bids.shape[1] != chi.shape[1]:
        raise DimensionError("bids and demand must agree on slot count")
    load = (chi + base).sum(axis=0)
    totals = bids.sum(axis=0)
    if np.any(totals <= 0):
        slot = int(np.argmax(totals <= 0))
        raise DegenerateMarketError(
            f"all bids are zero at slot {slot}", slot=slot)
    price = load / totals
    supply = bids * (load / totals)
    return MarketState(load=load, price=price, supply=supply)


# Customers' economics are evaluated in blocks of whole rows of about this
# many bytes of float64, so their temporaries stay small beside the N x T
# arrays.
_BLOCK_BYTES = 1 << 16


def compute_agent_economics(chi: np.ndarray, base: np.ndarray,
                            bids: np.ndarray, cost_coeffs: np.ndarray,
                            w: np.ndarray, alpha: np.ndarray,
                            state: MarketState | None = None) -> AgentEconomics:
    """Evaluate all agents' economics at a fixed strategy profile.

    ``chi``, ``base``, ``w`` and ``alpha`` are N x T. The customers are
    evaluated ``_BLOCK_BYTES // (8 T)`` rows at a time, each block's payout
    written into the N x T ``te_payout``: every value passes through the
    same operations as on the whole arrays and every payoff sums within
    its own row, so the bits do not depend on the block size, while the
    utility's temporaries are only a block's.
    """
    if state is None:
        state = compute_market_state(chi, base, bids)
    a2 = cost_coeffs[:, 0][:, None]
    a1 = cost_coeffs[:, 1][:, None]
    a0 = cost_coeffs[:, 2][:, None]
    revenue = state.supply * state.price[None, :]
    cost = a2 * state.supply ** 2 + a1 * state.supply + a0
    profit = revenue - cost
    chi = np.asarray(chi, dtype=float)
    base = np.asarray(base, dtype=float)
    n, t_count = chi.shape
    payout = np.empty((n, t_count))
    payoff = np.empty(n)
    rows = max(1, _BLOCK_BYTES // (8 * max(t_count, 1)))
    for lo in range(0, n, rows):
        block = slice(lo, lo + rows)
        x = chi[block] + base[block]
        np.multiply(x, state.price[None, :], out=payout[block])
        utility = te_utility(w[block], alpha[block], x)
        payoff[block] = (utility - payout[block]).sum(axis=1)
    return AgentEconomics(es_profit=profit, es_revenue=revenue,
                          te_payout=payout, te_payoff=payoff)
