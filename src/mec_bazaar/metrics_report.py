"""Evaluation metrics: before/after economics, peak shaving, PAR.

The "before algorithm" state holds demand at the scenario's initial
shiftable profile and lets the supplier game alone run to its fixed
point (``supplier_fixed_point``, which takes the same supplier step as
the full loop ``run_dtoa``), so the before/after comparison isolates the
effect of demand shifting rather than of bid initialization.

``build_report`` builds the ``report.json`` document; ``emit`` writes it
and the per-figure CSV tables drawn from its lists.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ._writers import write_indented_json, write_table
from .bidding_games import EquilibriumResult, supplier_fixed_point
from .errors import DomainError
from .market_model import (
    AgentEconomics,
    MarketState,
    Scenario,
    compute_agent_economics,
    compute_market_state,
)

__all__ = [
    "par",
    "BaselineResult",
    "compute_baseline",
    "build_report",
    "emit",
]


def par(loads: np.ndarray) -> float:
    """Peak-to-average ratio of a per-slot load vector."""
    loads = np.asarray(loads, dtype=float)
    if np.any(loads < 0):
        raise DomainError("loads must be nonnegative")
    mean = loads.mean()
    if mean <= 0:
        raise DomainError("PAR undefined for all-zero loads")
    return float(loads.max() / mean)


@dataclass
class BaselineResult:
    state: MarketState
    economics: AgentEconomics
    bids: np.ndarray
    converged: bool
    iterations: int


def compute_baseline(scenario: Scenario) -> BaselineResult:
    """Before-algorithm state: initial demand, supplier game at rest.

    Demand stays at the stored initial profile; the supplier game alone
    iterates to its own fixed point under the scenario's step schedule,
    and the baseline prices and economics are derived from that state.
    """
    scenario.validate()
    chi0 = scenario.initial_demand
    loads = (chi0 + scenario.base_demand).sum(axis=0)
    bids, iterations, converged = supplier_fixed_point(
        loads, scenario.cost_coeffs, scenario.solver)
    state = compute_market_state(chi0, scenario.base_demand, bids)
    econ = compute_agent_economics(chi0, scenario.base_demand, bids,
                                   scenario.cost_coeffs, scenario.utility_w,
                                   scenario.utility_alpha, state)
    return BaselineResult(state=state, economics=econ, bids=bids,
                          converged=converged, iterations=iterations)


def build_report(scenario: Scenario, baseline: BaselineResult,
                 result: EquilibriumResult,
                 runtime_seconds: float | None = None) -> dict:
    """The ``report.json`` document: every before/after comparison metric
    of a baseline and a solver result, per-customer and per-supplier
    values as daily totals."""
    before, after = baseline.economics, result.economics
    payout_before = before.te_payout.sum(axis=1)
    payout_after = after.te_payout.sum(axis=1)
    profit_before = before.es_profit.sum(axis=1)
    profit_after = after.es_profit.sum(axis=1)
    load_before, load_after = baseline.state.load, result.state.load
    return {
        "num_te": scenario.num_te,
        "num_es": scenario.num_es,
        "iterations": result.iterations_used,
        "status": result.status,
        "baseline_converged": baseline.converged,
        "runtime_seconds": runtime_seconds,
        "peak_before": float(load_before.max()),
        "peak_after": float(load_after.max()),
        "par_before": par(load_before),
        "par_after": par(load_after),
        "mean_payout_reduction": float(np.mean(
            (payout_before - payout_after) / payout_before)),
        "total_profit_before": float(profit_before.sum()),
        "total_profit_after": float(profit_after.sum()),
        "te_payout_before": payout_before.tolist(),
        "te_payout_after": payout_after.tolist(),
        "te_payoff_before": before.te_payoff.tolist(),
        "te_payoff_after": after.te_payoff.tolist(),
        "es_profit_before": profit_before.tolist(),
        "es_profit_after": profit_after.tolist(),
        "load_before": load_before.tolist(),
        "load_after": load_after.tolist(),
    }


# file, header, and the stem of the report keys "<stem>_before/_after"
_FIGURES = (
    ("fig_demand", "slot,load_before,load_after", "load"),
    ("fig_payout", "te_id,payout_before,payout_after", "te_payout"),
    ("fig_payoff", "te_id,payoff_before,payoff_after", "te_payoff"),
    ("fig_profit", "es_id,profit_before,profit_after", "es_profit"),
)


def emit(doc: dict, out_dir: str) -> dict:
    """Write a ``build_report`` document as report.json plus the
    per-figure CSV tables; return the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {"report": os.path.join(out_dir, "report.json")}
    write_indented_json(paths["report"], doc)
    for name, header, stem in _FIGURES:
        before, after = doc[stem + "_before"], doc[stem + "_after"]
        paths[name] = os.path.join(out_dir, name + ".csv")
        write_table(paths[name], header, [range(len(before)), before, after])
    paths["fig_par"] = os.path.join(out_dir, "fig_par.csv")
    write_table(paths["fig_par"], "num_te,par_before,par_after",
                [[doc["num_te"]], [doc["par_before"]], [doc["par_after"]]])
    return paths
