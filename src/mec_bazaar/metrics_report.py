"""Evaluation metrics: before/after economics, peak shaving, PAR.

The "before algorithm" state holds demand at the scenario's initial
shiftable profile and lets the supplier game alone run to its fixed
point, so the before/after comparison isolates the effect of demand
shifting rather than of bid initialization.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .bidding_games import EquilibriumResult, supplier_fixed_point
from .errors import DomainError
from .market_model import (
    AgentEconomics,
    MarketState,
    Scenario,
    compute_agent_economics,
    compute_market_state,
)
from .scenario_io import _write_csv

__all__ = [
    "par",
    "BaselineResult",
    "compute_baseline",
    "ComparisonReport",
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


@dataclass
class ComparisonReport:
    """Figure-ready before/after comparison of one solver run."""

    num_te: int
    num_es: int
    te_payout_before: np.ndarray   # (N,) daily totals
    te_payout_after: np.ndarray
    te_payoff_before: np.ndarray   # (N,)
    te_payoff_after: np.ndarray
    es_profit_before: np.ndarray   # (M,) daily totals
    es_profit_after: np.ndarray
    load_before: np.ndarray        # (T,)
    load_after: np.ndarray
    peak_before: float
    peak_after: float
    par_before: float
    par_after: float
    iterations: int
    status: str
    baseline_converged: bool
    runtime_seconds: float | None = None


def build_report(scenario: Scenario, baseline: BaselineResult,
                 result: EquilibriumResult,
                 runtime_seconds: float | None = None) -> ComparisonReport:
    """Fill every comparison metric from a baseline and a solver result."""
    before, after = baseline.economics, result.economics
    return ComparisonReport(
        num_te=scenario.num_te,
        num_es=scenario.num_es,
        te_payout_before=before.te_payout.sum(axis=1),
        te_payout_after=after.te_payout.sum(axis=1),
        te_payoff_before=before.te_payoff.copy(),
        te_payoff_after=after.te_payoff.copy(),
        es_profit_before=before.es_profit.sum(axis=1),
        es_profit_after=after.es_profit.sum(axis=1),
        load_before=baseline.state.load.copy(),
        load_after=result.state.load.copy(),
        peak_before=float(baseline.state.load.max()),
        peak_after=float(result.state.load.max()),
        par_before=par(baseline.state.load),
        par_after=par(result.state.load),
        iterations=result.iterations_used,
        status=result.status,
        baseline_converged=baseline.converged,
        runtime_seconds=runtime_seconds,
    )


def emit(report: ComparisonReport, out_dir: str) -> dict:
    """Write report.json and the per-figure CSV tables."""
    os.makedirs(out_dir, exist_ok=True)
    doc = {
        "num_te": report.num_te,
        "num_es": report.num_es,
        "iterations": report.iterations,
        "status": report.status,
        "baseline_converged": report.baseline_converged,
        "runtime_seconds": report.runtime_seconds,
        "peak_before": report.peak_before,
        "peak_after": report.peak_after,
        "par_before": report.par_before,
        "par_after": report.par_after,
        "mean_payout_reduction": float(np.mean(
            (report.te_payout_before - report.te_payout_after)
            / report.te_payout_before)),
        "total_profit_before": float(report.es_profit_before.sum()),
        "total_profit_after": float(report.es_profit_after.sum()),
        "te_payout_before": report.te_payout_before.tolist(),
        "te_payout_after": report.te_payout_after.tolist(),
        "te_payoff_before": report.te_payoff_before.tolist(),
        "te_payoff_after": report.te_payoff_after.tolist(),
        "es_profit_before": report.es_profit_before.tolist(),
        "es_profit_after": report.es_profit_after.tolist(),
        "load_before": report.load_before.tolist(),
        "load_after": report.load_after.tolist(),
    }
    paths = {"report": os.path.join(out_dir, "report.json")}
    with open(paths["report"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    paths["fig_demand"] = os.path.join(out_dir, "fig_demand.csv")
    _write_csv(paths["fig_demand"],
               ["slot", "load_before", "load_after"],
               ((t, float(report.load_before[t]),
                 float(report.load_after[t]))
                for t in range(report.load_before.size)))
    paths["fig_payout"] = os.path.join(out_dir, "fig_payout.csv")
    _write_csv(paths["fig_payout"],
               ["te_id", "payout_before", "payout_after"],
               ((i, float(report.te_payout_before[i]),
                 float(report.te_payout_after[i]))
                for i in range(report.num_te)))
    paths["fig_payoff"] = os.path.join(out_dir, "fig_payoff.csv")
    _write_csv(paths["fig_payoff"],
               ["te_id", "payoff_before", "payoff_after"],
               ((i, float(report.te_payoff_before[i]),
                 float(report.te_payoff_after[i]))
                for i in range(report.num_te)))
    paths["fig_profit"] = os.path.join(out_dir, "fig_profit.csv")
    _write_csv(paths["fig_profit"],
               ["es_id", "profit_before", "profit_after"],
               ((j, float(report.es_profit_before[j]),
                 float(report.es_profit_after[j]))
                for j in range(report.num_es)))
    paths["fig_par"] = os.path.join(out_dir, "fig_par.csv")
    _write_csv(paths["fig_par"],
               ["num_te", "par_before", "par_after"],
               [(report.num_te, report.par_before, report.par_after)])
    return paths
