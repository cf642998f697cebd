"""Unit tests for the evaluation metrics and report emission."""

import json

import numpy as np
import pytest

from mec_bazaar.bidding_games import run_dtoa
from mec_bazaar.errors import DomainError
from mec_bazaar.market_model import te_utility
from mec_bazaar.metrics_report import (
    build_report,
    compute_baseline,
    emit,
    par,
)
from mec_bazaar.scenario_io import GenerationParams, generate_scenario


class TestPar:
    def test_direct(self):
        assert par(np.array([1.0, 1.0, 1.0, 5.0])) == pytest.approx(2.5)

    def test_flat_load(self):
        assert par(np.full(7, 3.3)) == pytest.approx(1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(DomainError):
            par(np.zeros(4))

    def test_at_least_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            loads = rng.uniform(0.0, 10.0, size=rng.integers(1, 30))
            if loads.sum() == 0:
                continue
            assert par(loads) >= 1.0


@pytest.fixture(scope="module")
def small_run():
    s = generate_scenario(GenerationParams(num_te=25, num_es=4,
                                           num_slots=6, seed=31))
    baseline = compute_baseline(s)
    result = run_dtoa(s)
    report = build_report(s, baseline, result, runtime_seconds=0.5)
    return s, baseline, result, report


class TestBaseline:
    def test_zero_shiftable_demand_keeps_loads(self):
        s = generate_scenario(GenerationParams(
            num_te=8, num_es=3, num_slots=4, seed=17,
            shiftable_fraction_range=(0.0, 0.0)))
        baseline = compute_baseline(s)
        result = run_dtoa(s)
        # nothing to shift: demand and loads identical before and after
        assert np.array_equal(result.demand, s.initial_demand)
        np.testing.assert_allclose(baseline.state.load, result.state.load,
                                   rtol=1e-12)

    def test_small_instance_prices_match_oracle(self):
        from mec_bazaar.equilibrium_oracle import solve_supplier_equilibrium
        from mec_bazaar.market_model import SolverConfig
        cfg = SolverConfig(eta1_init=0.2, eta1_decay=1.0, epsilon=1e-9,
                           lambda_init=20.0, max_iterations=200_000)
        s = generate_scenario(GenerationParams(
            num_te=4, num_es=3, num_slots=3, seed=23,
            base_demand_range=(10.0, 40.0), a2_range=(0.005, 0.05),
            solver=cfg))
        baseline = compute_baseline(s)
        assert baseline.converged
        for t in range(3):
            eq = solve_supplier_equilibrium(float(baseline.state.load[t]),
                                            s.cost_coeffs)
            assert baseline.state.price[t] == pytest.approx(eq.price,
                                                            rel=1e-3)

    def test_iteration_cap_flag(self):
        from mec_bazaar.market_model import SolverConfig
        s = generate_scenario(GenerationParams(num_te=8, num_es=3,
                                               num_slots=4, seed=17))
        s.solver = SolverConfig(max_iterations=2)
        baseline = compute_baseline(s)
        assert not baseline.converged
        assert baseline.iterations == 2


class TestReport:
    def test_fields_filled(self, small_run):
        s, baseline, result, report = small_run
        assert report["num_te"] == 25 and report["num_es"] == 4
        assert report["peak_before"] == baseline.state.load.max()
        assert report["peak_after"] == result.state.load.max()
        assert report["par_before"] >= 1.0 and report["par_after"] >= 1.0
        assert report["iterations"] == result.iterations_used
        assert report["runtime_seconds"] == 0.5

    def test_payoff_identity(self, small_run):
        s, baseline, result, report = small_run
        util_before = te_utility(s.utility_w, s.utility_alpha,
                                 s.initial_demand + s.base_demand).sum(axis=1)
        util_after = te_utility(s.utility_w, s.utility_alpha,
                                result.demand + s.base_demand).sum(axis=1)
        lhs = np.subtract(report["te_payoff_after"],
                          report["te_payoff_before"])
        rhs = ((util_after - util_before)
               - np.subtract(report["te_payout_after"],
                             report["te_payout_before"]))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    def test_demand_conserved(self, small_run):
        _, _, _, report = small_run
        assert np.sum(report["load_after"]) == pytest.approx(
            np.sum(report["load_before"]), rel=1e-9)

    def test_identical_states_give_zero_deltas(self, small_run):
        s, baseline, result, report = small_run
        same = build_report(s, baseline, run_dtoa(s))
        # rebuilding from the same deterministic run changes nothing
        np.testing.assert_array_equal(same["te_payout_after"],
                                      report["te_payout_after"])
        np.testing.assert_array_equal(same["load_after"],
                                      report["load_after"])


class TestEmit:
    def test_csv_bundle(self, small_run, tmp_path):
        _, _, _, report = small_run
        paths = emit(report, tmp_path / "rep")
        doc = json.loads(open(paths["report"]).read())
        assert doc["par_before"] == pytest.approx(report["par_before"])
        assert len(doc["te_payout_before"]) == 25
        demand_lines = open(paths["fig_demand"]).read().splitlines()
        assert demand_lines[0] == "slot,load_before,load_after"
        assert len(demand_lines) == 1 + 6
        par_lines = open(paths["fig_par"]).read().splitlines()
        assert par_lines[0] == "num_te,par_before,par_after"
        assert par_lines[1].startswith("25,")
        profit_lines = open(paths["fig_profit"]).read().splitlines()
        assert len(profit_lines) == 1 + 4

