"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every line.

The reference scenario is the paper-shaped default: M=10 suppliers,
N=1000 customers, T=24 slots, default solver schedule. Several criteria
are sensitive to the iteration-count and before/after-economics behavior
of that exact configuration; the tests implement the stated tolerances
verbatim and report honest outcomes.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from mec_bazaar.bidding_games import (
    STATUS_CONVERGED,
    run_dtoa,
    supplier_fixed_point,
)
from mec_bazaar.equilibrium_oracle import (
    best_response,
    check_gradients,
    solve_supplier_equilibrium,
    verify_supplier_equilibrium,
)
from mec_bazaar.market_model import SolverConfig
from mec_bazaar.metrics_report import compute_baseline, par
from mec_bazaar.scenario_io import GenerationParams, generate_scenario

SEEDS = (1, 2, 3, 4, 5)


def criterion(number: int, passed: bool, detail: str) -> str:
    line = f"CRITERION {number:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def table2_runs():
    """Reference runs for the five seeds, with baselines and timings."""
    runs = {}
    for seed in SEEDS:
        scenario = generate_scenario(GenerationParams(seed=seed))
        t0 = time.perf_counter()
        result = run_dtoa(scenario)
        runtime = time.perf_counter() - t0
        baseline = compute_baseline(scenario)
        runs[seed] = (scenario, result, baseline, runtime)
    return runs


def test_criterion_01_convergence_reproduction(table2_runs):
    details = []
    ok = True
    for seed, (_, result, _, runtime) in table2_runs.items():
        good = (result.status == STATUS_CONVERGED
                and 100 <= result.iterations_used <= 600
                and runtime <= 120.0)
        ok &= good
        details.append(f"seed {seed}: {result.iterations_used} it "
                       f"{runtime:.1f}s")
    line = criterion(1, ok, "converged in [100, 600] iterations, <= 120 s: "
                     + "; ".join(details))
    assert ok, line


def test_criterion_02_payout_savings(table2_runs):
    details = []
    ok = True
    for seed, (_, result, baseline, _) in table2_runs.items():
        before = baseline.economics.te_payout.sum(axis=1)
        after = result.economics.te_payout.sum(axis=1)
        reduction = float(np.mean((before - after) / before))
        ok &= 0.02 <= reduction <= 0.08
        details.append(f"seed {seed}: {reduction * 100:+.3f}% (baseline PAR "
                       f"{par(baseline.state.load):.4f})")
    line = criterion(2, ok, "mean payout reduction in [2%, 8%]: "
                     + "; ".join(details))
    assert ok, line


def test_criterion_03_peak_shaving(table2_runs):
    details = []
    ok = True
    for seed, (_, result, baseline, _) in table2_runs.items():
        peak_before = float(baseline.state.load.max())
        peak_after = float(result.state.load.max())
        conserved = abs(result.state.load.sum() - baseline.state.load.sum()) \
            <= 1e-9 * baseline.state.load.sum()
        ok &= peak_after <= 0.95 * peak_before and conserved
        # no load-conserving profile has its peak below the mean load
        floor = float(baseline.state.load.mean()) / peak_before
        details.append(f"seed {seed}: peak ratio {peak_after / peak_before:.5f}"
                       f" (lowest reachable {floor:.5f})"
                       f" conserved={conserved}")
    line = criterion(3, ok, "peak_after <= 0.95 * peak_before and load "
                     "conserved: " + "; ".join(details))
    assert ok, line


def test_criterion_04_par_improves(table2_runs):
    details = []
    ok = True
    for n in (200, 600, 1000):
        if n == 1000:
            scenario, result, baseline, _ = table2_runs[1]
        else:
            scenario = generate_scenario(GenerationParams(num_te=n, seed=1))
            result = run_dtoa(scenario)
            baseline = compute_baseline(scenario)
        par_before = par(baseline.state.load)
        par_after = par(result.state.load)
        ok &= par_after < par_before
        details.append(f"N={n}: {par_before:.5f} -> {par_after:.5f}")
    line = criterion(4, ok, "PAR_after < PAR_before for N in {200, 600, "
                     "1000}: " + "; ".join(details))
    assert ok, line


def test_criterion_05_profit_increases(table2_runs):
    details = []
    ok = True
    for seed, (_, result, baseline, _) in table2_runs.items():
        before = baseline.economics.es_profit.sum(axis=1)
        after = result.economics.es_profit.sum(axis=1)
        improved = int(np.sum(after > before))
        total_up = after.sum() > before.sum()
        ok &= total_up and improved >= 9
        details.append(
            f"seed {seed}: total {(after.sum() / before.sum() - 1) * 100:+.3f}%"
            f" improved {improved}/10"
            f" (baseline PAR {par(baseline.state.load):.4f})")
    line = criterion(5, ok, "aggregate profit up and >= 9/10 suppliers "
                     "improve: " + "; ".join(details))
    assert ok, line


@pytest.fixture(scope="module")
def oracle_instances():
    """20 random supplier-game instances solved by both routes."""
    rng = np.random.default_rng(2024)
    cases = []
    cfg = SolverConfig(eta1_init=0.2, eta1_decay=1.0, epsilon=1e-9,
                       lambda_init=20.0, max_iterations=100_000)
    for _ in range(20):
        m = int(rng.choice([3, 5]))
        coeffs = np.column_stack([
            rng.uniform(0.005, 0.05, m),
            rng.uniform(0.0, 0.1, m),
            np.full(m, 0.001),
        ])
        load = float(rng.uniform(50.0, 200.0))
        bids, _, converged = supplier_fixed_point(np.array([load]), coeffs,
                                                  cfg)
        eq = solve_supplier_equilibrium(load, coeffs)
        cases.append((m, load, coeffs, bids, converged, eq))
    return cases


def test_criterion_06_oracle_equivalence(oracle_instances):
    worst_rel = 0.0
    violations = 0
    ok = True
    for m, load, coeffs, bids, converged, eq in oracle_instances:
        price = load / bids[:, 0].sum()
        rel = abs(price - eq.price) / eq.price
        worst_rel = max(worst_rel, rel)
        report = verify_supplier_equilibrium(eq, coeffs, load, n_probes=100,
                                             seed=int(load * 1000) % 9973)
        violations += report.violations
        ok &= converged and rel <= 1e-3 and report.violations == 0
    line = criterion(6, ok, f"20 instances: worst price deviation "
                     f"{worst_rel:.2e} (tol 1e-3), probe violations "
                     f"{violations}")
    assert ok, line


def test_criterion_07_gradient_correctness():
    scenario = generate_scenario(GenerationParams(seed=1))
    report = check_gradients(scenario, n_samples=100, seed=7)
    ok = (report.max_te_rel_err < 1e-6 and report.max_es_rel_err < 1e-6
          and report.sign_agreement == 1.0)
    line = criterion(7, ok, f"customer grad err {report.max_te_rel_err:.2e}, "
                     f"supplier grad err {report.max_es_rel_err:.2e}, sign "
                     f"agreement {report.sign_agreement:.0%} on "
                     f"{report.interior_samples} interior states")
    assert ok, line


def test_criterion_08_lemma1_invariant(table2_runs, oracle_instances):
    ok = True
    checked = 0
    for seed, (_, result, baseline, _) in table2_runs.items():
        for bids in (result.bids, baseline.bids):
            totals = bids.sum(axis=0)
            ok &= bool(np.all(bids < totals - bids))
            checked += 1
    for _, load, _, bids, _, eq in oracle_instances:
        totals = bids.sum(axis=0)
        ok &= bool(np.all(bids < totals - bids))
        ok &= bool(np.all(eq.supplies < 0.5 * load))
        checked += 2
    line = criterion(8, ok, f"every bid below the rivals' sum in {checked} "
                     "converged strategy profiles")
    assert ok, line


def test_criterion_09_eps_nash_certification():
    cfg = SolverConfig(eta1_init=5.0, eta1_decay=1.0, eta2_init=200.0,
                       eta2_decay=1.0, epsilon=1e-3, lambda_init=200.0,
                       max_iterations=300_000)
    scenario = generate_scenario(GenerationParams(
        num_es=3, num_te=5, num_slots=4, seed=9, solver=cfg))
    result = run_dtoa(scenario)
    _, gains = best_response(result.demand, scenario.base_demand,
                             result.bids, scenario.utility_w,
                             scenario.utility_alpha)
    relative = gains / np.abs(result.economics.te_payoff)
    worst = max(0.0, float(relative.max()))
    ok = result.status == STATUS_CONVERGED and worst <= 1e-3
    line = criterion(9, ok, f"M=3 N=5 T=4: worst best-response gain "
                     f"{worst:.2e} of |payoff| (tol 1e-3)")
    assert ok, line


def _time_per_iteration(scenario, repeats=5):
    """Median solve time per iteration, and the run's iteration count.

    The iteration count varies with the market, so whole-solve wall time
    would compare iteration counts, not the cost of one iteration.
    """
    per_iteration = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run_dtoa(scenario)
        per_iteration.append((time.perf_counter() - t0)
                             / result.iterations_used)
    return float(np.median(per_iteration)), result.iterations_used


def test_criterion_10_scaling_shape():
    # warm the jit path so compilation is not measured
    run_dtoa(generate_scenario(GenerationParams(num_te=50, seed=1)))
    t500, it500 = _time_per_iteration(generate_scenario(
        GenerationParams(num_te=500, seed=1)))
    t1000, it1000 = _time_per_iteration(generate_scenario(
        GenerationParams(num_te=1000, seed=1)))
    n_ratio = t1000 / t500
    m_times = {}
    m_iterations = {}
    for m in (5, 10, 20):
        m_times[m], m_iterations[m] = _time_per_iteration(generate_scenario(
            GenerationParams(num_es=m, seed=1)))
    m_ratio = max(m_times.values()) / min(m_times.values())
    ok = 1.5 <= n_ratio <= 3.0 and m_ratio < 2.0
    line = criterion(10, ok, f"N 500->1000 time-per-iteration ratio "
                     f"{n_ratio:.2f} (need [1.5, 3.0]; iterations {it500}, "
                     f"{it1000}); M sweep time-per-iteration ratio "
                     f"{m_ratio:.2f} (need < 2; iterations at M=5, 10, 20: "
                     f"{m_iterations[5]}, {m_iterations[10]}, "
                     f"{m_iterations[20]})")
    assert ok, line


def test_criterion_11_sensitivity_trends():
    seeds = (1, 2, 3)
    scenarios = {s: generate_scenario(GenerationParams(seed=s))
                 for s in seeds}

    def mean_iterations(**overrides):
        counts = []
        for s in seeds:
            scn = scenarios[s]
            scn.solver = SolverConfig(**overrides)
            counts.append(run_dtoa(scn).iterations_used)
        return float(np.mean(counts))

    eps_counts = [mean_iterations(epsilon=e) for e in (0.2, 0.3, 0.5, 1.0)]
    eta_counts = [mean_iterations(eta2_init=e) for e in (0.005, 0.01, 0.02)]
    eps_ok = all(a >= b for a, b in zip(eps_counts, eps_counts[1:]))
    eta_ok = all(a <= b for a, b in zip(eta_counts, eta_counts[1:]))
    ok = eps_ok and eta_ok
    line = criterion(11, ok, f"iterations vs epsilon {eps_counts} "
                     f"nonincreasing={eps_ok}; vs eta2 {eta_counts} "
                     f"nondecreasing={eta_ok}")
    assert ok, line


def test_criterion_12_determinism(tmp_path):
    scn = tmp_path / "det.json"
    gen = subprocess.run(
        [sys.executable, "-m", "mec_bazaar.cli", "gen", "--seed", "1",
         "-o", str(scn)], capture_output=True, text=True)
    assert gen.returncode == 0, gen.stderr
    digests = {}
    for threads in (1, 8):
        out_dir = tmp_path / f"t{threads}"
        run = subprocess.run(
            [sys.executable, "-m", "mec_bazaar.cli", "run", "--scenario",
             str(scn), "--out-dir", str(out_dir), "--threads", str(threads)],
            capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        digests[threads] = {
            name: (out_dir / name).read_bytes()
            for name in ("result.json", "trace.csv", "demands.csv",
                         "bids.csv")
        }
    ok = digests[1] == digests[8]
    line = criterion(12, ok, "result bundles bit-identical at thread counts "
                     "1 and 8")
    assert ok, line
