"""Command-line surface: scenario generation, solver runs, oracle checks.

stdout carries only the paths of artifacts written; diagnostics go to
stderr, with verbosity controlled by MEC_BAZAAR_LOG (error, warn, info,
debug), and each failure writes one ``ERROR ...`` line. Exit codes are
part of the contract:

  0  success
  1  I/O or parse failure
  2  bad flags or invalid parameter values
  3  solver hit the iteration cap without converging
  4  degenerate market (all bids zero, or overflowing, at some slot)
  5  oracle refused a two-supplier market
  6  oracle found a tolerance violation (equilibrium probes,
     gradient checks, or best-response gains)
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__, market_model
from .bidding_games import STATUS_CONVERGED, run_dtoa
from .errors import (
    DegenerateMarketError,
    DomainError,
    MarketError,
    ScenarioFormatError,
    TwoSupplierMarketError,
)
from .equilibrium_oracle import (
    best_response,
    check_gradients,
    solve_supplier_equilibrium,
    verify_supplier_equilibrium,
)
from .market_model import Scenario, SolverConfig
from .metrics_report import build_report, compute_baseline, emit
from .scenario_io import (
    GenerationParams,
    generate_scenario,
    load_scenario,
    save_result,
    save_scenario,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_ITERATION_CAP = 3
EXIT_DEGENERATE = 4
EXIT_TWO_SUPPLIERS = 5
EXIT_ORACLE_VIOLATION = 6

log = logging.getLogger("mec_bazaar")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("MEC_BAZAAR_LOG", "warn").strip().lower()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(_LOG_LEVELS.get(level, logging.WARNING))


def _fail(code: int, message: str) -> int:
    """Report a failure as one ``ERROR ...`` line on stderr; return ``code``."""
    log.error("%s", message)
    return code


def _parse_value(text: str):
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise DomainError(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = _parse_value(value)
    return out


# --------------------------------------------------------------------------
# gen
# --------------------------------------------------------------------------

_GEN_RANGE_KEYS = {"base_demand_range", "shiftable_fraction_range",
                   "a2_range", "w_range"}
_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverConfig)}


def _number(key: str, value) -> float:
    """A generation parameter's value as a float; booleans and text are
    refused, naming the key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"parameter {key!r} must be a number, "
                          f"got {value!r}")
    return float(value)


def _gen_params_from_args(args) -> GenerationParams:
    overrides = _parse_params(args.param)
    gen_kwargs = {
        "seed": args.seed,
        "num_te": args.tes,
        "num_es": args.ess,
        "num_slots": args.slots,
    }
    solver_kwargs = {}
    for key, value in overrides.items():
        if key.startswith("solver."):
            name = key[len("solver."):]
            if name not in _SOLVER_KEYS:
                raise DomainError(f"unknown solver parameter {name!r}")
            solver_kwargs[name] = value
        elif key.endswith("_lo") or key.endswith("_hi"):
            base = key[:-3]
            if base not in _GEN_RANGE_KEYS:
                raise DomainError(f"unknown range parameter {base!r}")
            lo, hi = gen_kwargs.get(base, getattr(GenerationParams(), base))
            if key.endswith("_lo"):
                gen_kwargs[base] = (_number(key, value), hi)
            else:
                gen_kwargs[base] = (lo, _number(key, value))
        elif key in {"a1", "a0", "alpha"}:
            gen_kwargs[key] = _number(key, value)
        else:
            raise DomainError(f"unknown generation parameter {key!r}")
    params = GenerationParams(
        **gen_kwargs, solver=SolverConfig(**solver_kwargs))
    params.validate()
    return params


def cmd_gen(args) -> int:
    try:
        params = _gen_params_from_args(args)
    except (DomainError, ValueError) as exc:
        return _fail(EXIT_USAGE, f"invalid generation parameters: {exc}")
    scenario = generate_scenario(params)
    try:
        save_scenario(args.output, scenario, generation=params)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write scenario: {exc}")
    log.info("generated scenario seed=%d N=%d M=%d T=%d", params.seed,
             params.num_te, params.num_es, params.num_slots)
    print(args.output)
    return EXIT_OK


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------

def _apply_overrides(scenario: Scenario, overrides: dict) -> tuple[Scenario, dict]:
    applied = {}
    solver_kwargs = {}
    for key, value in overrides.items():
        name = key[len("solver."):] if key.startswith("solver.") else key
        if name not in _SOLVER_KEYS:
            raise DomainError(
                f"unknown override {key!r} (solver fields: "
                f"{sorted(_SOLVER_KEYS)})")
        solver_kwargs[name] = value
        applied[f"solver.{name}"] = value
    if solver_kwargs:
        scenario.solver = scenario.solver.overridden(**solver_kwargs)
    scenario.validate()
    return scenario, applied


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioFormatError as exc:
        return _fail(EXIT_IO, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read scenario: {exc}")

    overrides = {}
    try:
        overrides = _parse_params(args.param)
        if args.epsilon is not None:
            overrides["solver.epsilon"] = args.epsilon
        if args.max_iter is not None:
            overrides["solver.max_iterations"] = args.max_iter
        scenario, applied = _apply_overrides(scenario, overrides)
    except (DomainError, ValueError) as exc:
        return _fail(EXIT_USAGE, f"invalid override: {exc}")

    started = datetime.now(timezone.utc)
    t0 = time.perf_counter()
    try:
        result = run_dtoa(scenario)
        baseline = compute_baseline(scenario)
    except DegenerateMarketError as exc:
        return _fail(EXIT_DEGENERATE, f"degenerate market: {exc} "
                     f"(slot={exc.slot}, iteration={exc.iteration})")
    runtime = time.perf_counter() - t0
    if not baseline.converged:
        log.warning("baseline supplier game stopped unconverged at its "
                    "iteration cap (%d)", baseline.iterations)

    try:
        paths = save_result(args.out_dir, result, scenario)
        report = build_report(scenario, baseline, result,
                              runtime_seconds=runtime)
        paths.update(emit(report, args.out_dir))
        manifest = {
            "tool_version": __version__,
            "scenario_path": os.path.abspath(args.scenario),
            "scenario_sha256": _sha256(args.scenario),
            "seed": scenario.seed,
            "overrides": applied,
            "threads": args.threads,
            "started": started.isoformat(),
            "finished": datetime.now(timezone.utc).isoformat(),
            "runtime_seconds": runtime,
            "status": result.status,
            "iterations": result.iterations_used,
            "baseline_converged": baseline.converged,
            "baseline_iterations": baseline.iterations,
        }
        manifest_path = os.path.join(args.out_dir, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
            fh.write("\n")
        paths["manifest"] = manifest_path
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write results: {exc}")

    for path in sorted(paths.values()):
        print(path)
    log.info("run status=%s iterations=%d runtime=%.2fs", result.status,
             result.iterations_used, runtime)
    return EXIT_OK if result.status == STATUS_CONVERGED else EXIT_ITERATION_CAP


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------

def _read_grid(path: str, shape: tuple[int, int], fields: int) -> np.ndarray:
    """Read an ``id,slot,...,value`` CSV of a result bundle into a matrix.

    Each (id, slot) pair must appear exactly once and in range, with a
    finite value; anything else raises ValueError naming the file and
    line.
    """
    out = np.empty(shape)
    seen = np.zeros(shape, dtype=bool)
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()  # header
        for lineno, line in enumerate(fh, start=2):
            cells = line.rstrip("\n").split(",")
            try:
                if len(cells) != fields:
                    raise ValueError(f"expected {fields} fields")
                row, slot = int(cells[0]), int(cells[1])
                if not (0 <= row < shape[0] and 0 <= slot < shape[1]):
                    raise ValueError(f"({row}, {slot}) is out of range")
                if seen[row, slot]:
                    raise ValueError(f"({row}, {slot}) appears twice")
                value = float(cells[-1])
                if not math.isfinite(value):
                    raise ValueError(f"non-finite value {cells[-1]!r}")
                seen[row, slot] = True
                out[row, slot] = value
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
    if not seen.all():
        raise ValueError(f"{path}: {(~seen).sum()} (id, slot) pairs missing")
    return out


def cmd_oracle(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (ScenarioFormatError, OSError) as exc:
        return _fail(EXIT_IO, str(exc))

    demand = scenario.initial_demand
    bids = None
    if args.result:
        try:
            demand = _read_grid(os.path.join(args.result, "demands.csv"),
                                demand.shape, fields=4)
            bids = _read_grid(os.path.join(args.result, "bids.csv"),
                              (scenario.num_es, scenario.num_slots), fields=3)
        except (OSError, ValueError) as exc:
            return _fail(EXIT_IO, f"cannot read result bundle: {exc}")

    loads = (demand + scenario.base_demand).sum(axis=0)
    if args.slot is not None and not 0 <= args.slot < scenario.num_slots:
        return _fail(EXIT_USAGE, f"slot {args.slot} out of range for "
                     f"T={scenario.num_slots}")
    slots = [args.slot] if args.slot is not None else list(
        range(scenario.num_slots))
    report: dict = {"scenario": os.path.abspath(args.scenario),
                    "slots": {}, "passed": True}
    try:
        for t in slots:
            eq = solve_supplier_equilibrium(float(loads[t]),
                                            scenario.cost_coeffs)
            probes = verify_supplier_equilibrium(
                eq, scenario.cost_coeffs, float(loads[t]),
                n_probes=args.probes, seed=scenario.seed + t)
            entry = {
                "price": eq.price,
                "supplies": eq.supplies.tolist(),
                "implied_bids": eq.implied_bids.tolist(),
                "kkt_residual": eq.residual,
                "probe_violations": probes.violations,
                "probe_max_excess": probes.max_excess,
            }
            if eq.residual > 1e-8 or probes.violations:
                report["passed"] = False
            report["slots"][str(t)] = entry
    except TwoSupplierMarketError as exc:
        return _fail(EXIT_TWO_SUPPLIERS, str(exc))

    grad = check_gradients(scenario, n_samples=args.samples,
                           seed=scenario.seed)
    report["gradient_check"] = {
        "max_te_rel_err": grad.max_te_rel_err,
        "max_es_rel_err": grad.max_es_rel_err,
        "sign_agreement": grad.sign_agreement,
        "interior_samples": grad.interior_samples,
        "guarded_samples": grad.guarded_samples,
    }
    if not grad.passed():
        report["passed"] = False

    if bids is not None:
        payoffs = market_model.compute_agent_economics(
            demand, scenario.base_demand, bids, scenario.cost_coeffs,
            scenario.utility_w, scenario.utility_alpha).te_payoff
        _, gains = best_response(demand, scenario.base_demand, bids,
                                 scenario.utility_w, scenario.utility_alpha)
        relative = gains / np.maximum(np.abs(payoffs), 1e-300)
        worst = float(relative.max())
        report["best_response"] = {"worst_relative_gain": worst, "gains": [
            {"te": i, "gain": g, "relative": r} for i, (g, r)
            in enumerate(zip(gains.tolist(), relative.tolist()))]}
        if worst > 1e-3:
            report["passed"] = False

    out_path = args.output or "oracle_report.json"
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write report: {exc}")
    print(out_path)
    return EXIT_OK if report["passed"] else EXIT_ORACLE_VIOLATION


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mec-bazaar",
        description="edge-compute market simulator: bilateral bidding "
                    "games with an independent equilibrium oracle")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded scenario file")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--tes", type=int, default=1000,
                     help="number of customers (N)")
    gen.add_argument("--ess", type=int, default=10,
                     help="number of suppliers (M)")
    gen.add_argument("--slots", type=int, default=24,
                     help="number of time slots (T)")
    gen.add_argument("--param", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="override a generation or solver.* parameter; "
                          "ranges via <name>_lo / <name>_hi")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="solve a scenario and write a result "
                                     "bundle plus report")
    run.add_argument("--scenario", required=True)
    run.add_argument("--out-dir", required=True)
    run.add_argument("--epsilon", type=float, default=None)
    run.add_argument("--max-iter", type=int, default=None)
    run.add_argument("--threads", type=int,
                     default=max(1, os.cpu_count() or 1),
                     help="accepted and ignored (the solver runs in one "
                          "thread); recorded in manifest.json")
    run.add_argument("--param", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="override solver fields after load")
    run.set_defaults(func=cmd_run)

    oracle = sub.add_parser("oracle", help="independent equilibrium and "
                                           "gradient verification")
    oracle.add_argument("--scenario", required=True)
    oracle.add_argument("--slot", type=int, default=None)
    oracle.add_argument("--result", default=None,
                        help="result bundle directory for best-response "
                             "certification")
    oracle.add_argument("--probes", type=int, default=100)
    oracle.add_argument("--samples", type=int, default=50,
                        help="gradient-check sample count")
    oracle.add_argument("-o", "--output", default=None)
    oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MarketError as exc:
        return _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
