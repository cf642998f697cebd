"""Command-line surface: scenario generation, solver runs, oracle checks.

stdout carries only the paths of artifacts written; diagnostics go to
stderr, with verbosity controlled by MEC_BAZAAR_LOG (error, warn, info,
debug), and each failure writes one ``ERROR ...`` line. Exit codes are
part of the contract:

  0  success
  1  I/O or parse failure
  2  bad flags or invalid parameter values
  3  solver hit the iteration cap without converging
  4  degenerate market (all bids zero, or overflowing, at some slot,
     a bid step whose norm overflows, or a converged bid that reaches
     the sum of its rivals' bids)
  5  oracle refused a two-supplier market
  6  oracle found a tolerance violation (equilibrium probes,
     gradient checks, best-response gains, bundle prices or bids away
     from the supplier equilibrium, a negative bid, or bundle demand
     that misses shiftable_total or goes negative)

Both ``gen`` and ``run`` set a solver field only as ``--param
solver.<field>=value``.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__, market_model
from ._writers import write_indented_json
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
from .market_model import SolverConfig
from .metrics_report import build_report, compute_baseline, emit
from .scenario_io import (
    GenerationParams,
    generate_scenario,
    load_result,
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
_SEED_MASK = 0xFFFF_FFFF_FFFF_FFFF  # seeds count modulo 2**64, as in gen
# the largest relative gap ``oracle --result`` lets a bundle keep from the
# equilibrium, on either side of the market: its price against the
# supplier equilibrium price, its bids against the equilibrium's, a
# customer's best-response gain against its payoff
_GAP_TOL = 1e-3


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
    if text.strip().lower() == "null":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverConfig)}


def _split_params(pairs: list[str]) -> tuple[dict, dict]:
    """Parse ``--param key=value`` pairs into the ``solver.<field>``
    settings, keyed by field, and the other keys. A ``solver.<name>`` key
    whose name is no ``SolverConfig`` field is refused, naming the key."""
    solver, rest = {}, {}
    for pair in pairs:
        if "=" not in pair:
            raise DomainError(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        key, value = key.strip(), _parse_value(value)
        name = key.removeprefix("solver.")
        if name == key:
            rest[key] = value
        elif name in _SOLVER_KEYS:
            solver[name] = value
        else:
            raise DomainError(f"unknown solver parameter {key!r} (fields: "
                              f"{', '.join(sorted(_SOLVER_KEYS))})")
    return solver, rest


# --------------------------------------------------------------------------
# gen
# --------------------------------------------------------------------------

_GEN_RANGE_KEYS = {"base_demand_range", "shiftable_fraction_range",
                   "a2_range", "w_range"}


def _number(key: str, value) -> float:
    """A generation parameter's value as a float; text and integers too
    large for a float are refused, naming the key."""
    if not isinstance(value, (int, float)):
        raise DomainError(f"parameter {key!r} must be a number, "
                          f"got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"parameter {key!r} is too large for a float") \
            from None


def _gen_params_from_args(args) -> GenerationParams:
    solver, overrides = _split_params(args.param)
    gen_kwargs = {
        "seed": args.seed,
        "num_te": args.tes,
        "num_es": args.ess,
        "num_slots": args.slots,
    }
    for key, value in overrides.items():
        if key.endswith("_lo") or key.endswith("_hi"):
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
    return GenerationParams(**gen_kwargs, solver=SolverConfig(**solver))


def cmd_gen(args) -> int:
    try:
        params = _gen_params_from_args(args)
        scenario = generate_scenario(params)
    except (DomainError, ValueError) as exc:
        return _fail(EXIT_USAGE, f"invalid parameters: {exc}")
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

def cmd_run(args) -> int:
    try:
        scenario, digest = load_scenario(args.scenario, with_digest=True)
    except ScenarioFormatError as exc:
        return _fail(EXIT_IO, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read scenario: {exc}")

    try:
        solver, stray = _split_params(args.param)
        if stray:
            raise DomainError(f"unknown parameter {next(iter(stray))!r} "
                              "(run sets only solver.<field>)")
        scenario.solver = dataclasses.replace(scenario.solver, **solver)
        scenario.solver.validate()
    except DomainError as exc:
        return _fail(EXIT_USAGE, f"invalid parameters: {exc}")

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
            "scenario_sha256": digest,
            "seed": scenario.seed,
            "overrides": {f"solver.{k}": v for k, v in solver.items()},
            "started": started.isoformat(),
            "finished": datetime.now(timezone.utc).isoformat(),
            "runtime_seconds": runtime,
            "status": result.status,
            "iterations": result.iterations_used,
            "baseline_converged": baseline.converged,
            "baseline_iterations": baseline.iterations,
        }
        paths["manifest"] = os.path.join(args.out_dir, "manifest.json")
        write_indented_json(paths["manifest"], manifest)
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

def cmd_oracle(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (ScenarioFormatError, OSError) as exc:
        return _fail(EXIT_IO, str(exc))

    demand = scenario.initial_demand
    bids = None
    if args.result:
        try:
            demand, bids = load_result(args.result, scenario)
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
            if loads[t] <= 0:
                # a bundle's demand can leave a slot no load, and no
                # supplier equilibrium to check against: the slot fails
                report["slots"][str(t)] = {"load": float(loads[t])}
                report["passed"] = False
                continue
            eq = solve_supplier_equilibrium(float(loads[t]),
                                            scenario.cost_coeffs)
            probes = verify_supplier_equilibrium(
                eq, scenario.cost_coeffs, float(loads[t]),
                n_probes=args.probes,
                seed=(scenario.seed + t) & _SEED_MASK)
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
            if bids is not None:
                with np.errstate(divide="ignore"):
                    price = loads[t] / bids[:, t].sum()
                gap = float(abs(price - eq.price) / eq.price)
                bid_gap = float(np.abs(bids[:, t] - eq.implied_bids).max()
                                / eq.implied_bids.sum())
                entry["bundle_price"] = float(price)
                entry["price_gap"] = gap
                entry["bid_gap"] = bid_gap
                if not (gap <= _GAP_TOL and bid_gap <= _GAP_TOL):
                    report["passed"] = False
            report["slots"][str(t)] = entry
    except TwoSupplierMarketError as exc:
        return _fail(EXIT_TWO_SUPPLIERS, str(exc))

    grad = check_gradients(scenario, n_samples=args.samples,
                           seed=scenario.seed & _SEED_MASK)
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
        row_err = market_model.row_sum_error(demand,
                                             scenario.shiftable_total)
        report["feasibility"] = {"max_row_sum_error": row_err,
                                 "min_demand": float(demand.min()),
                                 "min_bid": float(bids.min())}
        if (row_err > market_model.ROW_SUM_TOL or demand.min() < 0
                or bids.min() < 0):
            report["passed"] = False
        # served demand below zero has no utility, so no payoff to
        # certify; feasibility has failed already
        if (demand + scenario.base_demand).min() >= 0:
            payoffs = market_model.compute_agent_economics(
                demand, scenario.base_demand, bids, scenario.cost_coeffs,
                scenario.utility_w, scenario.utility_alpha).te_payoff
            _, gains = best_response(demand, scenario.base_demand, bids,
                                     scenario.utility_w,
                                     scenario.utility_alpha)
            relative = gains / np.maximum(np.abs(payoffs), 1e-300)
            worst = float(relative.max())
            report["best_response"] = {
                "worst_relative_gain": worst, "gains": [
                    {"te": i, "gain": g, "relative": r} for i, (g, r)
                    in enumerate(zip(gains.tolist(), relative.tolist()))]}
            if worst > _GAP_TOL:
                report["passed"] = False

    out_path = args.output or "oracle_report.json"
    try:
        write_indented_json(out_path, report)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write report: {exc}")
    print(out_path)
    return EXIT_OK if report["passed"] else EXIT_ORACLE_VIOLATION


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as one ``ERROR ...`` line and exits 2; the
    subcommand parsers inherit the class."""

    def error(self, message):
        sys.exit(_fail(EXIT_USAGE, f"{self.prog}: {message}"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    run.add_argument("--param", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="override a solver.* field of the scenario, "
                          "e.g. solver.epsilon=0.1")
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
    except DegenerateMarketError as exc:
        return _fail(EXIT_DEGENERATE, f"degenerate market: {exc}")
    except MarketError as exc:
        return _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
