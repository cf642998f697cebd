"""Benchmark of the mec-bazaar command-line flow: gen -> run -> oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from
``src/`` there. Each round runs the user's flow once, one process per
command with default flags: ``--version`` (start-up and import), ``gen``,
``run`` and ``oracle`` (see WORKLOADS and REPS). Rounds repeat while
another one still fits in S seconds (at least one runs). Every output is
checked against the independent computations in checkers.py.

With ``--trace 0`` the end-to-end metrics are printed: means of the
command wall times, scaled to a fixed host speed by a calibration timed
before each command (see ``calibrate``), and the largest peak resident
memory of any command. Commands are started through spawn.py, so their
peak memory leaves out this process's own.
With ``--trace 1`` each round is one plain and one traced in-process pass
(traced.py); the per-layer metrics come from the traced pass and the
tracing overhead is the traced command time minus the plain one.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Work files go to
``.perfbench_work/`` in the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checkers

HERE = os.path.dirname(os.path.abspath(__file__))
SPAWN = os.path.join(HERE, "spawn.py")
CLI = ["-c", "import sys; from mec_bazaar.cli import main; sys.exit(main())"]
MB = 1e6

# Criterion 9's schedule: constant steps, absolute epsilon 1e-3, so both
# games truly reach their equilibrium and the bundle can be certified.
CERTIFY_SCHEDULE = ["solver.eta1_init=5.0", "solver.eta1_decay=1.0",
                    "solver.eta2_init=200.0", "solver.eta2_decay=1.0",
                    "solver.epsilon=1e-3", "solver.lambda_init=200.0",
                    "solver.max_iterations=300000"]

# wide's oracle makes 10 equilibrium probes, not the default 100: the
# probes cost the same at every N (M=10, about 2.9 s) and reference
# measures them, so on wide the oracle times what grows with N (scenario
# load and gradient check) and a round takes about 20 s, two or three per
# 60 s run. tiny-certify keeps criterion 9's market (seed 9) whatever --seed
# is: on this schedule the iteration count is a property of the market
# and spans 1765-14688 over seeds 1-30, so a seed-varied market would make
# run_s measure the seed instead of the code.
WORKLOADS = {
    "reference": dict(tes=1000, ess=10, slots=24),
    "wide": dict(tes=10000, ess=10, slots=24, probes=10,
                 reps=dict(oracle_s=2)),
    "tiny-certify": dict(tes=5, ess=3, slots=4, params=CERTIFY_SCHEDULE,
                         seed=9, certify=True),
}

# A round runs each command this many times, in this order, unless the
# workload's ``reps`` says otherwise. A sample's time varies by about 15%
# on a shared host, so the short commands run twice for more samples.
REPS = {"setup_s": 2, "gen_s": 2, "run_s": 1, "oracle_s": 1}

# A run price may sit this far from the equilibrium on the certified
# market: the bid step stops below 1e-3 on bids of a few hundred.
CERTIFY_PRICE_GAP = 1e-4
CERTIFY_NASH_GAP = 1e-3   # the oracle's own best-response tolerance

END_TO_END = {"setup_s": "s", "gen_s": "s", "run_s": "s", "oracle_s": "s",
              "peak_rss_mb": "MB"}
LAYERS = ("cli", "scenario_io", "bidding_games", "kernels", "metrics_report",
          "market_model", "equilibrium_oracle")


class Flow:
    """Paths and command lines of one workload's flow in one directory."""

    def __init__(self, workload: str, seed: int, work: str,
                 threads: int | None = None):
        spec = WORKLOADS[workload]
        self.work = work
        self.seed = spec.get("seed", seed)
        self.certify = spec.get("certify", False)
        self.reps = {**REPS, **spec.get("reps", {})}
        self.scenario = os.path.join(work, "scenario.json")
        self.bundle = os.path.join(work, "out")
        self.oracle_report = os.path.join(work, "oracle.json")
        self.gen = ["gen", "--seed", str(self.seed), "--tes",
                    str(spec["tes"]), "--ess", str(spec["ess"]), "--slots",
                    str(spec["slots"]), "-o", self.scenario]
        for p in spec.get("params", []):
            self.gen += ["--param", p]
        self.oracle = ["oracle", "--scenario", self.scenario, "--slot", "0",
                       "-o", self.oracle_report]
        if "probes" in spec:
            self.oracle += ["--probes", str(spec["probes"])]
        if self.certify:
            self.oracle += ["--result", self.bundle]
        self.run = ["run", "--scenario", self.scenario, "--out-dir",
                    self.bundle]
        if threads is not None:
            self.run += ["--threads", str(threads)]


class Checker:
    """Checks a flow's outputs; remembers the first round's file hashes."""

    def __init__(self):
        self.hashes = None
        self.errors = []
        self.scenario = None

    def fail(self, message: str):
        self.errors.append(message)
        print(f"CHECK FAILED: {message}", file=sys.stderr)

    def check(self, flow: Flow):
        try:
            self._check(flow)
        except (OSError, ValueError, KeyError) as exc:
            self.fail(f"cannot read outputs: {exc!r}")

    def _check(self, flow: Flow):
        hashes = [_sha256(flow.scenario)] + [
            _sha256(os.path.join(flow.bundle, f))
            for f in checkers.Bundle.FILES]
        if self.hashes is None:
            self.hashes = hashes
            self.scenario = checkers.Scenario(flow.scenario)
        elif hashes != self.hashes:
            self.fail("scenario or bundle differs from the first round's")
        scenario = self.scenario
        bundle = checkers.Bundle(flow.bundle, scenario)
        for error in checkers.check_bundle(scenario, bundle):
            self.fail(error)
        with open(flow.oracle_report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        if not report["passed"]:
            self.fail("oracle report did not pass")
        chi = bundle.chi if flow.certify else scenario.chi0
        loads = (chi + scenario.base).sum(axis=0)
        slots = sorted(int(t) for t in report["slots"])
        prices = [report["slots"][str(t)]["price"] for t in slots]
        gap = checkers.price_gap(scenario, loads[slots], prices)
        if gap > 1e-8:
            self.fail(f"oracle price differs from bisection by {gap:.3e}")
        if flow.certify:
            gap = checkers.price_gap(scenario, bundle.load, bundle.price)
            if gap > CERTIFY_PRICE_GAP:
                self.fail(f"run price {gap:.3e} from the equilibrium")
            gap = checkers.nash_gap(scenario, bundle)
            if gap > CERTIFY_NASH_GAP:
                self.fail(f"a customer gains {gap:.3e} of |payoff|")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Runner:
    """Runs commands as child processes and counts them."""

    def __init__(self, env: dict):
        self.env = env
        self.attempted = 0
        self.failed = 0

    def time(self, argv: list[str], log: str) -> tuple[float, float] | None:
        """(wall seconds, peak RSS in MB) of one child process.

        None if the spawner itself failed and gave no figures.
        """
        self.attempted += 1
        proc = subprocess.run([sys.executable, SPAWN, log] + argv,
                              stdout=subprocess.PIPE, env=self.env)
        try:
            result = json.loads(proc.stdout)
        except ValueError:
            result = {"exit": f"spawner {proc.returncode}"}
        if result["exit"] != 0:
            self.failed += 1
            print(f"FAILED (exit {result['exit']}): {' '.join(argv)}",
                  file=sys.stderr)
        if "seconds" not in result:
            return None
        return result["seconds"], result["maxrss_kb"] * 1024 / MB


def rounds(seconds: float, one_round) -> int:
    """Call ``one_round`` while another round still fits in ``seconds``."""
    start = time.perf_counter()
    longest = 0.0
    done = 0
    while True:
        t0 = time.perf_counter()
        one_round()
        done += 1
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return done


CAL_ARRAY = np.random.default_rng(0).random((1000, 24))
# The calibration's time at the reference host speed. It is close to the
# calibration's mean on the host of the README's figures, so scaled times
# there stay within about a third of the raw ones.
CAL_S = 0.05


def calibrate() -> float:
    """Seconds of a fixed computation that shares no code with the program.

    It mixes interpreted Python, numpy sorts and JSON, as the commands do.
    On a shared host its time follows the host's speed, which drifts by
    up to a factor of two over minutes.
    """
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    for _ in range(20):
        np.cumsum(np.sort(CAL_ARRAY, axis=1), axis=1)
    json.loads(json.dumps(CAL_ARRAY[:400].tolist()))
    return time.perf_counter() - start


def end_to_end(flow: Flow, runner: Runner, checker: Checker,
               seconds: float) -> dict:
    cli = [sys.executable] + CLI
    log = os.path.join(flow.work, "stderr.log")
    samples = {name: [] for name in ("setup_s", "gen_s", "run_s",
                                     "oracle_s")}
    calibration = []

    argvs = {"setup_s": ["--version"], "gen_s": flow.gen,
             "run_s": flow.run, "oracle_s": flow.oracle}

    def one_round():
        for name, argv in argvs.items():
            for _ in range(flow.reps[name]):
                if name == "run_s":
                    # A run that writes nothing must not pass on the
                    # previous round's bundle.
                    shutil.rmtree(flow.bundle, ignore_errors=True)
                calibration.extend(calibrate() for _ in range(2))
                sample = runner.time(cli + argv, log)
                if sample is not None:
                    samples[name].append(sample)
        checker.check(flow)

    n = rounds(seconds, one_round)
    if not all(samples.values()):
        checker.fail("a command gave no time in any round")
        return {}
    # Times are scaled to the host speed at which the calibration takes
    # CAL_S seconds: each metric is the mean of its samples over the mean
    # of the run's calibration times. Means, not medians: a command's
    # samples and the calibration times each fall into a fast and a slow
    # cluster, and a median jumps between them with the mix, while the
    # ratio of the two means follows the share of slow spells in the run.
    speed = CAL_S / statistics.mean(calibration)
    metrics = {name: speed * statistics.mean(s for s, _ in values)
               for name, values in samples.items()}
    metrics["peak_rss_mb"] = max(rss for v in samples.values()
                                 for _, rss in v)
    for name, values in samples.items():
        print(f"{name}: {' '.join(f'{s:.3f}' for s, _ in values)}")
    print(f"calibration_s: {' '.join(f'{c:.4f}' for c in calibration)}")
    print(f"rounds: {n}; host speed factor {speed:.4f}")
    return metrics


# --------------------------------------------------------------------------
# Traced run
# --------------------------------------------------------------------------

def _merge(intervals):
    merged = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return merged


def _length(intervals) -> float:
    return sum(b - a for a, b in _merge(intervals))


def _minus(a, b, holes):
    """Parts of [a, b] not covered by ``holes``."""
    out = []
    for lo, hi in _merge(holes):
        if lo > a:
            out.append((a, min(lo, b)))
        a = max(a, hi)
        if a >= b:
            return out
    return out + [(a, b)]


def layer_metrics(doc: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    spans = doc["spans"]
    counts = doc["counts"]
    children = {}
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append(i)

    def own(i):
        _, a, b, _ = spans[i]
        return _minus(a, b, [spans[c][1:3] for c in children.get(i, [])])

    def self_time(indices):
        return _length([p for i in indices for p in own(i)])

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def wall(name):
        return _length([spans[i][1:3] for i in named(name)])

    m = {"cli.import_s": doc["import_s"],
         "cli.run_self_s": self_time(named("cli.run")),
         "cli.oracle_self_s": self_time(named("cli.oracle"))}
    for name in ("scenario_io.generate_scenario", "scenario_io.save_scenario",
                 "scenario_io.load_scenario", "scenario_io.save_result",
                 "bidding_games.run_dtoa",
                 "bidding_games.supplier_fixed_point", "kernels.es_phase",
                 "kernels.te_phase", "kernels.project_rows_np",
                 "metrics_report.compute_baseline", "metrics_report.emit",
                 "market_model.compute_agent_economics",
                 "equilibrium_oracle.solve_supplier_equilibrium",
                 "equilibrium_oracle.verify_supplier_equilibrium",
                 "equilibrium_oracle.check_gradients",
                 "equilibrium_oracle.best_response"):
        m[name + "_s"] = wall(name)
    m["bidding_games.loop_self_s"] = self_time(
        named("bidding_games.run_dtoa"))
    for name in ("bidding_games.iterations",
                 "bidding_games.supplier_fixed_point_iterations",
                 "kernels.te_phase_calls",
                 "market_model.compute_agent_economics_calls",
                 "equilibrium_oracle.psi_calls",
                 "equilibrium_oracle.best_response_steps"):
        m[name] = counts.get(name, 0)
    # Summed over the row chunks, so the thread count does not move it.
    m["kernels.te_phase_mb"] = (counts["kernels.te_phase_bytes"]
                                / counts["bidding_games.iterations"] / MB)
    for layer in LAYERS:
        m[layer + ".self_s"] = self_time(
            [i for i, s in enumerate(spans)
             if s[0].split(".")[0] == layer])
    return m


def traced(flow_of, runner: Runner, checker: Checker, seconds: float,
           work: str) -> dict:
    """Rounds of one plain and one traced in-process pass."""
    passes = {"plain": [], "traced": []}
    flows = {}

    def one_pass(mode):
        flow = flows.setdefault(mode, flow_of(os.path.join(work, mode)))
        os.makedirs(flow.work, exist_ok=True)
        plan = os.path.join(flow.work, "plan.json")
        out = os.path.join(flow.work, "pass.json")
        commands = [["gen", flow.gen], ["run", flow.run],
                    ["oracle", flow.oracle]]
        with open(plan, "w", encoding="utf-8") as fh:
            json.dump({"traced": mode == "traced", "commands": commands}, fh)
        if os.path.exists(out):
            os.remove(out)
        shutil.rmtree(flow.bundle, ignore_errors=True)
        runner.time([sys.executable, os.path.join(HERE, "traced.py"), plan,
                     out], os.path.join(flow.work, "stderr.log"))
        try:
            with open(out, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            # The pass died before writing its document: its commands
            # count as failed and it gives no metrics.
            runner.attempted += len(commands)
            runner.failed += len(commands)
            print(f"FAILED: {mode} pass wrote no document: {exc!r}",
                  file=sys.stderr)
            return
        for command in doc["commands"]:
            runner.attempted += 1
            if command["exit"] != 0:
                runner.failed += 1
                print(f"FAILED (exit {command['exit']}): {mode} "
                      f"{command['name']}", file=sys.stderr)
        checker.check(flow)
        passes[mode].append(doc)

    def one_round():
        one_pass("plain")
        one_pass("traced")

    n = rounds(seconds, one_round)
    if not passes["plain"] or not passes["traced"]:
        checker.fail("no complete plain and traced pass to measure")
        return {}
    per_pass = [layer_metrics(doc) for doc in passes["traced"]]
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}

    def command_median(mode, name):
        return statistics.median(c["seconds"] for doc in passes[mode]
                                 for c in doc["commands"]
                                 if c["name"] == name)

    names = ("gen", "run", "oracle")
    plain = sum(command_median("plain", c) for c in names)
    overhead = sum(command_median("traced", c) for c in names) - plain
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / plain

    flow = flows["traced"]
    scenario = checker.scenario
    bundle = checkers.Bundle(flow.bundle, scenario)
    metrics["bidding_games.supplier_price_gap"] = checkers.price_gap(
        scenario, bundle.load, bundle.price)
    metrics["bidding_games.nash_gap"] = checkers.nash_gap(scenario, bundle)
    metrics["scenario_io.scenario_mb"] = os.path.getsize(flow.scenario) / MB
    metrics["scenario_io.bundle_mb"] = sum(
        os.path.getsize(os.path.join(flow.bundle, f))
        for f in checkers.Bundle.FILES) / MB
    print(f"rounds: {n}; plain passes {plain:.3f} s of commands, "
          f"tracing overhead {overhead:+.3f} s")
    return metrics


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

UNITS = {"_s": "s", "_mb": "MB", "_gap": "ratio", "_share": "ratio"}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="pass --threads to run (default: the "
                             "program's own default, the CPU count); "
                             "--threads 1 gives the single-threaded "
                             "baseline")
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "mec_bazaar", "cli.py")):
        print("error: run from the root of a mec-bazaar checkout "
              "(src/mec_bazaar/cli.py not found)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    work = os.path.join(os.path.abspath(".perfbench_work"),
                        f"{args.workload}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(env)
    checker = Checker()
    if args.trace:
        metrics = traced(
            lambda d: Flow(args.workload, args.seed, d, args.threads),
            runner, checker, args.seconds, work)
    else:
        metrics = end_to_end(
            Flow(args.workload, args.seed, work, args.threads), runner,
            checker, args.seconds)

    for name, value in metrics.items():
        print(f"{name} = {value!r} {unit_of(name)}")
    print(f"operations attempted {runner.attempted}, failed "
          f"{runner.failed}; checks failed {len(checker.errors)}")
    print(json.dumps({
        "correct": not checker.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(value), "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
