"""One in-process pass over a workload's commands, traced or plain.

    python3 perfbench/traced.py PLAN.json OUT.json

PLAN.json holds {"traced": bool, "commands": [[name, argv], ...]}. The
script imports ``mec_bazaar.cli`` (timed), calls ``cli.main(argv)`` for
each command and writes the command times, exit codes and, when traced,
the spans and counts to OUT.json.

Tracing replaces the public functions each layer is reached through with
timing wrappers, set on the module attributes the callers look up at call
time. Spans (name, start, end, parent) and counts stay in memory and are
written out once the pass ends.
"""

from __future__ import annotations

import json
import sys
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = {}
        self._stacks = {}        # thread id -> indices of open spans
        self._lock = threading.Lock()
        self._main = threading.get_ident()

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A pool worker's span belongs to the span its submitter waits in.
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def open(self, name):
        stack = self._stacks.setdefault(threading.get_ident(), [])
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._parent(stack)])
        stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, module, attr, name, on_result=None, count=False):
        """Wrap ``module.attr`` in a span named ``name``."""
        inner = getattr(module, attr)

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self.close(idx)
            if count:
                self.count(name + "_calls")
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(module, attr, wrapper)

    def counter(self, module, attr, name):
        """Wrap ``module.attr`` to count its calls only."""
        inner = getattr(module, attr)

        def wrapper(*args, **kwargs):
            self.count(name)
            return inner(*args, **kwargs)

        setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Set the timing wrappers on every layer boundary the flow crosses."""
    from mec_bazaar import (_kernels, bidding_games, cli, equilibrium_oracle,
                            market_model, metrics_report)

    io = "scenario_io."
    for attr in ("generate_scenario", "save_scenario", "load_scenario",
                 "save_result"):
        tracer.span(cli, attr, io + attr)

    def iterations(_, result):
        tracer.count("bidding_games.iterations", result.iterations_used)

    def fixed_point_iterations(_, result):
        tracer.count("bidding_games.supplier_fixed_point_iterations",
                     result[1])

    def te_phase_bytes(args, result):
        # The per-customer arrays of the call's row chunk; the per-slot
        # load and bid totals, which every chunk reads, are left out.
        chi, base, w, alpha, _load, _totals, q, _eta2 = args
        nbytes = sum(a.nbytes for a in (chi, base, w, alpha, q, result))
        tracer.count("kernels.te_phase_bytes", nbytes)

    tracer.span(cli, "run_dtoa", "bidding_games.run_dtoa",
                on_result=iterations)
    tracer.span(metrics_report, "supplier_fixed_point",
                "bidding_games.supplier_fixed_point",
                on_result=fixed_point_iterations)
    tracer.span(_kernels, "es_phase", "kernels.es_phase")
    tracer.span(_kernels, "te_phase", "kernels.te_phase", count=True,
                on_result=te_phase_bytes)
    tracer.span(_kernels, "project_rows_np", "kernels.project_rows_np")
    for attr in ("compute_baseline", "build_report", "emit"):
        tracer.span(cli, attr, "metrics_report." + attr)
    economics = "market_model.compute_agent_economics"
    for module in (bidding_games, metrics_report, market_model):
        tracer.span(module, "compute_agent_economics", economics, count=True)
    for attr in ("solve_supplier_equilibrium", "verify_supplier_equilibrium",
                 "check_gradients", "best_response"):
        tracer.span(cli, attr, "equilibrium_oracle." + attr)
    tracer.counter(equilibrium_oracle, "psi", "equilibrium_oracle.psi_calls")
    tracer.counter(equilibrium_oracle, "project_simplex",
                   "equilibrium_oracle.best_response_steps")


def main(plan_path: str, out_path: str) -> int:
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = Tracer() if plan["traced"] else None
    start = time.perf_counter()
    from mec_bazaar import cli
    import_s = time.perf_counter() - start
    if tracer is not None:
        tracer.spans.append(["cli.import", start, start + import_s, None])
        install(tracer)
    commands = []
    for name, argv in plan["commands"]:
        idx = tracer.open("cli." + name) if tracer else None
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(idx)
        commands.append({"name": name, "exit": code, "seconds": seconds})
    doc = {"import_s": import_s, "commands": commands}
    if tracer is not None:
        doc["spans"] = tracer.spans
        doc["counts"] = tracer.counts
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
