"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10

Run from the root of a source checkout. Runs ``perfbench/run.py`` with
``--trace 0`` once per seed, one run at a time, for BENCHMARK.json's
``run_seconds``, and prints for every metric the median, the quartiles
and the spread: the distance between the first and the third quartile
(``statistics.quantiles(n=4)``) as a share of the median. Each run's
round count, host speed factor and result line are printed as it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default="1-10")
    args = parser.parse_args()
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    values: dict[str, list[float]] = {}
    units = {}
    for seed in args.seeds:
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                args.workload, "--seed", str(seed), "--seconds",
                str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              check=True)
        lines = proc.stdout.strip().splitlines()
        line = lines[-1]
        rounds = [x for x in lines if x.startswith("rounds: ")]
        print(f"seed {seed}: {rounds[-1] if rounds else ''}\n  {line}",
              flush=True)
        result = json.loads(line)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"{args.workload}: {len(args.seeds)} runs of {seconds} s, "
          f"seeds {args.seeds[0]}-{args.seeds[-1]}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:48s} median {med:.6g} {units[name]:5s} "
              f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
