"""Steadiness check: two interleaved sets of runs of every workload.

    python3 perfbench/steadiness.py [--runs 5]

Run from the repository root.  Set A and set B each make ``--runs``
untraced runs of every workload (``run_seconds`` from BENCHMARK.json),
interleaved run by run so host drift hits both sets alike, every run
with its own seed.  For each end-to-end metric it prints, as a
Markdown table, each set's median and quartiles, the set-to-set change
of the median, and the spread of all runs together (interquartile
distance over median), against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set and workload (default 5)")
    args = parser.parse_args(argv)
    names = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]

    # sets[name][set_index] -> list of result objects
    sets = {name: ([], []) for name in names}
    for i in range(args.runs):
        for set_index in (0, 1):
            for name in names:
                seed = 2 * i + set_index
                result = run_once(name, seed, seconds)
                sets[name][set_index].append(result)
                print(f"run {i} set {'AB'[set_index]} {name} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.4g}"
                                  for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)

    print(f"{args.runs} runs per set, {seconds} s each; spread = "
          f"(Q3-Q1)/median of all {2 * args.runs} runs; change = "
          f"median B / median A - 1.\n")
    print("| workload | metric | A median [Q1, Q3] | B median [Q1, Q3] "
          "| change | spread | bound | correct |")
    print("|---|---|---|---|---|---|---|---|")
    for name in names:
        runs = sets[name][0] + sets[name][1]
        correct = all(r["correct"] and r["failed"] == 0 for r in runs)
        for metric in declared["end_to_end"]:
            per_set = [[r["metrics"][metric["name"]]["value"] for r in s]
                       for s in sets[name]]
            cells = []
            for values in per_set:
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
            q1, median, q3 = quartiles(per_set[0] + per_set[1])
            change = (statistics.median(per_set[1])
                      / statistics.median(per_set[0]) - 1)
            print(f"| {name} | {metric['name']} ({metric['unit']}) | "
                  f"{cells[0]} | {cells[1]} | {change:+.1%} | "
                  f"{(q3 - q1) / median:.1%} | {metric['bound']:.0%} | "
                  f"{'yes' if correct else 'NO'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
