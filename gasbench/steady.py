#!/usr/bin/env python3
"""Steadiness check for the benchmark: two sets of runs of the same code.

    python3 gasbench/steady.py

Runs `gasbench/run.py` RUNS times per set for every workload, at the
`run_seconds` of BENCHMARK.json, alternating between set A and set B run
by run, each run with its own seed. For every end-to-end metric it prints
the median and quartiles of each set and of all runs together, the spread
(quartile distance over the median) and the relative gap between the two
sets' medians, and flags a spread or gap above the metric's bound in
BENCHMARK.json. It also checks that the share of failed operations is the
same in both sets. Exits 1 when any run fails or any flag is raised.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Runs per set and workload: two sets of five give ten runs per workload.
RUNS = 5


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results = {w: {"A": [], "B": []} for w in workloads}
    seed = 1000
    for i in range(RUNS):
        for w in workloads:
            # Alternate which set goes first, so a slow phase of the host
            # does not always land on the same set.
            for s in ("A", "B") if i % 2 == 0 else ("B", "A"):
                seed += 1
                r = run_once(w, seed, spec["run_seconds"])
                results[w][s].append(r)
                print(f"{w} set {s} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                      flush=True)

    flags = 0
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<16}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'gap':>9}")
        for name, m in bounds.items():
            values = {s: [r["metrics"][name]["value"] for r in results[w][s]] for s in ("A", "B")}
            values["all"] = values["A"] + values["B"]
            meds = {}
            for s, xs in values.items():
                q1, q2, q3, sp = spread(xs)
                meds[s] = q2
                gap, mark = "", ""
                if s == "all":
                    g = abs(meds["B"] - meds["A"]) / meds["A"]
                    gap = f"{g:.3f}"
                    if g > m["bound"]:
                        mark, flags = " GAP", flags + 1
                if sp > m["bound"]:
                    mark, flags = mark + " SPREAD", flags + 1
                elif sp > m["bound"] / 3:
                    mark += " (spread over a third of the bound)"
                print(f"  {name:<16}{s:>4}{q2:>14.6g}{q1:>14.6g}{q3:>14.6g}{sp:>9.3f}{gap:>9}{mark}")
        shares = {s: sum(r["failed"] for r in results[w][s]) / sum(r["attempted"] for r in results[w][s])
                  for s in ("A", "B")}
        print(f"  failed share: A {shares['A']:.6g}  B {shares['B']:.6g}")
        if shares["A"] != shares["B"]:
            flags += 1
    sys.exit(1 if flags else 0)


if __name__ == "__main__":
    main()
