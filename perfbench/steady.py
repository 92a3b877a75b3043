#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed-base 1]
                                [--save FILE] [--compare FILE]

Runs perfbench/run.py (trace 0, run_seconds from BENCHMARK.json) --runs
times per workload, each with its own seed, from the checkout root. For
every end-to-end metric of BENCHMARK.json it prints the median, the
quartiles (statistics.quantiles, n=4), the spread (IQR / median) and that
spread against the metric's bound: "steady" when below a third of the
bound, "ok" when within it, "UNSTEADY" otherwise. --save writes the raw
values; --compare FILE also prints how far each median moved from a saved
set, in the metric's worse direction, against its bound. Exits 1 when a run
fails, is incorrect, or a check does not hold.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def one_run(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, capture_output=True, text=True)
    if r.returncode != 0 or not r.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd)} failed ({r.returncode}):\n{r.stderr[-2000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--save", default=None)
    ap.add_argument("--compare", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    previous = None
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)

    values = {}
    good = True
    for w in workloads:
        values[w] = {m: [] for m in metrics}
        for i in range(args.runs):
            seed = args.seed_base + i
            t0 = time.perf_counter()
            out = one_run(w, seed, seconds)
            if not out["correct"] or out["failed"]:
                print(f"{w} seed {seed}: incorrect ({out['failed']} of {out['attempted']} failed)")
                good = False
            for m in metrics:
                values[w][m].append(out["metrics"][m]["value"])
            print(f"{w} seed {seed} ({time.perf_counter() - t0:.0f} s): "
                  + " ".join(f"{m}={out['metrics'][m]['value']:.4g}" for m in metrics),
                  flush=True)

    print(f"\n{'workload':<11} {'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m, spec in metrics.items():
            med, q1, q3, spread = summary(values[w][m])
            if spread < spec["bound"] / 3:
                verdict = "steady"
            elif spread <= spec["bound"]:
                verdict = "ok (above a third of the bound)"
            else:
                verdict = "UNSTEADY"
                good = False
            if previous and w in previous and m in previous[w]:
                old = statistics.median(previous[w][m])
                worse = (med - old) / old if spec["better"] == "lower" else (old - med) / old
                verdict += f"; median moved {worse:+.3f} worse vs saved"
                if worse > spec["bound"]:
                    verdict += " (BEYOND BOUND)"
                    good = False
            print(f"{w:<11} {m:<16} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} {spread:>7.3f} "
                  f"{spec['bound']:>6.2f}  {verdict}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(0 if good else 1)


if __name__ == "__main__":
    main()
