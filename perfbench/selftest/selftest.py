#!/usr/bin/env python3
"""Self-test for the benchmark.

    python3 perfbench/selftest/selftest.py

Run from the root of a source checkout; takes about two minutes. Checks:

1. request streams: deterministic per seed, a cold h recurs on a connection
   only long after the LRU evicted it and the two connections never share
   one, update share near 1 in 11, exact nearest-rank percentiles;
2. a short warm_query run prints every end-to-end metric of BENCHMARK.json,
   by name and with its unit, on its own line and in the JSON result,
   with no failures;
3. short runs of both gated workloads with one reference reply deliberately
   corrupted (cold_sweep: a reply checked after the window; read_write: the
   final-state check) report exactly that one failure, so error_ratio
   rises above 0 and nothing else failed; the cold_sweep run prints every
   end-to-end metric, the read_write run is traced and prints every
   per-layer metric with its unit;
4. run.py exits non-zero, printing no result, in a directory holding only
   BENCHMARK.json and perfbench/.
Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run as bench  # noqa: E402  (perfbench/run.py)


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def check(cond, msg):
    if not cond:
        fail(msg)
    print("ok   " + msg)


def invoke(args, cwd="."):
    cmd = [sys.executable, os.path.join("perfbench", "run.py")] + args
    r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return r.returncode, r.stdout, r.stderr


def result_of(stdout):
    res = json.loads(stdout.strip().splitlines()[-1])
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          "result line has exactly correct/attempted/failed/metrics")
    return res


def printed(stdout, name, unit):
    return any(line.lstrip("# ").split()[:1] == [name] and f" {unit}" in line
               for line in stdout.splitlines()[:-1])


def stream_checks():
    a = bench.make_streams("read_write", 7, 10, [("s", "t", 0.5)])
    b = bench.make_streams("read_write", 7, 10, [("s", "t", 0.5)])
    check(a == b, "same seed gives the same streams")
    check(a != bench.make_streams("read_write", 8, 10, [("s", "t", 0.5)]),
          "another seed gives other streams")
    ups = sum(1 for body in a[0] if body["op"] == "update")
    share = ups / (len(a[0]) + len(a[1]))
    check(0.07 < share < 0.11, f"update share {share:.3f} is about 1 in 11")
    check(all(body["op"] != "update" for body in a[1]), "only connection 0 updates")
    scores = [body["set"][0]["score"] for body in a[0] if body["op"] == "update"]
    check(all(x != 0.5 for x in scores[0::2]) and all(x == 0.5 for x in scores[1::2]),
          "each update perturbs a score and the next restores it")
    cold = bench.make_streams("cold_sweep", 3, 10, [])
    check(all(len(s) >= 10 * bench.COLD_RATE_CAP for s in cold),
          "cold streams cover the window at the rate cap")
    warmup = bench.cold_warmup(cold, [0] * len(cold))
    n = bench.COLD_WARMUP
    gaps = []
    for conn, stream in enumerate(cold):
        seen = {}
        for i, body in enumerate(warmup[conn * n:(conn + 1) * n] + stream):
            if body["h"] in seen:
                gaps.append(i - seen[body["h"]])
            seen[body["h"]] = i
    check(min(gaps) >= 30, f"a cold h recurs on a connection {min(gaps)} or more requests later")
    keys = [[(body["h"], body["tau"]) for body in s] for s in cold]
    check(not {h for h, _ in keys[0]} & {h for h, _ in keys[1]},
          "cold connections use disjoint h")
    check(all(50 <= h <= 200 for s in keys for h, _ in s), "cold h within [50, 200]")
    first = sorted(h for h, _ in keys[0][:40])
    check(first[0] < 70 and first[-1] > 180, "a cold prefix spans the h range")
    vals = sorted(range(1, 101))
    check(bench.percentile(vals, 0.5) == (50, 50) and bench.percentile(vals, 0.9) == (90, 10),
          "exact nearest-rank percentiles with counts beyond")


def main():
    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the repository root")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    stream_checks()

    code, out, err = invoke(["--workload", "warm_query", "--seed", "1", "--seconds", "1",
                             "--trace", "0"])
    check(code == 0, "warm_query run exits 0" + ("" if code == 0 else ":\n" + err[-2000:]))
    res = result_of(out)
    check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
          "warm_query run is correct with no failures")
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check({k: v["unit"] for k, v in res["metrics"].items()} == want,
          "result carries every end-to-end metric with its unit")
    for name, unit in want.items():
        check(printed(out, name, unit), f"{name} printed with unit {unit}")
    check(printed(out, "error_ratio", "fraction"), "error_ratio printed")

    for workload, trace, table in (("cold_sweep", "0", "end_to_end"),
                                   ("read_write", "1", "per_layer")):
        code, out, err = invoke(["--workload", workload, "--seed", "2", "--seconds", "2",
                                 "--trace", trace, "--plant-wrong-reference"])
        check(code == 0, f"{workload} run (trace {trace}) exits 0"
              + ("" if code == 0 else ":\n" + err[-2000:]))
        res = result_of(out)
        check(res["failed"] == 1 and not res["correct"],
              f"{workload}: the planted wrong reference is the one failure "
              f"({res['failed']} of {res['attempted']} failed)")
        ratio = [line for line in out.splitlines()
                 if line.lstrip("# ").startswith("error_ratio")]
        check(ratio and float(ratio[0].lstrip("# ").split()[1]) > 0,
              f"{workload}: error_ratio rises above 0")
        want = {m["name"]: m["unit"] for m in spec[table]}
        check({k: v["unit"] for k, v in res["metrics"].items()} == want,
              f"{workload}: result carries every {table} metric with its unit")
        for name, unit in want.items():
            check(printed(out, name, unit), f"{workload}: {name} printed with unit {unit}")

    bare = os.path.join(".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(p, os.path.join(bare, p), ignore=shutil.ignore_patterns("__pycache__"))
    code, out, _ = invoke(["--workload", "warm_query", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and not out.strip(), "without the sources: non-zero exit, no result")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
