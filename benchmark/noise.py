#!/usr/bin/env python3
"""Measure the benchmark's own run-to-run spread.

Runs every workload of BENCHMARK.json `runs` times per set, each run with a
different seed, and prints for every end-to-end metric the set medians, each
set's quartile distance as a share of its median (the spread the driver
computes, with statistics.quantiles(values, n=4)), and how far apart the set
medians are, |median 2 - median 1| / median 1, whichever way. Every run's
full output is kept under .bench_build/noise/. NOISE.md is this script's
output.

usage: python3 benchmark/noise.py [runs-per-set [sets]]   (from the repo root)
"""
import json
import os
import statistics
import subprocess
import sys
import time

runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
sets = int(sys.argv[2]) if len(sys.argv) > 2 else 2
bench = json.load(open("BENCHMARK.json"))


def one(workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - start
    os.makedirs(".bench_build/noise", exist_ok=True)
    with open(f".bench_build/noise/{workload}-{seed}.txt", "w") as f:
        f.write(out.stdout + out.stderr)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stdout}\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: {res}")
    return {k: v["value"] for k, v in res["metrics"].items()}, wall


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


print(f"{sets} sets of {runs} untraced runs per workload, --seconds {bench['run_seconds']}, a different seed per run.\n")
for w in bench["workloads"]:
    data, walls = [], []
    for s in range(sets):
        rows = []
        for r in range(runs):
            m, wall = one(w["name"], 1000 * (s + 1) + r)
            rows.append(m)
            walls.append(wall)
        data.append(rows)
    print(f"### {w['name']}  (wall time per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s)\n")
    head = "| metric | bound |" + "".join(f" median {s + 1} | spread {s + 1} |" for s in range(sets)) + " medians differ by |"
    print(head)
    print("|---|---|" + "---|---|" * sets + "---|")
    for e in bench["end_to_end"]:
        cols, meds = [], []
        for rows in data:
            vals = [r[e["name"]] for r in rows]
            meds.append(statistics.median(vals))
            cols.append(f" {meds[-1]:.6g} | {spread(vals):.3f} |")
        differ = abs(meds[-1] - meds[0]) / meds[0]
        print(f"| {e['name']} | {e['bound']} |" + "".join(cols) + f" {differ:.3f} |")
    print(flush=True)
