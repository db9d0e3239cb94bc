#!/usr/bin/env python3
"""Steadiness command: runs each workload once per seed (or `--repeat`
times per seed) and prints, per end-to-end metric, the median, the
quartiles, their spread as a share of the median (what the bounds in
BENCHMARK.json are checked against), and the min-max spread.

Run from the repository root:

    python3 perfbench/steady.py                       # all workloads, seeds 1-10
    python3 perfbench/steady.py --workloads multilevel --seeds 1-5
    python3 perfbench/steady.py --seeds 1 --repeat 5  # run-to-run, one seed
    python3 perfbench/steady.py --trace 1 --seeds 1   # per-layer metrics
    python3 perfbench/steady.py --json out.json       # keep the raw runs

It exits non-zero if any run fails, reports a failed operation, or the share
of failed operations differs between runs of one workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--repeat", type=int, default=1, help="runs per seed")
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="write every run's result here")
    opts = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = opts.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    workloads = opts.workloads.split(",") if opts.workloads else names
    metrics = bench["per_layer"] if opts.trace else bench["end_to_end"]
    seeds = [s for s in parse_seeds(opts.seeds) for _ in range(opts.repeat)]

    runs = {}
    ok = True
    for w in workloads:
        runs[w] = []
        for seed in seeds:
            r = run_once(bench["command"], w, seed, seconds, opts.trace)
            runs[w].append(r)
            print(f"{w} seed {seed}: {r['wall_s']:.1f} s wall, "
                  f"{r['attempted']} attempted, {r['failed']} failed", flush=True)
            ok &= r["correct"] and r["failed"] == 0

        shares = {r["failed"] / r["attempted"] for r in runs[w]}
        print(f"\n{w}: {len(seeds)} runs, failed share {sorted(shares)}")
        ok &= len(shares) == 1
        print(f"  {'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'iqr/med':>9}{'min':>12}{'max':>12}{'rng/med':>9}  bound")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(vals) - min(vals)) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if iqr < bound / 3 else ("within" if iqr <= bound else "WIDE")
            print(f"  {m['name']:<28}{med:>12.4g}{q1:>12.4g}{q3:>12.4g}"
                  f"{iqr:>9.3f}{min(vals):>12.4g}{max(vals):>12.4g}{rng:>9.3f}"
                  f"  {bound if bound is not None else ''} {flag}")
        print(flush=True)

    if opts.json:
        with open(opts.json, "w") as f:
            json.dump(runs, f, indent=1)
    if not ok:
        raise SystemExit("a run failed or failed shares differ")


if __name__ == "__main__":
    main()
