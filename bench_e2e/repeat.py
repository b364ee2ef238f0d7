#!/usr/bin/env python3
"""Run the benchmark several times per workload, one seed per run, and
report each end-to-end metric's median, quartiles and spread (the
interquartile distance as a share of the median).

    python3 bench_e2e/repeat.py --runs 10 [--workload suite_t4 ...] [--trace 1] [--out FILE]

Seeds are 1..runs. With --trace 1 the per-layer metrics are collected
instead. The JSON written to --out has one object per workload:
{metric: {"median", "q1", "q3", "spread", "unit", "values"}}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    report = {}
    for name in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                sys.exit("%s seed %d failed" % (name, seed))
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append((v["value"], v["unit"]))
        report[name] = {}
        for metric, vals in values.items():
            xs = [v for v, _ in vals]
            q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            report[name][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                    "unit": vals[0][1], "values": xs}
            print("%-14s %-14s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.3f  (bound %s)" % (
                name, metric, med, q1, q3, spread, bounds.get(metric)), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
