#!/usr/bin/env python3
"""Run perfbench over several seeds and report each metric's spread.

Run from the root of a ringshare checkout:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,...]
                                [--trace 0|1] [--baseline FILE]

For every workload and end-to-end metric it prints the median over the
seeds and the spread: the distance between the first and third
quartiles (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json.  With --baseline it
also writes those medians and quartiles, with the request counts behind
the percentiles, to FILE.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    m = re.search(r"^(\d+) requests timed, (\d+) of them beyond p90", out, re.M)
    requests = (int(m.group(1)), int(m.group(2))) if m else None
    return json.loads(lines[-1]), requests


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--baseline")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    baseline = {}
    for w in args.workloads.split(","):
        values, counts, failed = {}, [], 0
        for seed in seeds:
            result, requests = run(w, seed, spec["run_seconds"], args.trace)
            failed += result["failed"] + (0 if result["correct"] else 1)
            if requests:
                counts.append(requests)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(w, seed, json.dumps({k: round(v["value"], 4) for k, v in result["metrics"].items()}),
                  flush=True)
        entry = {"seeds": seeds, "failed": failed, "metrics": {}}
        if counts:
            entry["requests_per_run"] = [c[0] for c in counts]
            entry["beyond_p90_per_run"] = [c[1] for c in counts]
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            note = "" if bound is None else f" bound {bound} ({'ok' if spread <= bound / 3 else 'WIDE'})"
            print(f"  {w:18s} {name:34s} median {med:12.4f} spread {spread:.4f}{note}", flush=True)
        baseline[w] = entry
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
