"""Run the benchmark over several seeds and write one BENCH_*.json record.

Usage (from the repository root):

    python3 perfbench/record.py --out perfbench/BENCH_seed.json

For each workload of BENCHMARK.json: ten untraced runs on seeds 1 to
10; the median, quartiles and spread (quartile distance over median) of
each end-to-end metric; each run's values by seed; then one traced run
on the default seed for the per-layer metrics.  Runs are made one at a
time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS = 10
FIRST_SEED = 1


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True).stdout.splitlines()
    env = json.loads(next(line for line in out if line.startswith("env: "))[5:])
    return json.loads(out[-1]), env


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    record = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            result, env = run_once(workload, seed, seconds, 0)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "values": {m: v["value"] for m, v in result["metrics"].items()}})
            print(workload, seed, runs[-1]["values"], flush=True)
        record["env"] = env
        entry = {"end_to_end": {}, "runs": runs}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            entry["end_to_end"][name] = dict(
                summarize([r["values"][name] for r in runs]),
                unit=metric["unit"], bound=metric["bound"])
        result, _ = run_once(workload, None, seconds, 1)
        entry["traced_default_seed"] = {
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "per_layer": {m: v["value"] for m, v in result["metrics"].items()}}
        record["workloads"][workload] = entry
        print(workload, json.dumps(entry["end_to_end"]), flush=True)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
