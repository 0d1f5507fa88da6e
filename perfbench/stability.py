#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/stability.py --seeds 10 --sets 2 --out .bench_build/stability.json

Runs perfbench/run.py --trace 0 once per (set, seed, workload), each a fresh
process, interleaving the workloads inside every seed so that slow drift of
the machine hits all of them alike. For each workload and end-to-end metric
it prints the spread of the values over the seeds, (Q3 - Q1) / median with
the quartiles of statistics.quantiles(values, n=4), beside the metric's
bound from BENCHMARK.json, and, with two sets, how far the second set's
median moved from the first's. Every set uses seeds 1 .. seeds, so a shift
between sets is the host's, not a difference in the seeds' work.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"stability: {workload} seed {seed} failed its correctness gate")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--out", help="JSON file for every value measured")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    values = {}  # (set, workload, metric) -> list
    for k in range(args.sets):
        for seed in range(1, args.seeds + 1):
            for w in workloads:
                for name, v in run_once(w, seed, seconds).items():
                    values.setdefault(f"{k}/{w}/{name}", []).append(v)
                print(f"set {k} seed {seed} {w} done", file=sys.stderr, flush=True)

    rows = []
    for w in workloads:
        for m in spec["end_to_end"]:
            sets = [values[f"{k}/{w}/{m['name']}"] for k in range(args.sets)]
            medians = [statistics.median(s) for s in sets]
            row = {"workload": w, "metric": m["name"], "bound": m["bound"],
                   "median": medians[0], "spreads": [spread(s) for s in sets]}
            if args.sets > 1:
                worse = (medians[1] - medians[0]) / medians[0]
                row["median_shift"] = -worse if m["better"] == "higher" else worse
            rows.append(row)
    for r in rows:
        shift = f"  shift {r['median_shift']:+.3f}" if "median_shift" in r else ""
        spreads = " ".join(f"{s:.3f}" for s in r["spreads"])
        print(f"{r['workload']:15} {r['metric']:17} median {r['median']:<12.5g} "
              f"spread {spreads}  bound {r['bound']:.2f}{shift}")
    if args.out:
        Path(args.out).write_text(json.dumps({"rows": rows, "values": values}, indent=1))


if __name__ == "__main__":
    main()
