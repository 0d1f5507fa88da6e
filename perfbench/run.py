#!/usr/bin/env python3
"""Runs one dynreg benchmark workload and prints its result as one JSON line.

    python3 perfbench/run.py --workload quorum_scale --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (the dynreg library plus the runner, release settings) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later calls rebuild incrementally. With --trace 0 the runner binary then
runs the workload once in each of a series of fresh processes, pinned round
robin to the usable CPUs, until --seconds is used, and each timing reported
is a median over them; with --trace 1 it runs once, traced.

This script gates correctness: the runner's invariant checks must hold, and
for the seed stored in perfbench/expected.json every deterministic output
must equal the stored value. The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end_to_end metrics of BENCHMARK.json under --trace 0 and the
per_layer ones under --trace 1, each as {"value": ..., "unit": ...}. A run
that fails its gate counts every attempt as failed. Build and check
diagnostics go to stderr. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("quorum_scale", "churn_sessions", "fault_search")
RUN_TIMEOUT_S = 170
# An end-to-end run starts fresh runner processes, one after the other, while
# another fits in --seconds, and reports medians over them: on a shared host
# a process keeps the speed it starts with for its whole life, and that speed
# differs from one process to the next by up to a third. Each process is one
# independent sample; repetitions inside one process are not. Process i runs
# pinned to the i-th usable CPU, round robin, so every run samples each CPU
# alike instead of whichever the scheduler picked.
MIN_PROCESSES = 3
# Around every runner process, on the same CPU, perfbench_reference runs a
# fixed simulation written in the benchmark's own code, so no change to
# dynreg moves it. Each time of the process is scaled by the reference's
# nominal seconds over the mean of its two measured times, and so reads as
# seconds on a host that runs the reference in its nominal time (its median
# on the 4-vCPU Xeon VM the bounds were set on). That takes out most of the
# shared host's speed changes, which move the reference and the workload
# alike. Per workload: (nodes, events, nominal seconds); the reference's
# working set is sized like the workload's, 1e5-process worlds against a
# large table, fault_search's 15-process worlds against a small one.
REFERENCE = {
    "quorum_scale": (4096, 300000, 0.37),
    "churn_sessions": (4096, 300000, 0.37),
    "fault_search": (64, 1000000, 0.34),
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures (once) and builds the runner and the reference; returns
    the runner's path."""
    out = build_dir()
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no dynreg sources in this checkout")
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out)],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "dynreg_perfbench"


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def same(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def check_expected(run, expected, problems):
    """Compares the run's outputs with the stored ones for its seed."""
    want = expected.get(run["size"], {}).get(run["workload"])
    if want is None or want["seed"] != run["seed"]:
        return
    got = run["outputs"]
    for name in sorted(set(want["outputs"]) | set(got)):
        if name not in got or name not in want["outputs"]:
            problems.append(f"output {name} present on one side only")
        elif not same(got[name], want["outputs"][name]):
            problems.append(f"output {name}: got {got[name]}, expected {want['outputs'][name]}")


def pool(runs):
    """One result from the runner processes of a run: their outputs must
    agree; each time is scaled by its process's reference factor, wall_s and
    throughput_per_s are medians over the processes, setup_s the median over
    every set-up of every process, and peak_rss_mib the largest process's."""
    run = dict(runs[0])
    run["failures"] = [f for r in runs for f in r["failures"]]
    if any(r["outputs"] != run["outputs"] for r in runs):
        run["failures"].append("outputs differ between runner processes")
    nominal_s = REFERENCE[run["workload"]][2]
    scale = [nominal_s / r["reference_s"] for r in runs]
    metrics = run["metrics"] = dict(run["metrics"])
    metrics["wall_s"] = statistics.median(
        r["metrics"]["wall_s"] * k for r, k in zip(runs, scale))
    metrics["throughput_per_s"] = statistics.median(
        r["metrics"]["throughput_per_s"] / k for r, k in zip(runs, scale))
    metrics["setup_s"] = statistics.median(
        v * k for r, k in zip(runs, scale) for v in r["samples"]["setup_s"])
    metrics["peak_rss_mib"] = max(r["metrics"]["peak_rss_mib"] for r in runs)
    return run


def run_json(cmd, cpu):
    """Runs cmd pinned to cpu; returns the JSON object on its last stdout line."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {Path(cmd[0]).name} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measured(cmd, workload, cpu):
    """One runner process between two reference runs, all on cpu; its result
    with "reference_s", the mean of the two reference times."""
    nodes, events, _ = REFERENCE[workload]
    ref = [str(build_dir() / "perfbench_reference"), "--nodes", str(nodes), "--events", str(events)]
    before = run_json(ref, cpu)["seconds"]
    run = run_json(cmd, cpu)
    run["reference_s"] = 0.5 * (before + run_json(ref, cpu)["seconds"])
    return run


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: each workload's shape at a size the tests run in seconds")
    ap.add_argument("--expected", default=str(HERE / "expected.json"),
                    help="stored outputs the default seed is checked against")
    ap.add_argument("--update-expected", action="store_true",
                    help="store this run's outputs as the expected ones for its seed")
    args = ap.parse_args()

    spec = load_json(ROOT / "BENCHMARK.json")
    metric_defs = spec["per_layer" if args.trace else "end_to_end"]
    exe = build()

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--size", args.size]
    cpus = sorted(os.sched_getaffinity(0))
    if args.trace:
        trace_file = build_dir() / f"trace-{args.workload}-{args.size}-{args.seed}.json"
        run = measured(cmd + ["--trace-out", str(trace_file)], args.workload, cpus[0])
        run["metrics"]["host.reference_s"] = run["reference_s"]
    else:
        runs = []
        begin = time.monotonic()
        while True:
            t0 = time.monotonic()
            runs.append(measured(cmd, args.workload, cpus[len(runs) % len(cpus)]))
            last = time.monotonic() - t0
            # Stop before a process that would overrun the run's seconds.
            if len(runs) >= MIN_PROCESSES and time.monotonic() - begin + last > args.seconds:
                break
        run = pool(runs)

    problems = list(run["failures"])
    if args.update_expected:
        if problems:
            raise SystemExit(f"perfbench: not storing a failing run: {problems}")
        expected = load_json(args.expected) if Path(args.expected).is_file() else {}
        expected.setdefault(args.size, {})[args.workload] = {
            "seed": args.seed, "outputs": run["outputs"]}
        with open(args.expected, "w", encoding="utf-8") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"stored {len(run['outputs'])} outputs for {args.size}/{args.workload}")
    check_expected(run, load_json(args.expected), problems)
    for p in problems:
        log(f"check failed: {p}")

    missing = [m["name"] for m in metric_defs if m["name"] not in run["metrics"]]
    if missing:
        raise SystemExit(f"perfbench: runner did not report {missing}")
    correct = not problems
    attempted = max(1, run["attempted"])
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": run["failed"] if correct else attempted,
        "metrics": {m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
                    for m in metric_defs},
    }))


if __name__ == "__main__":
    main()
