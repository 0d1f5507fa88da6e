#!/usr/bin/env python3
"""Regenerates BENCH_micro.json from the dynreg_micro google-benchmark binary.

The checked-in BENCH_micro.json is the repo's performance trajectory: a
"baseline" section (numbers recorded on the substrate of a previous PR) plus
a "current" section (this tree), with items/sec speedups computed for every
benchmark present in both. Numbers are only meaningful under the `release`
CMake preset (O2 + NDEBUG); see docs/PERFORMANCE.md.

Typical regeneration:

    cmake --preset release && cmake --build --preset release -j
    python3 scripts/record_bench.py \
        --bench build/release/bench_micro \
        --out BENCH_micro.json

The existing file's "baseline" section is preserved so the before/after
comparison survives regeneration. Pass --rebaseline to promote the freshly
measured numbers to the new baseline (e.g. at the start of a new perf PR).

A benchmark added together with the change it measures has no baseline
entry. Build the parent commit with the new benchmark's source, measure only
that benchmark there and merge its numbers into the baseline, each entry
labelled with --label:

    python3 scripts/record_bench.py --bench parent/build/release/bench_micro \
        --merge-baseline 'BM_NetworkFanIn' --label 'parent commit'
"""

import argparse
import json
import os
import subprocess
import sys


def run_google_benchmark(bench, min_time, repetitions, bench_filter):
    cmd = [
        bench,
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    if repetitions > 1:
        cmd += [
            f"--benchmark_repetitions={repetitions}",
            "--benchmark_report_aggregates_only=true",
        ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    raw = json.loads(out)
    results = {}
    for b in raw.get("benchmarks", []):
        name = b["name"]
        # With aggregate reporting keep only the median rows, stripped back
        # to the plain benchmark name.
        if repetitions > 1:
            if b.get("aggregate_name") != "median":
                continue
            name = name.rsplit("_median", 1)[0]
        entry = {
            "real_time": b["real_time"],
            "cpu_time": b["cpu_time"],
            "time_unit": b["time_unit"],
        }
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        results[name] = entry
    return results, raw.get("context", {})


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bench", required=True, help="path to the bench_micro binary")
    ap.add_argument("--out", default="BENCH_micro.json")
    ap.add_argument("--min-time", default="0.2",
                    help="google-benchmark --benchmark_min_time value")
    ap.add_argument("--repetitions", type=int, default=3,
                    help="repetitions per benchmark; the median is recorded")
    ap.add_argument("--label", default="",
                    help="label for the recorded numbers (of each entry, "
                         "with --merge-baseline)")
    ap.add_argument("--rebaseline", action="store_true",
                    help="also record the new numbers as the baseline")
    ap.add_argument("--merge-baseline", metavar="REGEX", default="",
                    help="measure only the benchmarks matching REGEX and "
                         "merge them into the existing baseline section")
    args = ap.parse_args()
    if args.merge_baseline and args.rebaseline:
        sys.exit("error: --merge-baseline merges into the baseline; "
                 "--rebaseline replaces it")

    # Validate the existing trajectory file BEFORE the (slow) benchmark run:
    # refuse to merge into (and silently clobber) a file this script does not
    # own — a wrong --out would otherwise destroy it and fabricate a bogus
    # baseline from its carcass.
    doc = {"schema": "dynreg-bench-v1"}
    if os.path.exists(args.out):
        with open(args.out) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError:
                sys.exit(f"error: {args.out} exists but is not valid JSON — "
                         f"refusing to overwrite it. Delete the file first if "
                         f"it is expendable.")
        if doc.get("schema") != "dynreg-bench-v1":
            sys.exit(
                f"error: {args.out} exists but its schema is "
                f"{doc.get('schema')!r}, not 'dynreg-bench-v1' — refusing to "
                f"overwrite a file this script did not write. Point --out at "
                f"the bench trajectory file or delete the existing file first."
            )

    if args.merge_baseline and "baseline" not in doc:
        sys.exit(f"error: {args.out} has no baseline section to merge into")

    measured, context = run_google_benchmark(args.bench, args.min_time,
                                             args.repetitions, args.merge_baseline)

    doc["schema"] = "dynreg-bench-v1"
    if args.merge_baseline:
        for entry in measured.values():
            if args.label:
                entry["label"] = args.label
        doc["baseline"]["benchmarks"].update(measured)
    else:
        doc["current"] = {
            "label": args.label or "working tree",
            "benchmarks": measured,
        }
        doc["context"] = {
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "library_build_type": context.get("library_build_type"),
        }
    if args.rebaseline or "baseline" not in doc:
        doc["baseline"] = json.loads(json.dumps(doc["current"]))
        if args.label:
            doc["baseline"]["label"] = args.label

    speedups = {}
    base = doc["baseline"]["benchmarks"]
    current = doc.get("current", {}).get("benchmarks", {})
    for name, cur in current.items():
        if name in base and "items_per_second" in cur and "items_per_second" in base[name]:
            speedups[name] = round(
                cur["items_per_second"] / base[name]["items_per_second"], 2)
        elif name in base:
            speedups[name] = round(base[name]["real_time"] / cur["real_time"], 2)
    doc["speedup_vs_baseline"] = speedups

    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")
    section = "baseline" if args.merge_baseline else "current"
    print(f"wrote {args.out} ({len(measured)} benchmarks into {section})")


if __name__ == "__main__":
    main()
