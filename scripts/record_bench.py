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

--merge-baseline runs only the matching benchmarks, in a fresh process. A
benchmark that allocates heavily reads slower there than in the full suite,
where the earlier benchmarks have already grown the heap
(BM_BuildEsWorld/100000: about 23 ms alone, 7-10 ms after the fan-in
benchmarks), so compare it with a current number measured the same way:
--filter REGEX measures only the matching benchmarks on this tree and
merges them into the current section, leaving its other entries as they
are:

    python3 scripts/record_bench.py --bench build/release/bench_micro \
        --filter 'BM_NetworkFanIn' --label 'filtered run'

Two filtered runs taken minutes apart still drift apart on a shared host by
more than a small change moves a benchmark. --interleave PARENT_BENCH runs
the parent's binary and this tree's alternately, --rounds times each, every
run a fresh process over the --filter benchmarks, and records each side's
median over its rounds: the parent's into the baseline section and this
tree's into the current one, so the recorded ratio compares numbers measured
alike:

    python3 scripts/record_bench.py --bench build/release/bench_micro \
        --interleave parent/build/release/bench_micro \
        --filter 'BM_NetworkFanIn|BM_BuildEsWorld' --rounds 6
"""

import argparse
import json
import os
import statistics
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


def run_interleaved(bench, parent_bench, min_time, repetitions, bench_filter,
                    rounds):
    """Each side's per-benchmark median over `rounds` alternating runs."""
    samples = {"parent": {}, "current": {}}
    context = {}
    for r in range(rounds):
        # Alternate which side goes first, so a drift favours neither.
        order = [("parent", parent_bench), ("current", bench)]
        if r % 2:
            order.reverse()
        for side, binary in order:
            measured, ctx = run_google_benchmark(binary, min_time, repetitions,
                                                 bench_filter)
            if side == "current":
                context = ctx
            for name, entry in measured.items():
                samples[side].setdefault(name, []).append(entry)
    medians = {}
    for side, by_name in samples.items():
        medians[side] = {}
        for name, entries in by_name.items():
            entry = {
                "real_time": statistics.median(e["real_time"] for e in entries),
                "cpu_time": statistics.median(e["cpu_time"] for e in entries),
                "time_unit": entries[0]["time_unit"],
            }
            if all("items_per_second" in e for e in entries):
                entry["items_per_second"] = statistics.median(
                    e["items_per_second"] for e in entries)
            medians[side][name] = entry
    return medians["parent"], medians["current"], context


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
                         "with --merge-baseline or --filter)")
    ap.add_argument("--rebaseline", action="store_true",
                    help="also record the new numbers as the baseline")
    ap.add_argument("--merge-baseline", metavar="REGEX", default="",
                    help="measure only the benchmarks matching REGEX and "
                         "merge them into the existing baseline section")
    ap.add_argument("--filter", metavar="REGEX", default="",
                    help="measure only the benchmarks matching REGEX and "
                         "merge them into the existing current section, "
                         "measured as --merge-baseline measures the baseline")
    ap.add_argument("--interleave", metavar="PARENT_BENCH", default="",
                    help="with --filter: alternate runs of PARENT_BENCH and "
                         "--bench and record each side's median, the "
                         "parent's into the baseline section")
    ap.add_argument("--rounds", type=int, default=6,
                    help="runs per side with --interleave")
    args = ap.parse_args()
    if args.interleave and not args.filter:
        sys.exit("error: --interleave measures the --filter benchmarks; "
                 "pass --filter REGEX")
    if args.rounds < 1:
        sys.exit("error: --rounds must be at least 1")
    if args.merge_baseline and args.rebaseline:
        sys.exit("error: --merge-baseline merges into the baseline; "
                 "--rebaseline replaces it")
    if args.filter and (args.merge_baseline or args.rebaseline):
        sys.exit("error: --filter merges into the current section; it does "
                 "not combine with --merge-baseline or --rebaseline")

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
    if args.filter and "current" not in doc:
        sys.exit(f"error: {args.out} has no current section to merge into")

    if args.filter and args.interleave and "baseline" not in doc:
        sys.exit(f"error: {args.out} has no baseline section to merge into")

    parent_measured = {}
    if args.interleave:
        parent_measured, measured, context = run_interleaved(
            args.bench, args.interleave, args.min_time, args.repetitions,
            args.filter, args.rounds)
        if set(parent_measured) != set(measured):
            sys.exit("error: the two binaries ran different benchmarks: "
                     f"{sorted(set(parent_measured) ^ set(measured))}")
    else:
        measured, context = run_google_benchmark(args.bench, args.min_time,
                                                 args.repetitions,
                                                 args.merge_baseline or args.filter)
    if (args.merge_baseline or args.filter) and not measured:
        sys.exit("error: the filter matched no benchmark")

    doc["schema"] = "dynreg-bench-v1"
    if parent_measured:
        for entry in parent_measured.values():
            if args.label:
                entry["label"] = args.label
        doc["baseline"]["benchmarks"].update(parent_measured)
    if args.merge_baseline or args.filter:
        for entry in measured.values():
            if args.label:
                entry["label"] = args.label
        section = "baseline" if args.merge_baseline else "current"
        doc[section]["benchmarks"].update(measured)
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
    if parent_measured:
        section = "baseline and current"
    print(f"wrote {args.out} ({len(measured)} benchmarks into {section})")


if __name__ == "__main__":
    main()
