#!/usr/bin/env python3
"""Pins the dynreg_exp command-line contract: flags, messages, exit codes.

    python3 tests/cli_test.py path/to/dynreg_exp

For every subcommand it checks that each accepted flag rejects a bad value
with its exact `bad --X value: ...` message and exit 2, that flags a
subcommand does not accept are `unknown flag` errors (usage, exit 2), that a
missing or extra positional argument prints usage with exit 2 (so does
`run --all <name>`), that unresolvable targets exit 1, that a run directory
--out cannot create exits 1, that a recording replays (a sharded one
without repeating --shards, which replay does not take), that a config the
run cannot honour exits 1, and that one cheap experiment runs with output
independent of --jobs.
Every invocation runs in a fresh temporary directory.
"""

import json
import os
import subprocess
import sys
import tempfile

# Value grammar of every flag.
GRAMMAR = {
    "--all": "switch",
    "--seeds": "count",
    "--jobs": "count",
    "--format": "choice:table|json|csv",
    "--out": "path",
    "--max-n": "positive",
    "--workload": "choice:open|closed|bursty",
    "--clients": "positive",
    "--think": "count",
    "--burst": "on_off",
    "--op-deadline": "count",
    "--retry-attempts": "positive",
    "--retry-backoff": "backoff",
    "--shards": "positive",
    "--zipf": "decimal",
    "--read-frac": "fraction",
    "--budget": "positive",
    "--seed": "count",
    "--slack": "count",
    "--max-tests": "positive",
}

# The flags each subcommand accepts, and a valid positional argument list.
COMMANDS = {
    "list": ([], []),
    "run": (["--all", "--seeds", "--jobs", "--format", "--out", "--max-n",
             "--workload", "--clients", "--think", "--burst", "--op-deadline",
             "--retry-attempts", "--retry-backoff", "--shards", "--zipf",
             "--read-frac"], ["fig3_join_wait"]),
    "record": (["--seeds", "--jobs", "--out", "--shards"], ["E4"]),
    "replay": (["--jobs"], ["missing.trace"]),
    "search": (["--budget", "--seed", "--jobs", "--slack", "--out"], ["E4"]),
    "minimize": (["--out", "--max-tests"], ["missing.trace"]),
}

COUNT_BAD = ["x", "-1", "", "1.5", "99999999999999999999999"]
DECIMAL_BAD = ["x", "-0.5", "", "1e3", "1..2"]


def bad_values(grammar):
    """(bad values, message suffix) for a value grammar."""
    if grammar == "count":
        return COUNT_BAD, ""
    if grammar == "positive":
        return COUNT_BAD + ["0"], ""
    if grammar == "decimal":
        return DECIMAL_BAD, ""
    if grammar == "fraction":
        return DECIMAL_BAD + ["1.5"], " (expected [0, 1])"
    if grammar.startswith("choice:"):
        return ["xml", "", "JSON"], " (" + grammar[len("choice:"):] + ")"
    if grammar == "on_off":
        return ["200", "200/", "/5", "a/b", "-1/5", ""], " (expected ON/OFF ticks)"
    if grammar == "backoff":
        return ["exp:", "lin:5", "exp:-1", "", "exp:exp:3"], \
            " (expected N or exp:N ticks)"
    if grammar == "path":
        return [""], " (expected a path)"
    return [], ""


def good_value(grammar):
    """A value the grammar accepts (None for a switch)."""
    return {
        "switch": None,
        "count": "1",
        "positive": "1",
        "decimal": "0.5",
        "fraction": "0.5",
        "on_off": "5/5",
        "backoff": "exp:3",
        "path": "x.out",
    }.get(grammar, grammar.partition(":")[2].split("|")[0])


def flag_arg(flag, value):
    return flag if value is None else f"{flag}={value}"


class Cli:
    def __init__(self, exe):
        self.exe = exe
        self.failures = []
        self.cases = 0

    def run(self, argv, cwd=None):
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run([self.exe] + argv, cwd=cwd or tmp,
                                  capture_output=True, text=True, timeout=600)
        return proc

    def check(self, argv, code, stdout=None, stderr=None, stderr_prefix=None,
              stdout_prefix=None, cwd=None):
        """Runs argv and compares exit code and (exact or prefix) output."""
        self.cases += 1
        proc = self.run(argv, cwd)
        problems = []
        if proc.returncode != code:
            problems.append(f"exit {proc.returncode}, expected {code}")
        if stdout is not None and proc.stdout != stdout:
            problems.append(f"stdout {proc.stdout[:200]!r}, expected {stdout!r}")
        if stdout_prefix is not None and not proc.stdout.startswith(stdout_prefix):
            problems.append(f"stdout {proc.stdout[:200]!r}, expected prefix "
                            f"{stdout_prefix!r}")
        if stderr is not None and proc.stderr != stderr:
            problems.append(f"stderr {proc.stderr[:200]!r}, expected {stderr!r}")
        if stderr_prefix is not None and not proc.stderr.startswith(stderr_prefix):
            problems.append(f"stderr {proc.stderr[:200]!r}, expected prefix "
                            f"{stderr_prefix!r}")
        if problems:
            self.failures.append(" ".join(["dynreg_exp"] + argv) + ": " +
                                 "; ".join(problems))
        return proc

    def expect(self, what, ok):
        self.cases += 1
        if not ok:
            self.failures.append(what)


def check_bad_values(cli):
    for cmd, (flags, positional) in COMMANDS.items():
        for flag in flags:
            values, suffix = bad_values(GRAMMAR[flag])
            for value in values:
                cli.check([cmd] + positional + [f"{flag}={value}"], 2, stdout="",
                          stderr=f"bad {flag} value: {value}{suffix}\n")


def check_unknown_flags(cli):
    for cmd, (flags, positional) in COMMANDS.items():
        for flag, grammar in GRAMMAR.items():
            if flag in flags:
                continue
            arg = flag_arg(flag, good_value(grammar))
            cli.check([cmd] + positional + [arg], 2, stdout="",
                      stderr_prefix=f"unknown flag: {arg}\nusage:")
        # A value flag without "=", a switch with one, and a stray dash.
        for arg in ["--jobs", "--all=1", "-", "--bogus=1"]:
            if arg == "--jobs" and "--jobs" not in flags:
                continue
            cli.check([cmd] + positional + [arg], 2, stdout="",
                      stderr_prefix=f"unknown flag: {arg}\nusage:")


def check_operand_counts(cli):
    """A missing or extra positional argument, or a missing --out on record."""
    for argv in (["list", "fig3_join_wait"], ["run"], ["run", "--jobs=1"],
                 ["run", "--all", "fig3_join_wait"], ["record"], ["record", "E4"],
                 ["record", "E4", "E5", "--out=x.trace"], ["replay"],
                 ["replay", "a.trace", "b.trace"], ["search"], ["search", "E4", "E5"],
                 ["minimize"], ["minimize", "a.trace", "b.trace"]):
        cli.check(argv, 2, stdout="", stderr_prefix="usage:")


def check_top_level(cli):
    cli.check([], 2, stdout="", stderr_prefix="usage:")
    cli.check(["frobnicate"], 2, stdout="",
              stderr_prefix="unknown command: frobnicate\nusage:")
    for arg in ["--help", "-h", "help"]:
        proc = cli.check([arg], 0, stderr="", stdout_prefix="usage:")
        for word in list(COMMANDS) + list(GRAMMAR):
            cli.expect(f"dynreg_exp {arg}: usage does not mention {word}",
                       word in proc.stdout)


def check_unresolvable_targets(cli):
    unknown = "unknown experiment: nope (see `dynreg_exp list`)\n"
    cli.check(["run", "nope"], 1, stdout="", stderr=unknown)
    cli.check(["run", "fig3_join_wait", "nope"], 1, stdout="", stderr=unknown)
    cli.check(["record", "nope", "--out=x.trace"], 1, stdout="", stderr=unknown)
    cli.check(["replay", "missing.trace"], 1, stdout="", stderr_prefix="replay: ")
    cli.check(["search", "nope"], 1, stdout="",
              stderr_prefix="search: 'nope' is neither a known experiment nor a "
                            "readable trace file")
    cli.check(["search", "E1"], 1, stdout="",
              stderr="search: experiment fig3_join_wait has no scenario config "
                     "to perturb\n")
    cli.check(["minimize", "missing.trace"], 1, stdout="", stderr_prefix="minimize: ")


def check_replay_contract(cli):
    """A recording replays, a sharded one without repeating --shards (the
    trace file carries it), and replay refuses --shards."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "e4.trace")
        cli.check(["record", "E4", "--seeds=1", f"--out={trace}"], 0)
        cli.check(["replay", trace], 0)
        sharded = os.path.join(tmp, "e4_shards2.trace")
        cli.check(["record", "E4", "--seeds=1", "--shards=2", f"--out={sharded}"], 0)
        proc = cli.check(["replay", sharded], 0)
        cli.expect("replay of a --shards=2 recording: audit-hash mismatches",
                   " 0 audit-hash mismatch(es)" in proc.stderr)
        cli.check(["replay", sharded, "--shards=2"], 2, stdout="",
                  stderr_prefix="unknown flag: --shards=2\nusage:")


def check_rejected_configs(cli):
    """A config the run cannot honour exits 1 with `<command>: <reason>`."""
    cli.check(["run", "es_churn_sweep", "--seeds=1", "--shards=1000"], 1, stdout="",
              stderr_prefix="run: shard count 1000 exceeds the system size n=21")


def check_happy_path(cli):
    proc = cli.check(["list"], 0, stderr="")
    for word in ["fig3_join_wait", "E1", "E20"]:
        cli.expect(f"dynreg_exp list: no {word}", word in proc.stdout)

    for fmt in ["json", "csv"]:
        j1 = cli.check(["run", "fig3_join_wait", "--jobs=1", f"--format={fmt}"], 0)
        j4 = cli.check(["run", "fig3_join_wait", "--jobs=4", f"--format={fmt}"], 0)
        cli.expect(f"run fig3_join_wait --format={fmt}: empty output", j1.stdout != "")
        cli.expect(f"run fig3_join_wait --format={fmt}: --jobs=1 and --jobs=4 differ",
                   j1.stdout == j4.stdout)
        if fmt == "json":
            try:
                json.loads(j1.stdout)
                parsed = True
            except ValueError:
                parsed = False
            cli.expect("run fig3_join_wait --format=json: output is not JSON", parsed)
        else:
            csv = j1.stdout

    with tempfile.TemporaryDirectory() as tmp:
        taken = os.path.join(tmp, "taken")
        open(taken, "w").close()
        cli.check(["run", "fig3_join_wait", f"--out={taken}"], 1, stdout="",
                  stderr_prefix=f"cannot create {taken}")

        out_dir = os.path.join(tmp, "results")
        cli.check(["run", "fig3_join_wait", "--format=csv", f"--out={out_dir}"], 0,
                  stdout="", cwd=tmp)
        path = os.path.join(out_dir, "fig3_join_wait.csv")
        written = open(path).read() if os.path.exists(path) else None
        cli.expect("run --out=DIR: csv file differs from stdout csv", written == csv)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    cli = Cli(os.path.abspath(sys.argv[1]))
    check_top_level(cli)
    check_bad_values(cli)
    check_unknown_flags(cli)
    check_operand_counts(cli)
    check_unresolvable_targets(cli)
    check_replay_contract(cli)
    check_rejected_configs(cli)
    check_happy_path(cli)
    for failure in cli.failures:
        print("FAIL:", failure)
    print(f"{cli.cases - len(cli.failures)}/{cli.cases} CLI checks passed")
    return 1 if cli.failures else 0


if __name__ == "__main__":
    sys.exit(main())
