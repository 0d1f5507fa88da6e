"""Wall-clock and ambient-randomness bans.

The determinism contract (docs/ARCHITECTURE.md, docs/ANALYSIS.md): a
(config, seed) pair fully determines a run, bit for bit. Any read of the
host's clock or of an OS entropy source injects state the seed does not
control, so a run stops being reproducible the moment one sneaks into a
simulation path. These rules apply to *all* scanned code — src, bench,
tests — because a bench or test that depends on wall time is flaky by
construction. The sanctioned alternatives are sim::Simulation::now() for
time and the run's one sim::Rng for randomness.

std::mt19937 with a fixed literal seed is deliberately NOT banned: the
engine's output sequence is specified by the standard, and the property
tests use it as a portable scenario generator.

thread-scope keeps the simulation core single-threaded: in src/, only
harness::parallel_for (src/harness/parallel_for.cpp) starts threads, and
each of its bodies owns a whole replica. A thread started anywhere else in
the library could reach a Simulation, its Rng or its EventQueue from two
threads at once, and the order of their events would then depend on the
scheduler.
"""

from __future__ import annotations

import re

from . import Rule

# Guard against member/namespace hits (e.g. `sim.next_event_time(`,
# `queue_.next_time(`, `->time(`): the character before the identifier must
# not extend it.
_NOT_MEMBER = r"(?<![A-Za-z0-9_.:>])"

RULES = [
    Rule(
        name="wall-clock",
        description="Ban wall-clock reads; simulated time comes from Simulation::now().",
        message=(
            "wall-clock read breaks per-seed determinism — use sim::Simulation::now() "
            "(virtual time) instead"
        ),
        pattern=re.compile(
            r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
            r"|" + _NOT_MEMBER + r"(time|clock)\s*\("
            r"|" + _NOT_MEMBER + r"(gettimeofday|clock_gettime|localtime|gmtime)\s*\("
        ),
    ),
    Rule(
        name="ambient-randomness",
        description="Ban OS/global entropy; all randomness flows from the run's seeded Rng.",
        message=(
            "ambient randomness is outside the seed's control — draw from the run's "
            "sim::Rng (Simulation::rng()) instead"
        ),
        pattern=re.compile(
            r"std::random_device"
            r"|" + _NOT_MEMBER + r"random_device\b"
            r"|" + _NOT_MEMBER + r"(rand|srand|random|srandom|drand48|rand_r)\s*\("
        ),
    ),
    Rule(
        name="thread-scope",
        description=(
            "In src/, only src/harness/parallel_for.cpp may start a thread "
            "(std::thread, std::jthread, std::async)."
        ),
        message=(
            "threads in the library start only in harness::parallel_for, where each "
            "body owns a whole replica — run the work through parallel_for instead"
        ),
        pattern=re.compile(r"\bstd\s*::\s*(?:thread|jthread|async)\b"),
        paths=("src/",),
        exclude=("src/harness/parallel_for.cpp",),
    ),
]
