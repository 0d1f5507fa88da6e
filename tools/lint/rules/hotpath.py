"""Hot-path discipline in the library: no std::function, no RTTI casts, and
the simulation's arena only where its blocks are made.

std::function heap-allocates any capture beyond its (implementation-defined,
typically 16-byte) small-buffer budget. PR 4/5 measured that cost at one
allocation per scheduled event and per pending operation — the dominant
allocation-rate driver of a run — and replaced every hot-path callable with
sim::InlineFunction (48-byte in-place capture, move-only, one cache line).

The rule bans std::function across src/. In the hot-path layers (src/sim/,
src/net/, src/dynreg/) there is no acceptable use: convert to InlineFunction
(or a template parameter, as Simulation::schedule_* does). In the cold
layers (harness sweep configuration, node factories) an annotated use is
tolerated when the callable is created O(runs) rather than O(events):

    // dynreg-lint: allow(std-function): <cold-path justification>

The rule rtti-cast bans dynamic_cast across src/. A dynamic_cast walks the
class hierarchy's type_info at run time; the client ran one per operation
attempt to find a register node (2.8% of churn_sessions' samples). A node
names its register side through node::Node::as_register(), a virtual call,
so a lookup needs no RTTI; every site in src/ uses it. A cold site that
would need a dynamic_cast says why:

    // dynreg-lint: allow(rtti-cast): <cold-path justification>

The rule arena-scope keeps sim::Arena (and .arena() calls) in src/sim/ and
src/net/. Each kind of simulation object has one home: the arena holds the
network's broadcast batches and reply spills, each owned by one queued
event; every payload is a sim::BlockPool block (net::make_payload_in); and
a protocol's pending operations live in plain containers. A second home
for payloads or pending ops once needed an allocator adapter, an epoch
clock and a lifetime contract that no caller relied on; this rule keeps
another kind of object from moving back into the arena unnoticed.
"""

from __future__ import annotations

import re

from . import Rule

RULES = [
    Rule(
        name="std-function",
        description=(
            "Ban std::function in src/ (hot-path layers sim/, net/, dynreg/ must use "
            "sim::InlineFunction; cold layers may annotate a justified use)."
        ),
        message=(
            "std::function heap-allocates per capture; use sim::InlineFunction (see "
            "sim/inline_function.h) or a template parameter — cold-path uses need an "
            "annotated justification"
        ),
        pattern=re.compile(r"\bstd\s*::\s*function\s*<"),
        paths=("src/",),
    ),
    Rule(
        name="rtti-cast",
        description="Ban dynamic_cast in src/ (cold sites may annotate a justified use).",
        message=(
            "dynamic_cast walks RTTI on every call; use a virtual accessor such as "
            "node::Node::as_register() — cold-path uses need an annotated justification"
        ),
        pattern=re.compile(r"\bdynamic_cast\s*<"),
        paths=("src/",),
    ),
    Rule(
        name="arena-scope",
        description="Name sim::Arena and .arena() only in src/sim/ and src/net/.",
        message=(
            "the arena holds the network's batch and spill blocks alone; build a payload "
            "with net::make_payload_in over the block pool and keep other objects in "
            "plain containers"
        ),
        pattern=re.compile(r"\bsim\s*::\s*Arena\b|(?:\.|->)\s*arena\s*\(\s*\)"),
        paths=("src/",),
        exclude=("src/sim/", "src/net/"),
    ),
]
