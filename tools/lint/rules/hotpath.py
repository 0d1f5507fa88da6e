"""Hot-path discipline in the library: no std::function, no RTTI casts.

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
]
