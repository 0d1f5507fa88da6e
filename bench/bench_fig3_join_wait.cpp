// E1 — Figure 3: why the synchronous join must wait delta before inquiring.
//
// Scenario (as in the paper's figure): three processes hold value 0; the
// writer broadcasts WRITE(1) at tau = 5; a new process begins its join
// shortly after tau and therefore has no delivery guarantee for that
// broadcast. The adversary makes WRITE messages take the full delta while
// inquiry traffic is fast.
//
// Output: one row per joiner offset and protocol variant, reporting the
// value the join adopted and whether a post-write read is stale (a safety
// violation). The no-wait variant (Figure 3a) violates for every offset
// inside the write window; the paper's protocol (Figure 3b) never does.
// This is a scripted deterministic construction: --seeds has no effect.
#include "bench_util.h"
#include "dynreg/messages.h"
#include "harness/parallel_for.h"
#include "registry.h"

namespace dynreg::bench {
namespace {

using stats::Cell;

constexpr sim::Duration kDelta = 10;

struct Outcome {
  Value joined_value = kBottom;
  Value read_after_write = kBottom;
  bool write_completed = false;
};

Outcome run_scenario(replay::Session* session, bool wait_before_inquiry,
                     sim::Duration joiner_offset) {
  SyncConfig cfg;
  cfg.delta = kDelta;
  cfg.wait_before_inquiry = wait_before_inquiry;

  // WRITE broadcasts take the full delta (ph/pk still hold the old value
  // when the no-wait joiner inquires); the writer's own REPLY takes delta on
  // both hops and so lands exactly after the joiner's 2*delta collection
  // window closes — the legal worst case the figure depicts.
  auto delays = std::make_unique<net::AsyncAdversarialDelay>(
      kDelta, [](sim::Time, sim::ProcessId from, sim::ProcessId to,
                 const net::Payload& p) -> std::optional<sim::Duration> {
        const net::PayloadTypeId type = p.type_id();
        if (type == msg::kSyncWrite) return kDelta;
        if (type == msg::kSyncInquiry && to == 0) return kDelta;
        if (type == msg::kSyncReply && from == 0) return kDelta;
        return 1;
      });
  auto cluster = ScriptedCluster::sync(
      3, 3, 0.0, cfg, std::move(delays), churn::LeavePolicy::kUniform, session,
      replay::scenario_key("E1/fig3_join_wait",
                           {wait_before_inquiry ? 1u : 0u, joiner_offset}));

  Outcome out;
  cluster->sim.run_until(5);
  cluster->node(0)->write(OpContext{}, 1, [&out](OpOutcome o) {
    if (o == OpOutcome::kOk) out.write_completed = true;
  });

  cluster->sim.run_until(5 + joiner_offset);
  const sim::ProcessId joiner = cluster->world.system.spawn();

  cluster->sim.run_until(200);
  out.joined_value = cluster->node(joiner)->local_value();
  out.read_after_write = cluster->read_blocking(joiner).value_or(kBottom);
  return out;
}

std::string value_str(Value v) { return v == kBottom ? "BOT" : std::to_string(v); }

ExperimentResult run(const RunOptions& opts) {
  struct Case {
    bool wait;
    sim::Duration offset;
  };
  std::vector<Case> cases;
  for (const bool wait : {false, true}) {
    for (const sim::Duration offset : {1u, 3u, 5u, 8u}) cases.push_back({wait, offset});
  }

  std::vector<Outcome> outcomes(cases.size());
  harness::parallel_for(opts.jobs, cases.size(), [&](std::size_t i) {
    outcomes[i] = run_scenario(opts.session, cases[i].wait, cases[i].offset);
  });

  stats::DataTable table({"variant", "join offset after write", "value adopted by join",
                          "read after write done", "safety violation"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Outcome& out = outcomes[i];
    // The write completed long before the final read, so any value other
    // than 1 is a violation of the regular-register safety property.
    const bool violation = out.read_after_write != 1;
    table.add_row({Cell::str(cases[i].wait ? "with wait (Fig 3b)" : "no wait (Fig 3a)"),
                   Cell::str("+" + std::to_string(cases[i].offset)),
                   Cell::str(value_str(out.joined_value)),
                   Cell::str(value_str(out.read_after_write)),
                   Cell::str(violation ? "VIOLATION" : "ok")});
  }

  ExperimentResult result;
  result.sections.push_back(
      {"join_wait", "", std::move(table),
       "Expected shape (paper): every no-wait row inside the write window is a\n"
       "violation (the join adopts the superseded value 0); every with-wait row\n"
       "is clean because the initial delta wait lets WRITE(1) land at the\n"
       "repliers first.\n"});
  return result;
}

Experiment make_experiment() {
  Experiment e;
  e.name = "fig3_join_wait";
  e.id = "E1";
  e.title = "join wait(delta) necessity";
  e.paper_ref = "Figure 3(a)/(b), Section 3.3";
  e.grid = "scripted scenario: {no wait, wait} x joiner offset {1,3,5,8}; seeds ignored";
  e.default_seeds = 1;
  e.uses_seeds = false;
  e.run = run;
  return e;
}

const Registrar registrar{make_experiment()};

}  // namespace
}  // namespace dynreg::bench
