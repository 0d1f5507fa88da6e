// E5 — Theorem 2: no regular register in a fully asynchronous dynamic
// system.
//
// Constructs the theorem's bad run: an adversary delays every message
// towards a victim process beyond any bound. The victim's quorum read
// never terminates no matter how long we wait, while the rest of the
// system keeps completing writes. Re-running the same deployment with a
// stabilization time (GST) shows the read terminating shortly after GST —
// the exact boundary between Section 4 (impossible) and Section 5
// (possible). Scripted deterministic construction: --seeds has no effect.
#include "bench_util.h"
#include "harness/parallel_for.h"
#include "registry.h"

namespace dynreg::bench {
namespace {

using stats::Cell;

constexpr sim::ProcessId kVictim = 2;

struct RunResult {
  bool write_completed = false;
  bool victim_read_completed = false;
  sim::Time victim_read_latency = 0;
};

RunResult run_scenario(replay::Session* session, sim::Time horizon,
                       std::optional<sim::Time> gst) {
  auto delays = std::make_unique<net::AsyncAdversarialDelay>(
      40, [gst](sim::Time now, sim::ProcessId, sim::ProcessId to,
                const net::Payload&) -> std::optional<sim::Duration> {
        if (to != kVictim) return std::nullopt;
        if (!gst) return 100000000;             // fully async: starved forever
        if (now < *gst) return *gst - now + 3;  // late but timely after GST
        return 3;
      });
  auto cluster = ScriptedCluster::es(
      19, 5, 0.0, std::move(delays), churn::LeavePolicy::kUniform, session,
      replay::scenario_key("E5/impossibility_async",
                           {horizon, gst ? *gst + 1 : 0u}));

  RunResult result;
  cluster->node(0)->write(OpContext{}, 1, [&result](OpOutcome o) {
    if (o == OpOutcome::kOk) result.write_completed = true;
  });
  const sim::Time read_start = 0;
  cluster->node(kVictim)->read(
      OpContext{}, [&result, &cluster, read_start](OpOutcome o, Value) {
        if (o != OpOutcome::kOk) return;
        result.victim_read_completed = true;
        result.victim_read_latency = cluster->sim.now() - read_start;
      });
  cluster->sim.run_until(horizon);
  return result;
}

ExperimentResult run(const RunOptions& opts) {
  struct Case {
    std::string timing;
    sim::Time horizon;
    std::optional<sim::Time> gst;
  };
  std::vector<Case> cases;
  for (const sim::Time horizon : {1000u, 10000u, 100000u}) {
    cases.push_back({"fully asynchronous", horizon, std::nullopt});
  }
  for (const sim::Time gst : {500u, 2000u}) {
    cases.push_back({"eventually sync (GST=" + std::to_string(gst) + ")", gst + 5000, gst});
  }

  std::vector<RunResult> outcomes(cases.size());
  harness::parallel_for(opts.jobs, cases.size(), [&](std::size_t i) {
    outcomes[i] = run_scenario(opts.session, cases[i].horizon, cases[i].gst);
  });

  stats::DataTable table({"timing model", "horizon", "writer's write", "victim's read",
                          "victim read latency"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const RunResult& r = outcomes[i];
    table.add_row(
        {Cell::str(cases[i].timing), Cell::num(static_cast<double>(cases[i].horizon), 0),
         Cell::str(r.write_completed ? "completed" : "blocked"),
         Cell::str(r.victim_read_completed ? "completed" : "NEVER TERMINATES"),
         Cell::str(r.victim_read_completed ? std::to_string(r.victim_read_latency) : "-")});
  }

  ExperimentResult result;
  result.sections.push_back(
      {"impossibility", "", std::move(table),
       "Expected shape (paper): under full asynchrony the victim's read stays\n"
       "blocked at every horizon (the adversary always has a schedule in which\n"
       "the value obtained is older than the last completed write, hence no\n"
       "protocol can be both safe and live — Theorem 2). With eventual\n"
       "synchrony the read terminates about GST + a round trip later.\n"});
  return result;
}

Experiment make_experiment() {
  Experiment e;
  e.name = "impossibility_async";
  e.id = "E5";
  e.title = "impossibility in a fully asynchronous system";
  e.paper_ref = "Theorem 2, Section 4 (vs Theorem 3, Section 5)";
  e.grid = "scripted adversary: horizons {1e3,1e4,1e5} async; GST {500,2000}; seeds ignored";
  e.default_seeds = 1;
  e.uses_seeds = false;
  e.run = run;
  return e;
}

const Registrar registrar{make_experiment()};

}  // namespace
}  // namespace dynreg::bench
