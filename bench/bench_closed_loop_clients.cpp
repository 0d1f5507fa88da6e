// E13 — closed-loop clients under churn: the client/session layer's
// capacity curve (not a claim from the paper — a systems experiment the
// client API redesign opens up).
//
// Sweeps the number of closed-loop client sessions against the eventually
// synchronous protocol under constant churn. Each session issues one read
// at a time against a uniformly random active process, waits for it to
// resolve, thinks, and repeats; session operations against the same process
// serialize FIFO (a process serves one client operation at a time). With
// more clients, sessions collide on targets more often and queue behind
// each other, so client-perceived read latency (queue wait included) grows
// monotonically with client count while per-session throughput falls — the
// classic closed-loop saturation shape. Churn adds typed failure outcomes:
// reads against a process that departs mid-operation resolve as
// kDroppedOnDeparture and show up in the drops column.
#include "harness/sweep.h"
#include "registry.h"

namespace dynreg::bench {
namespace {

using harness::ExperimentConfig;
using stats::Cell;

constexpr std::size_t kDefaultSeeds = 3;

ExperimentResult run(const RunOptions& opts) {
  const std::size_t seeds = opts.seeds > 0 ? opts.seeds : 1;  // resolved by run_resolved()

  ExperimentConfig base;
  base.protocol = harness::Protocol::kEventuallySync;
  base.timing = harness::Timing::kSynchronous;
  base.n = 15;
  base.delta = 5;
  base.duration = 4000;
  base.leave_policy = churn::LeavePolicy::kUniform;
  base.workload.kind = workload::Kind::kClosedLoop;
  base.workload.think_time = 4;
  base.workload.write_interval = 40;
  base.churn_rate = 0.5 * base.es_churn_threshold();
  apply_workload(opts, base);  // --think/--clients etc.; the sweep sets clients

  const std::vector<double> client_counts{1, 2, 4, 8, 16, 32};

  const auto points = harness::parallel_sweep(
      base, client_counts,
      [](ExperimentConfig& cfg, double k) {
        cfg.workload.clients = static_cast<std::size_t>(k);
      },
      seeds, opts.jobs, opts.session);

  stats::DataTable table({"clients", "read p50", "read p99", "mean read latency",
                          "reads completed", "read completion", "ops dropped",
                          "write p50", "write p99"});
  for (const auto& p : points) {
    const auto agg = p.aggregate();
    const double completed = harness::mean_of(p.runs, [](const harness::MetricsReport& r) {
      return static_cast<double>(r.reads_completed);
    });
    table.add_row({Cell::num(p.x, 0), Cell::num(agg.read_latency_p50.mean, 1),
                   Cell::num(agg.read_latency_p99.mean, 1),
                   Cell::num(agg.read_latency.mean, 1), Cell::num(completed, 0),
                   Cell::num(agg.read_completion.mean, 3),
                   Cell::num(agg.ops_dropped.mean, 1),
                   Cell::num(agg.write_latency_p50.mean, 1),
                   Cell::num(agg.write_latency_p99.mean, 1)});
  }

  ExperimentResult result;
  result.sections.push_back(
      {"closed_loop_clients", "", std::move(table),
       "Expected shape: client-perceived read p50/p99 grow monotonically with\n"
       "the client count (sessions serialize per target process, so more\n"
       "clients means more queueing), while total completed reads grow\n"
       "sub-linearly — the closed-loop saturation curve. Churn keeps a\n"
       "steady trickle of dropped operations at every client count.\n"});
  return result;
}

Experiment make_experiment() {
  Experiment e;
  e.name = "closed_loop_clients";
  e.id = "E13";
  e.title = "closed-loop client scaling under churn";
  e.paper_ref = "client/session API (systems extension; not a paper claim)";
  e.grid = "clients in {1, 2, 4, 8, 16, 32}; ES protocol, n=15, delta=5, think=4";
  e.default_seeds = kDefaultSeeds;
  e.run = run;
  return e;
}

const Registrar registrar{make_experiment()};

}  // namespace
}  // namespace dynreg::bench
