// E18 — liveness envelope: client retry policy vs. partition length.
//
// Runs the ES protocol under symmetric link partitions of increasing length
// with an operation deadline armed, and compares three client retry
// policies: no retries, fixed-interval retries, and exponential backoff
// with deterministic jitter. The question is operational, not safety: how
// much of the offered load completes once the cut heals, and at what retry
// cost, while the register itself stays regular throughout (partitions are
// omission faults — inside the paper's model).
#include "harness/sweep.h"
#include "registry.h"

namespace dynreg::bench {
namespace {

using harness::ExperimentConfig;
using stats::Cell;

constexpr std::size_t kDefaultSeeds = 3;

struct Policy {
  const char* label;
  std::uint32_t attempts;
  sim::Duration backoff;
  bool exponential;
};

ExperimentResult run(const RunOptions& opts) {
  const std::size_t seeds = opts.seeds > 0 ? opts.seeds : 1;  // resolved by run_resolved()

  ExperimentConfig base;
  base.protocol = harness::Protocol::kEventuallySync;
  base.timing = harness::Timing::kEventuallySynchronous;
  base.gst = 0;
  base.n = 15;
  base.delta = 5;
  base.duration = 2500;
  base.workload.read_interval = 10;
  base.workload.write_interval = 60;
  base.workload.op_deadline = 40;  // 8*delta: generous for a quorum round trip
  apply_workload(opts, base);

  const std::vector<Policy> policies{
      {"none", 1, 0, false},
      {"fixed", 6, 10, false},
      {"exponential", 6, 10, true},
  };
  // x = partition length; 0 keeps the fault plan disabled (baseline row).
  const std::vector<double> durations{0, 100, 300};

  stats::DataTable table({"retry policy", "partition len", "partitions", "msgs cut",
                          "ops timed out", "retries", "read completion",
                          "read p99", "violations total"});
  for (const Policy& pol : policies) {
    ExperimentConfig cfg = base;
    cfg.workload.retry_max_attempts = pol.attempts;
    cfg.workload.retry_backoff = pol.backoff;
    cfg.workload.retry_exponential = pol.exponential;
    const auto points = harness::parallel_sweep(
        cfg, durations,
        [](ExperimentConfig& c, double len) {
          if (len <= 0) return;
          c.fault.partition.rate = 0.004;
          c.fault.partition.duration = static_cast<sim::Duration>(len);
          c.fault.partition.fraction = 0.3;
          c.fault.partition.asymmetric = false;  // symmetric cut: both ways
        },
        seeds, opts.jobs, opts.session);
    for (const auto& p : points) {
      const auto agg = p.aggregate();
      table.add_row(
          {Cell::str(pol.label), Cell::num(p.x, 0),
           Cell::num(harness::mean_of(p.runs,
                                      [](const harness::MetricsReport& r) {
                                        return r.faults_partitions;
                                      }),
                     1),
           Cell::num(harness::mean_of(p.runs,
                                      [](const harness::MetricsReport& r) {
                                        return r.msgs_dropped_partition;
                                      }),
                     0),
           Cell::num(agg.ops_timed_out.mean, 1), Cell::num(agg.op_retries.mean, 1),
           Cell::num(agg.read_completion.mean, 3),
           Cell::num(agg.read_latency_p99.mean, 1),
           Cell::num(static_cast<double>(agg.violations_total), 0)});
    }
  }

  ExperimentResult result;
  result.sections.push_back(
      {"fault_liveness", "", std::move(table),
       "Expected shape: with no retries, every operation caught mid-partition\n"
       "times out and completion drops with partition length. Retries recover\n"
       "most of the loss once the cut heals; exponential backoff reaches the\n"
       "same completion as fixed-interval with fewer retransmitted attempts\n"
       "on long cuts (attempts stop landing inside the dead window).\n"
       "Violations stay at zero throughout — partitions are omission faults,\n"
       "inside the paper's model, so this is a liveness envelope only.\n"});
  return result;
}

Experiment make_experiment() {
  Experiment e;
  e.name = "fault_liveness";
  e.id = "E18";
  e.title = "liveness under partitions vs. client retry policy";
  e.paper_ref = "liveness discussion of Sections 3/5 (operations under omission)";
  e.grid =
      "retry policy in {none, fixed, exponential} x partition length in "
      "{0, 100, 300}; ES, n=15, delta=5, deadline=8*delta";
  e.default_seeds = kDefaultSeeds;
  e.run = run;
  e.scenario = [] {
    // Search/record target: exponential-backoff clients against 300-tick
    // symmetric cuts.
    ExperimentConfig cfg;
    cfg.protocol = harness::Protocol::kEventuallySync;
    cfg.timing = harness::Timing::kEventuallySynchronous;
    cfg.gst = 0;
    cfg.n = 15;
    cfg.delta = 5;
    cfg.duration = 2500;
    cfg.workload.read_interval = 10;
    cfg.workload.write_interval = 60;
    cfg.workload.op_deadline = 40;
    cfg.workload.retry_max_attempts = 6;
    cfg.workload.retry_backoff = 10;
    cfg.workload.retry_exponential = true;
    cfg.fault.partition.rate = 0.004;
    cfg.fault.partition.duration = 300;
    cfg.fault.partition.fraction = 0.3;
    return cfg;
  };
  return e;
}

const Registrar registrar{make_experiment()};

}  // namespace
}  // namespace dynreg::bench
