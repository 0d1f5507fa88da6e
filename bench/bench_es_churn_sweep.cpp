// E4 — Theorems 3-4: the eventually synchronous protocol under churn.
//
// Sweeps c in multiples of the paper's ES constraint 1/(3*delta*n) and
// reports liveness (read/write/join completion) plus the ground-truth
// check of the majority-active assumption |A(t)| > n/2 and safety.
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
  base.timing = harness::Timing::kEventuallySynchronous;
  base.gst = 0;
  base.n = 21;
  base.delta = 5;
  base.duration = 5000;
  base.workload.read_interval = 10;
  base.workload.write_interval = 60;
  apply_workload(opts, base);

  const double bound = base.es_churn_threshold();  // 1/(3*delta*n)
  const std::vector<double> multiples{0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0};

  const auto points = harness::parallel_sweep(
      base, multiples,
      [bound](ExperimentConfig& cfg, double m) { cfg.churn_rate = m * bound; }, seeds,
      opts.jobs, opts.session);

  stats::DataTable table({"c/(1/3dn)", "churn c", "read completion", "write completion",
                          "join completion", "violation rate", "violations total",
                          "majority active", "mean read latency"});
  for (const auto& p : points) {
    const auto agg = p.aggregate();
    table.add_row({Cell::num(p.x, 1), Cell::num(p.x * bound, 5),
                   Cell::num(agg.read_completion.mean, 3),
                   Cell::num(agg.write_completion.mean, 3),
                   Cell::num(agg.join_completion.mean, 3),
                   Cell::num(agg.violation_rate.mean, 4),
                   Cell::num(static_cast<double>(agg.violations_total), 0),
                   Cell::num(agg.majority_active_fraction, 2),
                   Cell::num(agg.read_latency.mean, 1)});
  }

  ExperimentResult result;
  result.sections.push_back(
      {"es_churn_sweep", "", std::move(table),
       "Expected shape (paper): at and near the constraint 1/(3*delta*n) = " +
           stats::Table::fmt(bound, 5) +
           "\noperations all complete and safety holds; far beyond it the active\n"
           "majority eventually breaks and liveness degrades first (quorums\n"
           "starve), while completed reads remain overwhelmingly legal.\n"});
  return result;
}

Experiment make_experiment() {
  Experiment e;
  e.name = "es_churn_sweep";
  e.id = "E4";
  e.title = "eventually-synchronous protocol churn sweep";
  e.paper_ref = "Theorems 3-4 (Lemmas 5-7), Section 5";
  e.grid = "c in {0, 0.5, 1, 2, 4, 8, 16, 32} x 1/(3*delta*n); n=21, delta=5";
  e.default_seeds = kDefaultSeeds;
  e.run = run;
  e.scenario = [] {
    // Search target: exactly at the ES constraint 1/(3*delta*n).
    ExperimentConfig cfg;
    cfg.protocol = harness::Protocol::kEventuallySync;
    cfg.timing = harness::Timing::kEventuallySynchronous;
    cfg.gst = 0;
    cfg.n = 21;
    cfg.delta = 5;
    cfg.duration = 5000;
    cfg.workload.read_interval = 10;
    cfg.workload.write_interval = 60;
    cfg.churn_rate = cfg.es_churn_threshold();
    return cfg;
  };
  return e;
}

const Registrar registrar{make_experiment()};

}  // namespace
}  // namespace dynreg::bench
