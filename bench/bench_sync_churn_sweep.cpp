// E3 — Theorem 1: the synchronous protocol implements a regular register
// for c < 1/(3*delta); past the threshold the guarantee collapses.
//
// Sweeps c across the threshold and reports safety (violation rate over
// completed reads — plus the non-averaged totals, see harness/aggregate.h —
// and reads of bottom) and liveness (join completion rate, join latency).
// Departures are adversarial (oldest active first), the paper's worst case.
// A second section isolates information survival: no writes and no churn
// exemption, so the initial value must survive purely through join inquiry
// chains.
#include "harness/sweep.h"
#include "registry.h"

namespace dynreg::bench {
namespace {

using harness::ExperimentConfig;
using stats::Cell;

constexpr std::size_t kDefaultSeeds = 3;

ExperimentConfig base_config() {
  ExperimentConfig base;
  base.protocol = harness::Protocol::kSync;
  base.n = 40;
  base.delta = 5;
  base.duration = 3000;
  base.leave_policy = churn::LeavePolicy::kOldestActiveFirst;
  base.workload.read_interval = 3;
  base.workload.write_interval = 30;
  return base;
}

const std::vector<double> kFractions{0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0, 3.0};

ExperimentResult run(const RunOptions& opts) {
  const std::size_t seeds = opts.seeds > 0 ? opts.seeds : 1;  // resolved by run_resolved()
  ExperimentConfig base = base_config();
  apply_workload(opts, base);
  const double threshold = base.sync_churn_threshold();
  const auto set_churn = [threshold](ExperimentConfig& cfg, double f) {
    cfg.churn_rate = f * threshold;
  };

  ExperimentResult result;

  {
    const auto points =
        harness::parallel_sweep(base, kFractions, set_churn, seeds, opts.jobs, opts.session);
    stats::DataTable table(
        {"c/threshold", "churn c", "violation rate", "violations total",
         "violations max/seed", "reads of bottom", "join completion",
         "mean join latency", "min |A(t,t+3d)|"});
    for (const auto& p : points) {
      const auto agg = p.aggregate();
      table.add_row({Cell::num(p.x, 2), Cell::num(p.x * threshold, 4),
                     Cell::num(agg.violation_rate.mean, 4),
                     Cell::num(static_cast<double>(agg.violations_total), 0),
                     Cell::num(static_cast<double>(agg.violations_max_seed), 0),
                     Cell::num(agg.reads_of_bottom.mean, 1),
                     Cell::num(agg.join_completion.mean, 3),
                     Cell::num(agg.join_latency.mean, 1),
                     Cell::num(agg.min_active_3delta.mean, 1)});
    }
    result.sections.push_back(
        {"churn_sweep", "", std::move(table),
         "Expected shape (paper): zero violations while c < 1/(3*delta) = " +
             stats::Table::fmt(threshold, 4) +
             ";\nabove the threshold the 3-delta active window empties out, joins\n"
             "start completing with bottom, and stale/bottom reads appear. The\n"
             "pinned writer (paper: the writer stays in the system) is itself an\n"
             "always-active replier, which keeps the system robust well past the\n"
             "threshold — the bound is sufficient, not necessary.\n"});
  }

  {
    ExperimentConfig surv = base;
    surv.workload.writes_enabled = false;
    surv.workload.read_interval = 5;
    const auto points =
        harness::parallel_sweep(surv, kFractions, set_churn, seeds, opts.jobs, opts.session);
    stats::DataTable table({"c/threshold", "reads of bottom", "violation rate",
                            "violations total", "min |A(t,t+3d)|", "value survived"});
    for (const auto& p : points) {
      const auto agg = p.aggregate();
      const double survived = harness::mean_of(p.runs, [](const harness::MetricsReport& r) {
        return r.reads_of_bottom == 0 ? 1.0 : 0.0;
      });
      table.add_row({Cell::num(p.x, 2), Cell::num(agg.reads_of_bottom.mean, 1),
                     Cell::num(agg.violation_rate.mean, 4),
                     Cell::num(static_cast<double>(agg.violations_total), 0),
                     Cell::num(agg.min_active_3delta.mean, 1), Cell::num(survived, 2)});
    }
    result.sections.push_back(
        {"information_survival", "information survival (no writes, no churn exemption)",
         std::move(table),
         "Expected shape (paper): survival is certain below the threshold\n"
         "(Lemma 2 keeps an informed active replier in every window) and\n"
         "collapses as c crosses 1/(3*delta) under adversarial departures.\n"});
  }

  return result;
}

Experiment make_experiment() {
  Experiment e;
  e.name = "sync_churn_sweep";
  e.id = "E3";
  e.title = "synchronous protocol churn sweep";
  e.paper_ref = "Theorem 1 (Lemmas 1-4), Section 3";
  e.grid = "c/threshold in {0..3} x 2 workloads (standard, survival)";
  e.default_seeds = kDefaultSeeds;
  e.run = run;
  e.scenario = [] {
    // Search target: just below the Theorem 1 threshold, where the base
    // schedule is safe but adversarial reordering has the most room.
    ExperimentConfig cfg = base_config();
    cfg.churn_rate = 0.8 * cfg.sync_churn_threshold();
    return cfg;
  };
  return e;
}

const Registrar registrar{make_experiment()};

}  // namespace
}  // namespace dynreg::bench
