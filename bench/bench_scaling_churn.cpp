// E16 — scaling law: join latency and maximum sustainable churn as the
// system grows.
//
// The synchronous protocol's sufficient churn bound c < 1/(3*delta) does
// not depend on n — but the *absolute* churn the system absorbs (c*n
// processes joining and leaving per tick) grows linearly, and every join
// costs a broadcast inquiry plus a delta-long collection window. This
// experiment measures, per n: the observed join latency (flat vs the
// paper's prediction ~2*delta), join completion under churn, and the
// empirical maximum sustainable churn fraction, confirming the bound's
// n-independence in shape while the per-tick event load scales.
//
// The default n grid stops at 1e3 (churn cells replay O(c*n*duration)
// full join protocols, each an O(n) broadcast); --max-n extends the grid
// for scaling studies on beefier machines.
#include <algorithm>
#include <string>

#include "harness/sweep.h"
#include "registry.h"

namespace dynreg::bench {
namespace {

using harness::ExperimentConfig;
using harness::MetricsReport;
using stats::Cell;

constexpr std::size_t kDefaultSeeds = 2;

std::vector<double> n_grid(const RunOptions& opts) {
  std::vector<double> grid{30, 100, 300, 1000};
  if (opts.max_n != 0) {
    const auto cap = static_cast<double>(opts.max_n);
    grid.erase(std::remove_if(grid.begin() + 1, grid.end(),
                              [cap](double n) { return n > cap; }),
               grid.end());
    if (grid.back() < cap) grid.push_back(cap);
  }
  return grid;
}

ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kSync;
  cfg.seed = 23;
  cfg.delta = 3;
  // Fixed total-join budget: the horizon shrinks as n grows so a cell costs
  // O(joins * n) messages regardless of n, keeping the big points affordable.
  cfg.duration = 600;
  cfg.churn_kind = harness::ChurnKind::kConstant;
  cfg.workload.read_interval = 20;
  cfg.workload.write_interval = 60;
  return cfg;
}

sim::Time scaled_duration(std::size_t n) {
  return std::max<sim::Time>(150, 600 * 30 / static_cast<sim::Time>(n));
}

ExperimentResult run(const RunOptions& opts) {
  const std::size_t seeds = opts.seeds > 0 ? opts.seeds : 1;  // resolved by run_resolved()
  const std::vector<double> grid = n_grid(opts);
  // Churn as a fraction of the analytic bound 1/(3*delta).
  const std::vector<double> fractions{0.3, 0.6, 0.9, 1.2};

  ExperimentResult result;
  stats::DataTable summary({"n", "join lat (c=0.3x)", "join completion (0.9x)",
                            "max clean fraction"});

  for (const double n_val : grid) {
    const auto n = static_cast<std::size_t>(n_val);
    ExperimentConfig cfg = base_config();
    cfg.n = n;
    cfg.duration = scaled_duration(n);
    apply_workload(opts, cfg);
    const double threshold = cfg.sync_churn_threshold();

    const auto points = harness::parallel_sweep(
        cfg, fractions,
        [threshold](ExperimentConfig& c, double f) { c.churn_rate = f * threshold; },
        seeds, opts.jobs, opts.session);

    stats::DataTable table({"c/threshold", "joins/run", "join completion",
                            "join lat mean", "violation rate"});
    double lat_low = 0.0, completion_high = 0.0, max_clean = 0.0;
    for (const auto& p : points) {
      double joins = 0;
      for (const MetricsReport& r : p.runs) {
        joins += static_cast<double>(r.joins_started);
      }
      joins /= static_cast<double>(p.runs.size());
      const double viol = p.mean_violation_rate();
      table.add_row({Cell::num(p.x, 2), Cell::num(joins, 1),
                     Cell::num(p.mean_join_completion(), 2),
                     Cell::num(p.mean_join_latency(), 1), Cell::num(viol, 4)});
      if (p.x == fractions.front()) lat_low = p.mean_join_latency();
      if (p.x == 0.9) completion_high = p.mean_join_completion();
      if (viol == 0.0) max_clean = std::max(max_clean, p.x);
    }
    result.sections.push_back(
        {"n" + std::to_string(n),
         "n = " + std::to_string(n) + " (threshold c = " +
             stats::Table::fmt(threshold, 4) +
             ", horizon = " + std::to_string(scaled_duration(n)) + ")",
         std::move(table), ""});
    summary.add_row({Cell::num(n_val, 0), Cell::num(lat_low, 1),
                     Cell::num(completion_high, 2), Cell::num(max_clean, 2)});
  }

  result.sections.push_back(
      {"summary", "scaling summary", std::move(summary),
       "Expected shape: join latency stays ~2*delta + wait, independent of\n"
       "n (the collection window, not the system size, dominates), and the\n"
       "sustainable churn fraction stays near the n-independent analytic\n"
       "bound — the absolute event load c*n*duration is what grows."});
  return result;
}

Experiment make_experiment() {
  Experiment e;
  e.name = "scaling_churn";
  e.id = "E16";
  e.title = "join latency and sustainable churn vs n";
  e.paper_ref = "Theorem 1 bound's n-independence; Section 7 scaling question";
  e.grid = "n {30..1e3; --max-n extends} x c/threshold {0.3, 0.6, 0.9, 1.2}";
  e.default_seeds = kDefaultSeeds;
  e.run = run;
  e.scenario = [] {
    ExperimentConfig cfg = base_config();
    cfg.n = 100;
    cfg.duration = scaled_duration(100);
    cfg.churn_rate = 0.3 * cfg.sync_churn_threshold();
    return cfg;
  };
  return e;
}

const Registrar registrar{make_experiment()};

}  // namespace
}  // namespace dynreg::bench
