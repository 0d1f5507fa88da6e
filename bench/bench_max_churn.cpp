// E10 — the conclusion's open question: what is the greatest churn rate a
// synchronous system can sustain, as a function of the delay bound delta?
//
// Setup that isolates the threshold (no pinned writer to lean on): writes
// are disabled and no process is exempt from churn, so the register's
// initial value must survive purely through join inquiry chains — the
// paper's durability argument in its purest form. A run "fails" when some
// read returns bottom (the information died). For each delta, a churn grid
// locates the empirical maximum sustainable c, compared against the
// analytic sufficient bound 1/(3*delta), under both uniform and
// adversarial departures.
#include "harness/sweep.h"
#include "registry.h"

namespace dynreg::bench {
namespace {

using harness::ExperimentConfig;
using stats::Cell;

constexpr std::size_t kDefaultSeeds = 4;

ExperimentConfig survival_config(sim::Duration delta) {
  ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kSync;
  cfg.n = 30;
  cfg.delta = delta;
  cfg.duration = 3000;
  cfg.workload.writes_enabled = false;  // survival mode: no writer crutch
  cfg.workload.read_interval = 5;
  return cfg;
}

/// Fraction of runs in which the value survived (no read of bottom).
double survival_fraction(const std::vector<harness::MetricsReport>& runs) {
  double ok = 0;
  for (const auto& r : runs) {
    if (r.reads_of_bottom == 0 && r.regularity.ok()) ok += 1.0;
  }
  return ok / static_cast<double>(runs.size());
}

const char* policy_tag(churn::LeavePolicy policy) {
  return policy == churn::LeavePolicy::kUniform ? "uniform" : "adversarial";
}

ExperimentResult run(const RunOptions& opts) {
  const std::size_t seeds = opts.seeds > 0 ? opts.seeds : 1;  // resolved by run_resolved()
  const std::vector<double> grid{0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0};
  const std::vector<sim::Duration> deltas{3, 5, 8};

  ExperimentResult result;

  for (const churn::LeavePolicy policy :
       {churn::LeavePolicy::kUniform, churn::LeavePolicy::kOldestActiveFirst}) {
    stats::DataTable summary({"delta", "analytic 1/(3d)", "empirical max c (grid)",
                              "empirical/analytic"});
    for (const sim::Duration delta : deltas) {
      ExperimentConfig cfg = survival_config(delta);
      cfg.leave_policy = policy;
      apply_workload(opts, cfg);
      const double threshold = cfg.sync_churn_threshold();

      const auto points = harness::parallel_sweep(
          cfg, grid,
          [threshold](ExperimentConfig& c, double f) { c.churn_rate = f * threshold; },
          seeds, opts.jobs, opts.session);

      double max_clean_fraction = 0.0;
      stats::DataTable detail({"c/threshold", "survival fraction", "violation rate",
                               "min |A(t,t+3d)|"});
      for (const auto& p : points) {
        const double surv = survival_fraction(p.runs);
        if (surv == 1.0) max_clean_fraction = p.x;
        detail.add_row({Cell::num(p.x, 2), Cell::num(surv, 2),
                        Cell::num(p.mean_violation_rate(), 4),
                        Cell::num(p.mean_min_active_3delta(), 1)});
      }
      result.sections.push_back(
          {std::string(policy_tag(policy)) + "_delta" + std::to_string(delta),
           std::string(policy_tag(policy)) + " departures, delta = " +
               std::to_string(delta) + " (threshold c = " +
               stats::Table::fmt(threshold, 4) + ")",
           std::move(detail), ""});
      summary.add_row({Cell::num(static_cast<double>(delta), 0),
                       Cell::num(threshold, 4),
                       Cell::num(max_clean_fraction * threshold, 4),
                       Cell::num(max_clean_fraction, 2)});
    }
    const bool last = policy == churn::LeavePolicy::kOldestActiveFirst;
    result.sections.push_back(
        {std::string(policy_tag(policy)) + "_summary",
         std::string(policy_tag(policy)) + " departures: summary", std::move(summary),
         last ? "Expected shape (paper): the analytic bound 1/(3*delta) is sufficient —\n"
                "survival is certain below it for every delta. It is nearly necessary\n"
                "under adversarial departures (empirical/analytic close to 1), while\n"
                "uniform departures leave some slack: late joiners can get lucky and\n"
                "find an informed replier even past the bound. The empirical maximum\n"
                "scales like 1/delta, answering the conclusion's question in shape.\n"
              : ""});
  }

  return result;
}

Experiment make_experiment() {
  Experiment e;
  e.name = "max_churn";
  e.id = "E10";
  e.title = "empirical maximum sustainable churn";
  e.paper_ref = "Section 7 open question (greatest c as a function of delta)";
  e.grid = "policies {uniform, adversarial} x delta {3,5,8} x c/threshold {0.25..3}";
  e.default_seeds = kDefaultSeeds;
  e.run = run;
  return e;
}

const Registrar registrar{make_experiment()};

}  // namespace
}  // namespace dynreg::bench
