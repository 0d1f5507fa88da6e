// E9 — the motivating comparison: a static-membership register (ABD [3])
// versus the paper's churn-aware protocols, under the same constant churn.
//
// ABD's fixed replica set drains as members leave; once fewer than a
// majority remain, every subsequent operation blocks forever. The dynamic
// protocols keep serving because joiners become first-class replicas.
#include "harness/sweep.h"
#include "harness/thread_pool.h"
#include "registry.h"

namespace dynreg::bench {
namespace {

using harness::ExperimentConfig;
using stats::Cell;

constexpr std::size_t kDefaultSeeds = 3;

ExperimentConfig base_config(harness::Protocol protocol) {
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.seed = 0;  // replica seeds become 1009, 2018, ... as in the original bench
  cfg.n = 15;
  cfg.delta = 5;
  cfg.duration = 4000;
  cfg.workload.read_interval = 15;
  cfg.workload.write_interval = 80;
  if (protocol == harness::Protocol::kEventuallySync) {
    cfg.timing = harness::Timing::kEventuallySynchronous;
    cfg.gst = 0;
  }
  return cfg;
}

ExperimentResult run(const RunOptions& opts) {
  const std::size_t seeds = opts.seeds > 0 ? opts.seeds : 1;  // resolved by run_resolved()
  const std::vector<double> churn_rates{0.0, 0.0005, 0.001, 0.002, 0.005, 0.01};
  const std::vector<harness::Protocol> protocols{harness::Protocol::kAbd,
                                                 harness::Protocol::kEventuallySync,
                                                 harness::Protocol::kSync};

  // One flattened (protocol, rate, seed) grid — no barrier between
  // protocols, so no worker idles while the slowest protocol finishes.
  const std::size_t per_protocol = churn_rates.size() * seeds;
  std::vector<harness::MetricsReport> reports(protocols.size() * per_protocol);
  harness::parallel_for(opts.jobs, reports.size(), [&](std::size_t task) {
    ExperimentConfig cfg = base_config(protocols[task / per_protocol]);
    apply_workload(opts, cfg);
    cfg.churn_rate = churn_rates[(task / seeds) % churn_rates.size()];
    if (cfg.churn_rate == 0.0) cfg.churn_kind = harness::ChurnKind::kNone;
    cfg.seed = harness::replica_seed(cfg.seed, task % seeds);
    reports[task] = harness::run_in_session(cfg, opts.session);
  });

  const auto mean = [&](std::size_t protocol, std::size_t rate,
                        double (harness::MetricsReport::*fn)() const) {
    double total = 0;
    for (std::size_t s = 0; s < seeds; ++s) {
      total += (reports[protocol * per_protocol + rate * seeds + s].*fn)();
    }
    return total / static_cast<double>(seeds);
  };

  using MR = harness::MetricsReport;
  stats::DataTable table({"churn c", "abd read compl", "abd write compl", "es read compl",
                          "es write compl", "sync read compl", "sync join compl"});
  for (std::size_t i = 0; i < churn_rates.size(); ++i) {
    table.add_row({Cell::num(churn_rates[i], 4),
                   Cell::num(mean(0, i, &MR::read_completion_rate), 3),
                   Cell::num(mean(0, i, &MR::write_completion_rate), 3),
                   Cell::num(mean(1, i, &MR::read_completion_rate), 3),
                   Cell::num(mean(1, i, &MR::write_completion_rate), 3),
                   Cell::num(mean(2, i, &MR::read_completion_rate), 3),
                   Cell::num(mean(2, i, &MR::join_completion_rate), 3)});
  }

  ExperimentResult result;
  result.sections.push_back(
      {"abd_vs_dynamic", "", std::move(table),
       "Expected shape (paper): at c = 0 all three serve everything; as c grows\n"
       "ABD's completion collapses once its fixed majority drains (for n=15 and\n"
       "a 4000-tick run, around c ~ 0.001-0.002), while the dynamic protocols\n"
       "stay at ~1.0 — churn awareness is exactly the paper's point.\n"});
  return result;
}

Experiment make_experiment() {
  Experiment e;
  e.name = "abd_vs_dynamic";
  e.id = "E9";
  e.title = "static ABD vs churn-aware protocols";
  e.paper_ref = "Section 1 motivation, Section 6 related work";
  e.grid = "churn c in {0..0.01} x protocols {abd, es, sync}; n=15";
  e.default_seeds = kDefaultSeeds;
  e.run = run;
  return e;
}

const Registrar registrar{make_experiment()};

}  // namespace
}  // namespace dynreg::bench
