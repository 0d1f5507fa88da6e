// E6 — the introduction's regularity figure: new/old inversions.
//
// A regular register may answer two non-concurrent reads in "inverted"
// order when both overlap the same write. This bench measures inversion
// frequency for the synchronous protocol as reads increasingly race the
// delta-long write propagation — and contrasts the ABD baseline, whose
// read write-back makes it atomic (zero inversions, by construction).
#include "harness/sweep.h"
#include "registry.h"

namespace dynreg::bench {
namespace {

using harness::ExperimentConfig;
using stats::Cell;

constexpr std::size_t kDefaultSeeds = 5;

ExperimentConfig base_config(harness::Protocol protocol) {
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.seed = 0;
  cfg.n = 16;
  cfg.delta = 12;  // long write windows maximize read/write concurrency
  cfg.duration = 4000;
  cfg.churn_kind = harness::ChurnKind::kNone;
  cfg.workload.write_interval = 8;
  if (protocol == harness::Protocol::kAbd) {
    cfg.workload.write_interval = 20;  // ABD writes are slower; keep them serialized
  }
  return cfg;
}

struct Case {
  harness::Protocol protocol;
  const char* label;
  sim::Duration gap;
};

ExperimentResult run(const RunOptions& opts) {
  const std::size_t seeds = opts.seeds > 0 ? opts.seeds : 1;  // resolved by run_resolved()

  std::vector<Case> cases;
  for (const sim::Duration gap : {1u, 2u, 4u, 8u, 16u}) {
    cases.push_back({harness::Protocol::kSync, "sync (regular)", gap});
  }
  for (const sim::Duration gap : {1u, 4u}) {
    cases.push_back({harness::Protocol::kAbd, "abd (atomic)", gap});
  }

  // One (case, seed) grid — the abd cells run alongside the sync cells
  // instead of behind a barrier.
  std::vector<ExperimentConfig> cells;
  for (const Case& c : cases) {
    ExperimentConfig cfg = base_config(c.protocol);
    apply_workload(opts, cfg);
    cfg.workload.read_interval = c.gap;
    cells.push_back(cfg);
  }
  const auto grid = harness::run_grid(cells, seeds, opts.jobs, opts.session);

  stats::DataTable table({"protocol", "read gap (ticks)", "reads checked",
                          "inversions / 1k reads", "inversions max/seed",
                          "regularity violations"});
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto agg = harness::aggregate_metrics(grid[c]);
    double reads = 0;  // a rate over the pooled reads, not a mean of rates
    for (const auto& r : grid[c]) reads += static_cast<double>(r.atomicity.reads_checked);
    const auto inversions = static_cast<double>(agg.inversions_total);
    table.add_row({Cell::str(cases[c].label),
                   Cell::num(static_cast<double>(cases[c].gap), 0),
                   Cell::num(reads / static_cast<double>(seeds), 0),
                   Cell::num(reads > 0 ? 1000.0 * inversions / reads : 0.0, 3),
                   Cell::num(static_cast<double>(agg.inversions_max_seed), 0),
                   Cell::num(static_cast<double>(agg.violations_total), 0)});
  }

  ExperimentResult result;
  result.sections.push_back(
      {"inversions", "", std::move(table),
       "Expected shape (paper): the sync register shows a clearly non-zero\n"
       "inversion rate at every read density (any read overlapping a write may\n"
       "independently return the old or new value), with zero regularity\n"
       "violations throughout; the ABD baseline shows exactly zero inversions\n"
       "(its read write-back enforces atomicity). The rate itself is noisy in\n"
       "the read gap — one early new-value read turns every subsequent\n"
       "old-value read of the same window into an inversion.\n"});
  return result;
}

Experiment make_experiment() {
  Experiment e;
  e.name = "new_old_inversion";
  e.id = "E6";
  e.title = "new/old inversions — regular, not atomic";
  e.paper_ref = "Section 1 figure (regularity vs atomicity)";
  e.grid = "read gap in {1,2,4,8,16} (sync), {1,4} (abd); n=16, delta=12";
  e.default_seeds = kDefaultSeeds;
  e.run = run;
  return e;
}

const Registrar registrar{make_experiment()};

}  // namespace
}  // namespace dynreg::bench
