// E12 — multi-writer extension (the paper's Section 7: "permit any process
// to write at any time").
//
// Concurrent writes are ordered by lexicographic (sn, writer id)
// timestamps. Sweeps the number of simultaneous writers and reports
// completion, safety under the generalized (concurrent-writes) regularity
// predicate, write-overlap counts, and traffic.
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
  base.n = 15;
  base.delta = 5;
  base.duration = 5000;
  base.churn_rate = base.es_churn_threshold();
  base.workload.writer_mode = workload::WriterMode::kConcurrent;
  base.workload.read_interval = 10;
  base.workload.write_interval = 40;
  apply_workload(opts, base);

  const std::vector<double> writers{1, 2, 3, 5, 7};
  const auto points = harness::parallel_sweep(
      base, writers,
      [](ExperimentConfig& cfg, double w) {
        cfg.workload.concurrent_writers = static_cast<std::size_t>(w);
      },
      seeds, opts.jobs, opts.session);

  stats::DataTable table({"concurrent writers", "writes completed", "overlapping pairs",
                          "read completion", "violation rate", "violations total",
                          "mean write latency"});
  for (const auto& p : points) {
    const auto agg = p.aggregate();
    const double writes = harness::mean_of(p.runs, [](const harness::MetricsReport& r) {
      return static_cast<double>(r.writes_completed);
    });
    const double overlaps = harness::mean_of(p.runs, [](const harness::MetricsReport& r) {
      return static_cast<double>(r.regularity.concurrent_write_pairs);
    });
    table.add_row({Cell::num(p.x, 0), Cell::num(writes, 0), Cell::num(overlaps, 0),
                   Cell::num(agg.read_completion.mean, 3),
                   Cell::num(agg.violation_rate.mean, 4),
                   Cell::num(static_cast<double>(agg.violations_total), 0),
                   Cell::num(agg.write_latency.mean, 1)});
  }

  ExperimentResult result;
  result.sections.push_back(
      {"multi_writer", "", std::move(table),
       "Expected shape: zero violations at every concurrency level (the\n"
       "timestamp order totally orders concurrent writes and the generalized\n"
       "regularity predicate holds); overlapping pairs grow with the writer\n"
       "count while read completion and write latency stay flat — the paper's\n"
       "single-writer assumption is a simplification, not a load-bearing\n"
       "restriction, once writes carry (sn, writer id) timestamps.\n"});
  return result;
}

Experiment make_experiment() {
  Experiment e;
  e.name = "multi_writer";
  e.id = "E12";
  e.title = "multi-writer ES register (concurrent writes)";
  e.paper_ref = "Section 7 open question (multi-writer via timestamps)";
  e.grid = "concurrent writers in {1,2,3,5,7}; n=15, churn at ES bound";
  e.default_seeds = kDefaultSeeds;
  e.run = run;
  return e;
}

const Registrar registrar{make_experiment()};

}  // namespace
}  // namespace dynreg::bench
