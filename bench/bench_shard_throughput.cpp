// E19 — sharded keyspace: aggregate saturation vs shard count. Not a claim
// from the paper — a systems experiment the shard layer (src/shard/) opens
// up: the paper's register has ONE designated writer whose session FIFO
// serializes every write, so a single register saturates no matter how many
// processes serve it. Partitioning the keyspace over S independent register
// groups gives S writers (and S disjoint read populations), and aggregate
// closed-loop throughput grows monotonically with S at fixed total
// population n.
//
// The sweep holds n_total and the keyed closed-loop session count fixed and
// varies the shard count; --max-n below the default population caps it (the
// replay round-trip suite records a cheap cell), and --max-n >= 1e5 adds
// the headline scale cell: 16 shards, n_total = max_n, max_n closed-loop
// sessions, run single-seed.
#include <algorithm>

#include "harness/sweep.h"
#include "registry.h"

namespace dynreg::bench {
namespace {

using harness::ExperimentConfig;
using harness::MetricsReport;
using stats::Cell;

constexpr std::size_t kDefaultSeeds = 3;
/// Default total population: divisible by every swept shard count.
constexpr std::size_t kDefaultN = 480;

ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kSync;
  cfg.timing = harness::Timing::kSynchronous;
  cfg.delta = 5;
  cfg.duration = 300;
  cfg.churn_kind = harness::ChurnKind::kNone;
  cfg.workload.key_count = 256;
  cfg.workload.zipf_s = 0.99;
  cfg.workload.read_frac = 0.8;
  cfg.workload.think_time = 1;
  return cfg;
}

void add_point_row(stats::DataTable& table, double x,
                   const std::vector<MetricsReport>& runs) {
  const auto agg = harness::aggregate_metrics(runs);
  const double ops = harness::mean_of(
      runs, [](const MetricsReport& r) { return r.ops_per_tick; });
  const double reads = harness::mean_of(runs, [](const MetricsReport& r) {
    return static_cast<double>(r.reads_completed);
  });
  const double writes = harness::mean_of(runs, [](const MetricsReport& r) {
    return static_cast<double>(r.writes_completed);
  });
  const double skew = harness::mean_of(
      runs, [](const MetricsReport& r) { return r.shard_skew; });
  table.add_row({Cell::num(x, 0), Cell::num(ops, 2), Cell::num(reads, 0),
                 Cell::num(writes, 0), Cell::num(agg.read_latency_p50.mean, 1),
                 Cell::num(agg.read_latency_p99.mean, 1),
                 Cell::num(agg.write_latency_p99.mean, 1), Cell::num(skew, 2)});
}

ExperimentResult run(const RunOptions& opts) {
  const std::size_t seeds = opts.seeds > 0 ? opts.seeds : 1;  // resolved by run_resolved()

  ExperimentConfig base = base_config();
  // --max-n below the default caps the population (cheap record/replay
  // cells); at or above it the default sweep stays put and the scale
  // section below picks the larger value up.
  std::size_t n_total = kDefaultN;
  if (opts.max_n > 0 && opts.max_n < kDefaultN) n_total = opts.max_n;
  base.n = n_total;
  base.workload.clients = std::max<std::size_t>(1, n_total / 2);
  apply_workload(opts, base);  // --shards/--zipf/--read-frac/--think etc.

  const std::vector<double> shard_counts{1, 2, 4, 8, 16};

  const auto points = harness::parallel_sweep(
      base, shard_counts,
      [](ExperimentConfig& cfg, double s) {
        cfg.shard_count = static_cast<std::size_t>(s);
      },
      seeds, opts.jobs, opts.session);

  const std::vector<std::string> columns{
      "shards",   "ops/tick", "reads completed", "writes completed",
      "read p50", "read p99", "write p99",       "shard skew"};

  stats::DataTable table(columns);
  for (const auto& p : points) add_point_row(table, p.x, p.runs);

  ExperimentResult result;
  result.sections.push_back(
      {"shard_throughput", "", std::move(table),
       "Expected shape: aggregate ops/tick grows monotonically with the\n"
       "shard count at fixed total population — each shard brings its own\n"
       "designated writer (writes serialize per writer through the session\n"
       "FIFO) and its own disjoint read population, so S shards saturate at\n"
       "~S times the single-register ceiling. Write p99 falls as the one\n"
       "global write queue splits into S shorter ones.\n"});

  // Headline scale cell: 1e5 processes, 1e5 closed-loop sessions, 16
  // shards, single seed (the cell is the point, not the variance). Each
  // shard's chronicle holds one record per id that ever entered it.
  if (opts.max_n >= 100000) {
    ExperimentConfig scale = base_config();
    scale.n = opts.max_n;
    scale.shard_count = 16;
    scale.duration = 80;
    scale.workload.clients = opts.max_n;
    scale.workload.think_time = 8;
    scale.workload.key_count = 4096;
    apply_workload(opts, scale);

    stats::DataTable scale_table(columns);
    add_point_row(scale_table, static_cast<double>(scale.shard_count),
                  harness::run_grid({scale}, 1, opts.jobs, opts.session)[0]);
    result.sections.push_back(
        {"scale_1e5",
         "scale cell: n = " + std::to_string(opts.max_n) + ", " +
             std::to_string(opts.max_n) + " closed-loop sessions, 16 shards",
         std::move(scale_table),
         "Expected shape: the closed loop self-throttles (sessions wait in\n"
         "the per-process FIFOs), so the cell completes in bounded time and\n"
         "aggregate throughput lands near the 16-writer ceiling.\n"});
  }
  return result;
}

Experiment make_experiment() {
  Experiment e;
  e.name = "shard_throughput";
  e.id = "E19";
  e.title = "sharded keyspace: aggregate saturation vs shard count";
  e.paper_ref = "multi-register extension (systems experiment; not a paper claim)";
  e.grid = "shards in {1, 2, 4, 8, 16}; sync, n_total=480, 240 sessions, "
           "zipf 0.99; --max-n>=1e5 adds the 1e5-session cell";
  e.default_seeds = kDefaultSeeds;
  e.run = run;
  e.scenario = [] {
    ExperimentConfig cfg = base_config();
    cfg.n = 120;
    cfg.shard_count = 4;
    cfg.duration = 200;
    cfg.workload.clients = 60;
    return cfg;
  };
  return e;
}

const Registrar registrar{make_experiment()};

}  // namespace
}  // namespace dynreg::bench
