// The replica engine (run_grid) and the sweep built on it: worker-count
// independence (the determinism contract), the replica seeds, record/replay
// through a session, the cross-seed aggregates, and the rule that violation
// counts are never silently averaged away.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "harness/aggregate.h"
#include "harness/sweep.h"
#include "harness/thread_pool.h"
#include "replay/session.h"
#include "stats/json_writer.h"

namespace dynreg::harness {
namespace {

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 100;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(/*jobs=*/4, kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  EXPECT_THROW(parallel_for(3, 8,
                            [](std::size_t i) {
                              if (i == 5) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForRunsAllBodiesDespiteExceptionAtAnyJobCount) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<int>> hits(8);
    EXPECT_THROW(parallel_for(jobs, hits.size(),
                              [&](std::size_t i) {
                                hits[i].fetch_add(1);
                                if (i == 2) throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
    }
  }
}

TEST(ThreadPool, ResolveJobsZeroMeansHardware) {
  EXPECT_GE(ThreadPool::resolve_jobs(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_jobs(3), 3u);
}

TEST(Aggregate, SummarizesKnownSamples) {
  const Aggregate a = aggregate({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(a.mean, 2.5);
  EXPECT_DOUBLE_EQ(a.stddev, std::sqrt(5.0 / 3.0));  // sample stddev
  EXPECT_DOUBLE_EQ(a.min, 1.0);
  EXPECT_DOUBLE_EQ(a.max, 4.0);
  EXPECT_DOUBLE_EQ(a.p50, 3.0);  // nearest-rank: sorted[floor(0.5*4)]
  EXPECT_DOUBLE_EQ(a.p99, 4.0);
}

TEST(Aggregate, EmptyAndSingletonAreDefined) {
  const Aggregate empty = aggregate({});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  const Aggregate one = aggregate({7.0});
  EXPECT_DOUBLE_EQ(one.mean, 7.0);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);  // not NaN
  EXPECT_DOUBLE_EQ(one.p99, 7.0);
}

TEST(Aggregate, ViolationsReportedAsTotalAndWorstSeedNotMean) {
  // Three seeds: clean, clean, catastrophic. A mean would say "1.67
  // violations"; the aggregate must preserve both the total and the max.
  std::vector<MetricsReport> runs(3);
  for (auto& r : runs) r.regularity.reads_checked = 100;
  runs[2].regularity.violations.resize(5);
  runs[2].atomicity.inversion_count = 4;
  runs[0].majority_active_always = runs[1].majority_active_always = true;
  runs[2].majority_active_always = false;

  const AggregatedMetrics m = aggregate_metrics(runs);
  EXPECT_EQ(m.seeds, 3u);
  EXPECT_EQ(m.violations_total, 5u);
  EXPECT_EQ(m.violations_max_seed, 5u);
  EXPECT_EQ(m.inversions_total, 4u);
  EXPECT_EQ(m.inversions_max_seed, 4u);
  EXPECT_NEAR(m.majority_active_fraction, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.violation_rate.mean, (0.05) / 3.0, 1e-12);
}

ExperimentConfig cheap_config() {
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kSync;
  cfg.n = 6;
  cfg.delta = 3;
  cfg.duration = 300;
  cfg.workload.read_interval = 5;
  cfg.workload.write_interval = 20;
  return cfg;
}

/// Serializes every aggregate field of every point — any nondeterminism
/// (scheduling-dependent result placement, float accumulation order) shows
/// up as a byte difference.
std::string serialize(const std::vector<SweepPoint>& points) {
  stats::JsonWriter w;
  w.begin_array();
  for (const auto& p : points) {
    const AggregatedMetrics m = p.aggregate();
    w.begin_object();
    w.key("x");
    w.value(p.x);
    w.key("seeds");
    w.value(static_cast<std::uint64_t>(m.seeds));
    const std::vector<std::pair<const char*, Aggregate>> metrics{
        {"read_completion", m.read_completion},
        {"join_completion", m.join_completion},
        {"read_latency", m.read_latency},
        {"violation_rate", m.violation_rate},
        {"min_active_3delta", m.min_active_3delta}};
    for (const auto& [name, agg] : metrics) {
      w.key(name);
      w.begin_array();
      w.value(agg.mean);
      w.value(agg.stddev);
      w.value(agg.min);
      w.value(agg.max);
      w.value(agg.p50);
      w.value(agg.p99);
      w.end_array();
    }
    w.key("violations_total");
    w.value(m.violations_total);
    w.key("violations_max_seed");
    w.value(m.violations_max_seed);
    w.end_object();
  }
  w.end_array();
  return w.str();
}

TEST(ParallelSweep, OutputIndependentOfWorkerCount) {
  const ExperimentConfig base = cheap_config();
  const std::vector<double> xs{0.0, 0.01, 0.03};
  const auto configure = [](ExperimentConfig& cfg, double c) { cfg.churn_rate = c; };

  const auto serial = parallel_sweep(base, xs, configure, /*seeds=*/4, /*jobs=*/1, nullptr);
  const auto parallel = parallel_sweep(base, xs, configure, /*seeds=*/4, /*jobs=*/8, nullptr);
  EXPECT_EQ(serialize(serial), serialize(parallel));
}

TEST(ParallelSweep, ReplicaSeedsMatchHistoricalDerivation) {
  EXPECT_EQ(replica_seed(1, 0), 1u + 1009u);
  EXPECT_EQ(replica_seed(1, 2), 1u + 3 * 1009u);
}

TEST(RunReplicas, SeedOrderIsStable) {
  const ExperimentConfig base = cheap_config();
  const auto serial = run_grid({base}, 4, /*jobs=*/1, nullptr)[0];
  const auto pooled = run_grid({base}, 4, /*jobs=*/4, nullptr)[0];
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].reads_completed, pooled[i].reads_completed) << i;
    EXPECT_EQ(serial[i].writes_completed, pooled[i].writes_completed) << i;
    EXPECT_DOUBLE_EQ(serial[i].read_latency_mean, pooled[i].read_latency_mean) << i;
  }
}

/// Three cells that differ in config and in base seed (one of them 0).
std::vector<ExperimentConfig> grid_cells() {
  ExperimentConfig plain = cheap_config();
  plain.seed = 0;
  ExperimentConfig churned = cheap_config();
  churned.seed = 7;
  churned.churn_rate = 0.02;
  ExperimentConfig es = cheap_config();
  es.seed = 123;
  es.protocol = Protocol::kEventuallySync;
  es.timing = Timing::kEventuallySynchronous;
  es.gst = 0;
  return {plain, churned, es};
}

/// Every replica's audit hash and headline results, cell by cell.
std::string serialize_grid(const std::vector<std::vector<MetricsReport>>& grid) {
  stats::JsonWriter w;
  w.begin_array();
  for (const auto& runs : grid) {
    w.begin_array();
    for (const auto& r : runs) {
      w.begin_array();
      w.value(r.trace_hash);
      w.value(r.reads_completed);
      w.value(r.writes_completed);
      w.value(r.joins_completed);
      w.value(r.read_latency_mean);
      w.value(r.violation_rate());
      w.end_array();
    }
    w.end_array();
  }
  w.end_array();
  return w.str();
}

TEST(RunGrid, OutputIndependentOfWorkerCount) {
  const auto cells = grid_cells();
  const auto serial = run_grid(cells, /*seeds=*/3, /*jobs=*/1, nullptr);
  const auto pooled = run_grid(cells, /*seeds=*/3, /*jobs=*/8, nullptr);
  ASSERT_EQ(serial.size(), cells.size());
  for (const auto& runs : serial) EXPECT_EQ(runs.size(), 3u);
  EXPECT_EQ(serialize_grid(serial), serialize_grid(pooled));
}

TEST(RunGrid, ReplicaIsTheCellWithItsReplicaSeed) {
  const auto cells = grid_cells();
  const auto grid = run_grid(cells, /*seeds=*/2, /*jobs=*/4, nullptr);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t s = 0; s < 2; ++s) {
      ExperimentConfig cfg = cells[c];
      cfg.seed = replica_seed(cells[c].seed, s);
      EXPECT_EQ(serialize_grid({{run_experiment(cfg)}}), serialize_grid({{grid[c][s]}}))
          << "cell " << c << " replica " << s;
    }
  }
}

TEST(RunGrid, RecordedGridReplaysThroughASession) {
  const auto cells = grid_cells();
  replay::Session recording;
  const auto recorded = run_grid(cells, /*seeds=*/3, /*jobs=*/4, &recording);
  auto traces = recording.collected();
  EXPECT_EQ(traces.size(), cells.size() * 3);

  replay::Session replaying(std::move(traces));
  const auto replayed = run_grid(cells, /*seeds=*/3, /*jobs=*/8, &replaying);
  EXPECT_EQ(serialize_grid(recorded), serialize_grid(replayed));
  EXPECT_EQ(replaying.replays(), cells.size() * 3);
  EXPECT_EQ(replaying.hash_mismatches(), 0u);
}

}  // namespace
}  // namespace dynreg::harness
