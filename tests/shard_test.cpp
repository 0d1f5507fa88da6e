// The shard layer: key->shard mapping stability, the sharded run pipeline's
// determinism, per-shard metrics and consistency, write-throughput scaling
// with shard count, and shard-aware record/replay through the v4 trace.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "harness/experiment.h"
#include "replay/hooks.h"
#include "replay/trace.h"
#include "shard/keyspace.h"
#include "sim/event_queue.h"

namespace dynreg::shard {
namespace {

harness::ExperimentConfig sharded_config() {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kSync;
  cfg.n = 48;
  cfg.shard_count = 4;
  cfg.delta = 5;
  cfg.duration = 400;
  cfg.seed = 21;
  cfg.churn_kind = harness::ChurnKind::kNone;
  cfg.workload.clients = 24;
  cfg.workload.key_count = 64;
  cfg.workload.zipf_s = 0.99;
  cfg.workload.read_frac = 0.8;
  return cfg;
}

TEST(Keyspace, MappingIsPureAndInRange) {
  for (std::size_t count : {1u, 2u, 7u, 16u}) {
    for (Key k = 0; k < 500; ++k) {
      const ShardId s = shard_of(k, count);
      EXPECT_LT(s, count);
      EXPECT_EQ(s, shard_of(k, count));  // pure: same answer every time
    }
  }
  // count <= 1 collapses to shard 0.
  EXPECT_EQ(shard_of(123, 0), 0u);
  EXPECT_EQ(shard_of(123, 1), 0u);
}

TEST(Keyspace, HashPartitionSpreadsConsecutiveKeys) {
  constexpr std::size_t kShards = 8;
  std::vector<std::size_t> per_shard(kShards, 0);
  for (Key k = 0; k < 8000; ++k) ++per_shard[shard_of(k, kShards)];
  for (std::size_t s = 0; s < kShards; ++s) {
    // Mean 1000/shard; a splitmix-mixed assignment stays well within 20%.
    EXPECT_GT(per_shard[s], 800u) << s;
    EXPECT_LT(per_shard[s], 1200u) << s;
  }
}

TEST(ShardedRun, RejectsMoreShardsThanProcesses) {
  // n/S would leave the extra shards without a single process: completion
  // and latency would then be reported from empty shards.
  harness::ExperimentConfig cfg = sharded_config();
  cfg.shard_count = cfg.n + 1;
  EXPECT_THROW(harness::run_experiment(cfg), std::invalid_argument);
  cfg.shard_count = cfg.n;  // one process per shard is still a run
  cfg.duration = 50;
  EXPECT_NO_THROW(harness::run_experiment(cfg));
}

TEST(ShardedRun, DeterministicAcrossRepeats) {
  const harness::ExperimentConfig cfg = sharded_config();
  const harness::MetricsReport a = harness::run_experiment(cfg);
  const harness::MetricsReport b = harness::run_experiment(cfg);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.reads_completed, b.reads_completed);
  EXPECT_EQ(a.writes_completed, b.writes_completed);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].ops_completed, b.shards[s].ops_completed) << s;
    EXPECT_EQ(a.shards[s].latency_p50, b.shards[s].latency_p50) << s;
  }
}

TEST(ShardedRun, ServesKeyedTrafficOnEveryShard) {
  const harness::MetricsReport r = harness::run_experiment(sharded_config());
  ASSERT_EQ(r.shards.size(), 4u);
  std::uint64_t total = 0;
  for (const harness::ShardMetrics& sm : r.shards) {
    EXPECT_GT(sm.reads_completed, 0u);
    EXPECT_GT(sm.writes_completed, 0u);
    EXPECT_EQ(sm.ops_completed, sm.reads_completed + sm.writes_completed);
    total += sm.ops_completed;
  }
  EXPECT_EQ(total, r.reads_completed + r.writes_completed);
  EXPECT_GT(r.ops_per_tick, 0.0);
  EXPECT_GE(r.shard_hot_p99, r.shard_cold_p99);
  EXPECT_GE(r.shard_skew, 1.0);
  // Every shard is an independent instance of the paper's protocol: the
  // combined history check must stay violation-free.
  EXPECT_TRUE(r.regularity.ok());
  EXPECT_GT(r.regularity.reads_checked, 0u);
  EXPECT_TRUE(r.majority_active_always);
}

TEST(ShardedRun, WriteThroughputScalesWithShardCount) {
  // Saturate the writers: write-heavy keyed traffic, many sessions. One
  // shard = one writer FIFO; four shards = four. The aggregate completed
  // write count must grow.
  harness::ExperimentConfig cfg = sharded_config();
  cfg.workload.read_frac = 0.2;
  cfg.workload.clients = 48;

  cfg.shard_count = 1;
  const harness::MetricsReport one = harness::run_experiment(cfg);
  cfg.shard_count = 4;
  const harness::MetricsReport four = harness::run_experiment(cfg);

  EXPECT_GT(four.writes_completed, one.writes_completed);
  EXPECT_GT(four.ops_per_tick, one.ops_per_tick);
}

TEST(ShardedRun, RecordsAndReplaysByteIdentically) {
  harness::ExperimentConfig cfg = sharded_config();
  cfg.churn_kind = harness::ChurnKind::kConstant;  // churn stream included
  cfg.churn_rate = 0.02;

  replay::Trace trace;
  trace.seed = cfg.seed;
  replay::RunHooks record;
  record.record = &trace;
  const harness::MetricsReport recorded = harness::run_experiment(cfg, record);

  EXPECT_FALSE(trace.net.empty());
  EXPECT_FALSE(trace.picks.empty());
  ASSERT_FALSE(trace.churn.empty());
  // Churn records must carry shard routing tags (v4): with 4 shards all
  // ticking, more than one shard appears in the stream.
  bool nonzero_shard = false;
  for (const replay::ChurnRecord& r : trace.churn) {
    if (r.shard != 0) nonzero_shard = true;
    EXPECT_LT(r.shard, 4u);
  }
  EXPECT_TRUE(nonzero_shard);

  replay::RunHooks replay_hooks;
  replay_hooks.replay = &trace;
  const harness::MetricsReport replayed = harness::run_experiment(cfg, replay_hooks);

  EXPECT_EQ(replayed.trace_hash, recorded.trace_hash);
  EXPECT_EQ(replayed.reads_completed, recorded.reads_completed);
  EXPECT_EQ(replayed.writes_completed, recorded.writes_completed);
  EXPECT_EQ(replayed.joins_completed, recorded.joins_completed);
  EXPECT_EQ(replayed.read_latency_p99, recorded.read_latency_p99);
  ASSERT_EQ(replayed.shards.size(), recorded.shards.size());
  for (std::size_t s = 0; s < recorded.shards.size(); ++s) {
    EXPECT_EQ(replayed.shards[s].ops_completed, recorded.shards[s].ops_completed) << s;
    EXPECT_EQ(replayed.shards[s].latency_p99, recorded.shards[s].latency_p99) << s;
  }
}

}  // namespace
}  // namespace dynreg::shard
