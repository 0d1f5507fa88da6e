// ChronicleOptions aggregate-only mode: the A(t) accounting must answer
// byte-identically to full mode while holding only live members. Synthetic
// histories compare every query both ways; the experiment-level regression
// pins the whole MetricsReport (accounting totals included) unchanged when
// the flag flips on a churn-heavy run.
#include <gtest/gtest.h>

#include <cstddef>

#include "churn/chronicle.h"
#include "harness/experiment.h"

namespace dynreg::churn {
namespace {

constexpr sim::Duration kWindow = 10;
constexpr sim::Time kHorizon = 100;

/// Replays the same lifetime script into both chronicles.
struct Pair {
  Chronicle full;
  Chronicle aggregate{ChronicleOptions{true, kWindow, kHorizon}};

  void enter(sim::ProcessId id, sim::Time at, bool initial = false) {
    full.note_enter(id, at, initial);
    aggregate.note_enter(id, at, initial);
  }
  void activate(sim::ProcessId id, sim::Time at) {
    full.note_activated(id, at);
    aggregate.note_activated(id, at);
  }
  void leave(sim::ProcessId id, sim::Time at) {
    full.note_left(id, at);
    aggregate.note_left(id, at);
  }
};

/// A membership history exercising every interval shape: initial stayers,
/// joiners that leave, a member too short-lived to cover any window, a
/// late activation near the horizon, and a join that never completes.
Pair scripted_history() {
  Pair p;
  p.enter(0, 0, true);
  p.activate(0, 0);  // initial member, stays forever
  p.enter(1, 5);
  p.activate(1, 8);
  p.leave(1, 30);  // covers window starts [8, 19]
  p.enter(2, 10);
  p.activate(2, 12);
  p.leave(2, 18);  // active 6 ticks: never covers a 10-tick window
  p.enter(3, 90);
  p.activate(3, 95);  // activates near the horizon, stays
  p.enter(4, 20);
  p.leave(4, 40);  // join never completes: contributes nothing
  p.enter(5, 0, true);
  p.activate(5, 0);
  p.leave(5, 60);
  return p;
}

TEST(ChronicleOptions, ActiveAtMatchesFullModeEverywhere) {
  const Pair p = scripted_history();
  for (sim::Time t = 0; t <= kHorizon; ++t) {
    EXPECT_EQ(p.aggregate.active_at(t), p.full.active_at(t)) << "t=" << t;
  }
}

TEST(ChronicleOptions, RegisteredWindowMatchesFullModeAtEveryStart) {
  const Pair p = scripted_history();
  for (sim::Time t = 0; t + kWindow <= kHorizon; ++t) {
    EXPECT_EQ(p.aggregate.active_through(t, t + kWindow),
              p.full.active_through(t, t + kWindow))
        << "t=" << t;
  }
}

TEST(ChronicleOptions, MinQueriesMatchFullMode) {
  const Pair p = scripted_history();
  EXPECT_EQ(p.aggregate.min_active_at(kHorizon), p.full.min_active_at(kHorizon));
  EXPECT_EQ(p.aggregate.min_active_through_window(kWindow, kHorizon),
            p.full.min_active_through_window(kWindow, kHorizon));
}

TEST(ChronicleOptions, AggregateModeDropsDepartedRecords) {
  const Pair p = scripted_history();
  EXPECT_TRUE(p.aggregate.records().empty());
  EXPECT_EQ(p.aggregate.record(1), nullptr);   // departed: folded away
  ASSERT_NE(p.aggregate.record(0), nullptr);   // live: still queryable
  EXPECT_TRUE(p.aggregate.record(0)->initial);
  ASSERT_NE(p.full.record(1), nullptr);  // full mode keeps everything
}

TEST(ChronicleOptions, LiveMembersCountThroughTheHorizon) {
  Pair p;
  p.enter(0, 0, true);
  p.activate(0, 0);
  // Nobody ever leaves: the open-ended contribution must cover every
  // instant and every window start.
  EXPECT_EQ(p.aggregate.min_active_at(kHorizon), 1u);
  EXPECT_EQ(p.aggregate.min_active_through_window(kWindow, kHorizon), 1u);
}

// The experiment-level regression: the chronicle is pure observation, so
// flipping the flag must change NOTHING in the report — accounting totals,
// latencies, the min-active quantities, and the audited event-stream hash.
TEST(ChronicleOptions, ExperimentReportUnchangedByAggregateMode) {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kSync;
  cfg.n = 20;
  cfg.delta = 5;
  cfg.duration = 600;
  cfg.seed = 11;
  cfg.churn_kind = harness::ChurnKind::kConstant;
  cfg.churn_rate = 0.5 * cfg.sync_churn_threshold();
  cfg.workload.write_interval = 25;

  harness::ExperimentConfig flagged = cfg;
  flagged.chronicle_aggregate = true;

  const harness::MetricsReport a = harness::run_experiment(cfg);
  const harness::MetricsReport b = harness::run_experiment(flagged);

  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.reads_issued, b.reads_issued);
  EXPECT_EQ(a.reads_completed, b.reads_completed);
  EXPECT_EQ(a.writes_completed, b.writes_completed);
  EXPECT_EQ(a.joins_started, b.joins_started);
  EXPECT_EQ(a.joins_completed, b.joins_completed);
  EXPECT_EQ(a.joins_abandoned, b.joins_abandoned);
  EXPECT_EQ(a.join_latency_mean, b.join_latency_mean);
  EXPECT_EQ(a.majority_active_always, b.majority_active_always);
  EXPECT_EQ(a.min_active_3delta, b.min_active_3delta);
  EXPECT_EQ(a.read_latency_mean, b.read_latency_mean);
  EXPECT_EQ(a.read_latency_p99, b.read_latency_p99);
  EXPECT_EQ(a.regularity.reads_checked, b.regularity.reads_checked);
  EXPECT_EQ(a.regularity.violations.size(), b.regularity.violations.size());
  EXPECT_EQ(a.msgs_by_type, b.msgs_by_type);
}

// Same regression through the sharded pipeline (every shard gets the flag).
TEST(ChronicleOptions, ShardedReportUnchangedByAggregateMode) {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kSync;
  cfg.n = 60;
  cfg.shard_count = 4;
  cfg.delta = 5;
  cfg.duration = 300;
  cfg.seed = 3;
  cfg.churn_kind = harness::ChurnKind::kConstant;
  cfg.churn_rate = 0.02;
  cfg.workload.clients = 24;
  cfg.workload.key_count = 32;

  harness::ExperimentConfig flagged = cfg;
  flagged.chronicle_aggregate = true;

  const harness::MetricsReport a = harness::run_experiment(cfg);
  const harness::MetricsReport b = harness::run_experiment(flagged);

  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.reads_completed, b.reads_completed);
  EXPECT_EQ(a.writes_completed, b.writes_completed);
  EXPECT_EQ(a.majority_active_always, b.majority_active_always);
  EXPECT_EQ(a.min_active_3delta, b.min_active_3delta);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].ops_completed, b.shards[s].ops_completed) << s;
    EXPECT_EQ(a.shards[s].latency_p99, b.shards[s].latency_p99) << s;
  }
}

}  // namespace
}  // namespace dynreg::churn
