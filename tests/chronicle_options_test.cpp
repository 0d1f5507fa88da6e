// The chronicle's A(t) accounting against a brute-force count, and the
// inert ChronicleOptions flag. A scripted lifetime table is fed into a
// Chronicle; every query is then checked against a count taken straight
// from the table, instant by instant. The experiment-level regressions pin
// the whole MetricsReport unchanged when the (now inert) flag flips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "churn/chronicle.h"
#include "harness/experiment.h"

namespace dynreg::churn {
namespace {

constexpr sim::Time kHorizon = 100;
constexpr sim::Duration kWindows[] = {1, 10, 30};

struct Lifetime {
  sim::ProcessId id;
  sim::Time entered;
  std::optional<sim::Time> activated;
  std::optional<sim::Time> left;
  bool initial = false;
};

/// A membership history exercising every interval shape: initial stayers,
/// joiners that leave, a member too short-lived to cover a 10-tick window,
/// a late activation near the horizon, and a join that never completes.
const std::vector<Lifetime> kScript = {
    {0, 0, 0, std::nullopt, true},  // initial member, stays forever
    {1, 5, 8, 30},                  // covers 10-tick window starts [8, 19]
    {2, 10, 12, 18},                // active 6 ticks
    {3, 90, 95, std::nullopt},      // activates near the horizon, stays
    {4, 20, std::nullopt, 40},      // join never completes
    {5, 0, 0, 60, true},
};

/// Feeds `script` into a chronicle in time order, as System would.
Chronicle replay(const std::vector<Lifetime>& script) {
  struct Step {
    sim::Time at;
    int kind;  // 0 enter, 1 activate, 2 leave: the order within one tick
    const Lifetime* life;
  };
  std::vector<Step> steps;
  for (const Lifetime& l : script) {
    steps.push_back({l.entered, 0, &l});
    if (l.activated) steps.push_back({*l.activated, 1, &l});
    if (l.left) steps.push_back({*l.left, 2, &l});
  }
  std::stable_sort(steps.begin(), steps.end(), [](const Step& a, const Step& b) {
    return a.at != b.at ? a.at < b.at : a.kind < b.kind;
  });
  Chronicle chron;
  for (const Step& s : steps) {
    if (s.kind == 0) chron.note_enter(s.life->id, s.at, s.life->initial);
    if (s.kind == 1) chron.note_activated(s.life->id, s.at);
    if (s.kind == 2) chron.note_left(s.life->id, s.at);
  }
  return chron;
}

/// Active at instant t: activated by t and not yet left.
bool active_at(const Lifetime& l, sim::Time t) {
  return l.activated && *l.activated <= t && (!l.left || t < *l.left);
}

std::size_t brute_active_at(sim::Time t) {
  std::size_t n = 0;
  for (const Lifetime& l : kScript) n += active_at(l, t) ? 1 : 0;
  return n;
}

/// Active at every instant of [t1, t2], checked one instant at a time.
std::size_t brute_active_through(sim::Time t1, sim::Time t2) {
  std::size_t n = 0;
  for (const Lifetime& l : kScript) {
    bool all = true;
    for (sim::Time t = t1; t <= t2; ++t) all = all && active_at(l, t);
    n += all ? 1 : 0;
  }
  return n;
}

TEST(Chronicle, ActiveAtMatchesBruteForceEverywhere) {
  const Chronicle chron = replay(kScript);
  for (sim::Time t = 0; t <= kHorizon; ++t) {
    EXPECT_EQ(chron.active_at(t), brute_active_at(t)) << "t=" << t;
  }
}

TEST(Chronicle, ActiveThroughMatchesBruteForceAtEveryStart) {
  const Chronicle chron = replay(kScript);
  for (const sim::Duration w : kWindows) {
    for (sim::Time t = 0; t <= kHorizon; ++t) {
      EXPECT_EQ(chron.active_through(t, t + w), brute_active_through(t, t + w))
          << "t=" << t << " w=" << w;
    }
  }
}

TEST(Chronicle, MinQueriesMatchBruteForce) {
  const Chronicle chron = replay(kScript);
  std::size_t min_at = brute_active_at(0);
  for (sim::Time t = 1; t <= kHorizon; ++t) min_at = std::min(min_at, brute_active_at(t));
  EXPECT_EQ(chron.min_active_at(kHorizon), min_at);
  for (const sim::Duration w : kWindows) {
    std::size_t min_through = brute_active_through(0, w);
    for (sim::Time t = 1; t + w <= kHorizon; ++t) {
      min_through = std::min(min_through, brute_active_through(t, t + w));
    }
    EXPECT_EQ(chron.min_active_through_window(w, kHorizon), min_through) << "w=" << w;
  }
}

TEST(Chronicle, RecordsKeepDepartedMembers) {
  const Chronicle chron = replay(kScript);
  ASSERT_EQ(chron.records().size(), kScript.size());
  for (const Lifetime& l : kScript) {
    const Chronicle::Record& r = chron.records()[l.id];
    EXPECT_EQ(r.entered, l.entered) << l.id;
    EXPECT_EQ(r.activated, l.activated) << l.id;
    EXPECT_EQ(r.left, l.left) << l.id;
    EXPECT_EQ(r.initial, l.initial) << l.id;
  }
}

TEST(Chronicle, LiveMembersCountThroughTheHorizon) {
  Chronicle chron;
  chron.note_enter(0, 0, true);
  chron.note_activated(0, 0);
  // Nobody ever leaves: the open-ended record must cover every instant and
  // every window start.
  EXPECT_EQ(chron.min_active_at(kHorizon), 1u);
  EXPECT_EQ(chron.min_active_through_window(10, kHorizon), 1u);
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
