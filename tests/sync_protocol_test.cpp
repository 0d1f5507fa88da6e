// Protocol property tests for the synchronous register (Theorem 1): below
// the churn threshold the protocol is regular — no stale reads, no reads of
// bottom — across seeds, even with adversarial departures.
#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "churn/system.h"
#include "dynreg/sync_register.h"

namespace dynreg {
namespace {

TEST(SyncProtocol, RegularAtHalfThresholdAcrossSeeds) {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kSync;
  cfg.n = 20;
  cfg.delta = 5;
  cfg.duration = 1500;
  cfg.leave_policy = churn::LeavePolicy::kOldestActiveFirst;
  cfg.churn_rate = 0.5 * cfg.sync_churn_threshold();
  cfg.workload.read_interval = 4;
  cfg.workload.write_interval = 30;

  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    cfg.seed = seed;
    const auto r = harness::run_experiment(cfg);
    EXPECT_GT(r.regularity.reads_checked, 100u) << "seed " << seed;
    EXPECT_TRUE(r.regularity.ok()) << "seed " << seed;
    EXPECT_EQ(r.reads_of_bottom, 0u) << "seed " << seed;
    EXPECT_GT(r.joins_completed, 0u) << "seed " << seed;
    // Lemma 2's bound is positive at c = threshold/2, so every 3-delta
    // window kept an active process.
    EXPECT_GT(r.min_active_3delta, 0.0) << "seed " << seed;
  }
}

TEST(SyncProtocol, ReadsAreLocalAndWritesTakeDelta) {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kSync;
  cfg.n = 10;
  cfg.delta = 7;
  cfg.duration = 500;
  cfg.churn_kind = harness::ChurnKind::kNone;
  cfg.workload.read_interval = 5;
  cfg.workload.write_interval = 40;
  cfg.seed = 5;

  const auto r = harness::run_experiment(cfg);
  EXPECT_EQ(r.read_latency_mean, 0.0);   // fast reads: local, zero ticks
  EXPECT_EQ(r.write_latency_mean, 7.0);  // exactly delta
  EXPECT_EQ(r.read_completion_rate(), 1.0);
}

TEST(SyncProtocol, JoinerAdoptsCurrentValue) {
  sim::Simulation sim(3);
  net::Network net(sim, std::make_unique<net::SynchronousDelay>(5));
  churn::SystemConfig sys_cfg;
  sys_cfg.initial_size = 3;
  SyncConfig sc;
  sc.delta = 5;
  churn::System system(
      sim, net, sys_cfg, std::make_unique<churn::NoChurn>(),
      group_factory<SyncRegisterNode>(sc));
  system.bootstrap();

  auto* writer = dynamic_cast<RegisterNode*>(system.find(0));
  ASSERT_NE(writer, nullptr);
  bool write_done = false;
  writer->write(OpContext{}, 42,
                [&write_done](OpOutcome o) { write_done = o == OpOutcome::kOk; });
  sim.run_until(20);
  ASSERT_TRUE(write_done);

  const sim::ProcessId joiner = system.spawn();
  sim.run_until(100);
  auto* joined = dynamic_cast<RegisterNode*>(system.find(joiner));
  ASSERT_NE(joined, nullptr);
  EXPECT_TRUE(joined->is_active());
  EXPECT_EQ(joined->local_value(), 42);
}

TEST(SyncProtocol, FastJoinVariantShortensJoinLatency) {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kSync;
  cfg.n = 20;
  cfg.delta = 10;
  cfg.duration = 1000;
  cfg.churn_rate = 0.01;
  cfg.seed = 9;
  cfg.workload.read_interval = 5;
  cfg.workload.write_interval = 50;

  const auto standard = harness::run_experiment(cfg);
  cfg.sync_delta_pp = 2;  // footnote 4: collect delta + delta' instead of 2*delta
  const auto fast = harness::run_experiment(cfg);

  EXPECT_EQ(standard.join_latency_mean, 30.0);  // delta + 2*delta
  EXPECT_EQ(fast.join_latency_mean, 22.0);      // delta + delta + delta'
  EXPECT_TRUE(fast.regularity.ok());
}

}  // namespace
}  // namespace dynreg
