// churn::System — bootstrap, join/leave orchestration, and the chronicle's
// active-set accounting that the Lemma 2 analyses trust.
#include <gtest/gtest.h>

#include <memory>

#include "churn/system.h"
#include "dynreg/sync_register.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace dynreg::churn {
namespace {

TEST(ChurnSystem, BootstrapCreatesActiveInitialMembers) {
  sim::Simulation sim(1);
  net::Network net(sim, std::make_unique<net::FixedDelay>(1));
  SystemConfig cfg;
  cfg.initial_size = 5;
  System system(sim, net, cfg, std::make_unique<NoChurn>(),
                group_factory<SyncRegisterNode>(SyncConfig{}));
  system.bootstrap();

  EXPECT_EQ(system.member_count(), 5u);
  EXPECT_EQ(system.active_count(), 5u);
  EXPECT_EQ(system.chronicle().active_at(0), 5u);
  EXPECT_NE(system.find(0), nullptr);
  EXPECT_EQ(system.find(99), nullptr);
}

TEST(ChurnSystem, SpawnedJoinerActivatesAfterJoinProtocol) {
  sim::Simulation sim(1);
  net::Network net(sim, std::make_unique<net::FixedDelay>(1));
  SystemConfig cfg;
  cfg.initial_size = 3;
  SyncConfig sync;
  sync.delta = 5;
  System system(sim, net, cfg, std::make_unique<NoChurn>(),
                group_factory<SyncRegisterNode>(sync));
  system.bootstrap();

  const sim::ProcessId joiner = system.spawn();
  EXPECT_EQ(system.joins_started(), 1u);
  EXPECT_EQ(system.active_count(), 3u);  // join still in progress

  sim.run_until(100);
  EXPECT_EQ(system.joins_completed(), 1u);
  EXPECT_EQ(system.active_count(), 4u);
  const auto& rec = system.chronicle().records().at(joiner);
  ASSERT_TRUE(rec.activated().has_value());
  // wait delta + collect 2*delta.
  EXPECT_EQ(*rec.activated(), 3 * sync.delta);
}

TEST(ChurnSystem, LeaveRemovesMemberAndChroniclesIt) {
  sim::Simulation sim(1);
  net::Network net(sim, std::make_unique<net::FixedDelay>(1));
  SystemConfig cfg;
  cfg.initial_size = 4;
  System system(sim, net, cfg, std::make_unique<NoChurn>(),
                group_factory<SyncRegisterNode>(SyncConfig{}));
  system.bootstrap();

  sim.run_until(10);
  system.leave(2);
  EXPECT_EQ(system.member_count(), 3u);
  EXPECT_EQ(system.find(2), nullptr);
  EXPECT_FALSE(net.attached(2));

  const auto& rec = system.chronicle().records().at(2);
  ASSERT_TRUE(rec.left().has_value());
  EXPECT_EQ(*rec.left(), 10u);
  EXPECT_EQ(system.chronicle().active_at(9), 4u);
  EXPECT_EQ(system.chronicle().active_at(10), 3u);
}

TEST(ChurnSystem, ConstantChurnKeepsSizeRoughlyConstantWhileComposingOver) {
  sim::Simulation sim(7);
  net::Network net(sim, std::make_unique<net::FixedDelay>(1));
  SystemConfig cfg;
  cfg.initial_size = 20;
  SyncConfig sync;
  sync.delta = 3;
  // c = 0.05: one join and one leave per tick on average.
  System system(sim, net, cfg, std::make_unique<ConstantChurn>(0.05),
                group_factory<SyncRegisterNode>(sync));
  system.bootstrap();
  sim.run_until(200);

  EXPECT_EQ(system.member_count(), 20u);  // paired joins/leaves keep n constant
  EXPECT_GT(system.joins_started(), 150u);
  EXPECT_GT(system.joins_completed(), 100u);
}

TEST(Chronicle, ActiveThroughCountsWholeWindowOnly) {
  Chronicle chron;
  chron.note_enter(0, 0, true);
  chron.note_activated(0, 0);
  chron.note_enter(1, 0, true);
  chron.note_activated(1, 0);
  chron.note_left(1, 15);
  chron.note_enter(2, 5, false);
  chron.note_activated(2, 12);

  // Window [0, 10]: process 0 throughout; 1 leaves at 15 > 10 so it counts;
  // 2 activates too late.
  EXPECT_EQ(chron.active_through(0, 10), 2u);
  // Window [10, 20]: 1 is gone by 15, 2 activated at 12 > 10.
  EXPECT_EQ(chron.active_through(10, 20), 1u);
  // Window [12, 20]: 2 qualifies now.
  EXPECT_EQ(chron.active_through(12, 20), 2u);

  // The sliding minimum agrees with direct evaluation.
  EXPECT_EQ(chron.min_active_through_window(10, 30),
            std::min({chron.active_through(5, 15), chron.active_through(10, 20),
                      chron.active_through(20, 30)}));
}

}  // namespace
}  // namespace dynreg::churn
