// ABD baseline: two-phase quorum reads/writes over a static replica set,
// including the degenerate single-replica system and the timestamp
// advancement rule that keeps concurrent writers safe.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "churn/system.h"
#include "dynreg/abd_register.h"
#include "harness/experiment.h"
#include "net/delay_model.h"
#include "net/network.h"

namespace dynreg {
namespace {

churn::System make_abd_system(sim::Simulation& sim, net::Network& net, std::size_t n) {
  churn::SystemConfig sys_cfg;
  sys_cfg.initial_size = n;
  AbdConfig ac;
  ac.n = n;
  return churn::System(
      sim, net, sys_cfg, std::make_unique<churn::NoChurn>(),
      group_factory<AbdRegisterNode>(ac));
}

TEST(AbdProtocol, SingleReplicaSystemCompletesViaSelfQuorum) {
  sim::Simulation sim(1);
  net::Network net(sim, std::make_unique<net::FixedDelay>(1));
  auto system = make_abd_system(sim, net, 1);
  system.bootstrap();

  auto* reg = dynamic_cast<RegisterNode*>(system.find(0));
  ASSERT_NE(reg, nullptr);
  bool wrote = false;
  std::optional<Value> got;
  reg->write(OpContext{}, 9, [&wrote](OpOutcome o) { wrote = o == OpOutcome::kOk; });
  reg->read(OpContext{}, [&got](OpOutcome o, Value v) {
    if (o == OpOutcome::kOk) got = v;
  });
  sim.run_until(50);
  EXPECT_TRUE(wrote);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 9);
}

TEST(AbdProtocol, WriteTimestampsAdvancePastObservedOnes) {
  sim::Simulation sim(2);
  net::Network net(sim, std::make_unique<net::FixedDelay>(1));
  auto system = make_abd_system(sim, net, 5);
  system.bootstrap();

  auto* w0 = dynamic_cast<RegisterNode*>(system.find(0));
  auto* w1 = dynamic_cast<RegisterNode*>(system.find(1));
  ASSERT_NE(w0, nullptr);
  ASSERT_NE(w1, nullptr);

  // Writer 0 races ahead; writer 1's local counter lags but it has observed
  // writer 0's updates, so its next write must supersede them rather than
  // being acked-but-never-stored.
  for (Value v = 1; v <= 3; ++v) {
    w0->write(OpContext{}, v * 10, [](OpOutcome) {});
    sim.run_until(sim.now() + 10);
  }
  bool w1_done = false;
  w1->write(OpContext{}, 77,
            [&w1_done](OpOutcome o) { w1_done = o == OpOutcome::kOk; });
  sim.run_until(sim.now() + 20);
  ASSERT_TRUE(w1_done);

  std::optional<Value> got;
  auto* reader = dynamic_cast<RegisterNode*>(system.find(3));
  ASSERT_NE(reader, nullptr);
  reader->read(OpContext{}, [&got](OpOutcome o, Value v) {
    if (o == OpOutcome::kOk) got = v;
  });
  sim.run_until(sim.now() + 20);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 77);
}

TEST(AbdProtocol, RemainsAtomicInExperiment) {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kAbd;
  cfg.n = 9;
  cfg.delta = 8;
  cfg.duration = 1000;
  cfg.churn_kind = harness::ChurnKind::kNone;
  cfg.seed = 6;
  cfg.workload.read_interval = 3;
  cfg.workload.write_interval = 25;

  const auto r = harness::run_experiment(cfg);
  EXPECT_GT(r.atomicity.reads_checked, 100u);
  EXPECT_EQ(r.atomicity.inversion_count, 0u);
  EXPECT_TRUE(r.regularity.ok());
}

}  // namespace
}  // namespace dynreg
