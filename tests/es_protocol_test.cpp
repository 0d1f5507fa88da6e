// Smoke tests for the eventually synchronous register: operations issued
// under pre-GST asynchrony block, then complete after stabilization; safety
// holds throughout (Theorems 3-4).
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "churn/system.h"
#include "dynreg/es_register.h"
#include "harness/experiment.h"
#include "net/delay_model.h"
#include "net/network.h"

namespace dynreg {
namespace {

TEST(EsProtocol, ReadBlockedBeforeGstCompletesAfterGst) {
  constexpr sim::Time kGst = 400;
  sim::Simulation sim(17);
  net::Network net(sim, std::make_unique<net::EventuallySynchronousDelay>(
                            kGst, /*pre_gst_max=*/100000, /*delta=*/5));
  churn::SystemConfig sys_cfg;
  sys_cfg.initial_size = 5;
  EsConfig ec;
  ec.n = 5;
  churn::System system(
      sim, net, sys_cfg, std::make_unique<churn::NoChurn>(),
      group_factory<EsRegisterNode>(ec));
  system.bootstrap();

  auto* reader = dynamic_cast<RegisterNode*>(system.find(2));
  ASSERT_NE(reader, nullptr);
  std::optional<Value> got;
  std::optional<sim::Time> completed_at;
  reader->read(OpContext{}, [&](OpOutcome o, Value v) {
    ASSERT_EQ(o, OpOutcome::kOk);
    got = v;
    completed_at = sim.now();
  });

  // Pre-GST the quorum cannot form (every delay is huge).
  sim.run_until(kGst);
  EXPECT_FALSE(got.has_value());

  // Shortly after GST the retransmitted read gathers its majority.
  sim.run_until(kGst + 200);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 0);  // the initial value: no write happened
  EXPECT_GT(*completed_at, kGst);
}

TEST(EsProtocol, SingleNodeSystemCompletesViaSelfQuorum) {
  // n == 1: the self-vote is the whole majority; reads, writes and the
  // atomic-read write-back must all complete without any network traffic.
  sim::Simulation sim(1);
  net::Network net(sim, std::make_unique<net::FixedDelay>(1));
  churn::SystemConfig sys_cfg;
  sys_cfg.initial_size = 1;
  EsConfig ec;
  ec.n = 1;
  ec.atomic_reads = true;
  churn::System system(
      sim, net, sys_cfg, std::make_unique<churn::NoChurn>(),
      group_factory<EsRegisterNode>(ec));
  system.bootstrap();

  auto* reg = dynamic_cast<RegisterNode*>(system.find(0));
  ASSERT_NE(reg, nullptr);
  bool wrote = false;
  std::optional<Value> got;
  reg->write(OpContext{}, 7, [&wrote](OpOutcome o) { wrote = o == OpOutcome::kOk; });
  reg->read(OpContext{}, [&got](OpOutcome o, Value v) {
    if (o == OpOutcome::kOk) got = v;
  });
  sim.run_until(50);
  EXPECT_TRUE(wrote);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
}

TEST(EsProtocol, CompletesOperationsAndStaysRegularAtTheBound) {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kEventuallySync;
  cfg.timing = harness::Timing::kEventuallySynchronous;
  cfg.gst = 0;
  cfg.n = 11;
  cfg.delta = 5;
  cfg.duration = 1500;
  cfg.churn_rate = cfg.es_churn_threshold();
  cfg.seed = 21;
  cfg.workload.read_interval = 10;
  cfg.workload.write_interval = 60;

  const auto r = harness::run_experiment(cfg);
  EXPECT_GT(r.reads_completed, 100u);
  EXPECT_GT(r.writes_completed, 15u);
  EXPECT_GT(r.read_completion_rate(), 0.9);
  EXPECT_TRUE(r.regularity.ok());
  EXPECT_TRUE(r.majority_active_always);
}

TEST(EsProtocol, AtomicReadsRemoveInversionsRegularReadsMayNot) {
  // Statistical contrast at high read density: the write-back variant must
  // show exactly zero inversions; the regular variant is also *allowed*
  // zero, so only the atomic side is asserted.
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kEventuallySync;
  cfg.timing = harness::Timing::kEventuallySynchronous;
  cfg.gst = 0;
  cfg.es_atomic_reads = true;
  cfg.n = 9;
  cfg.delta = 8;
  cfg.duration = 1200;
  cfg.churn_kind = harness::ChurnKind::kNone;
  cfg.seed = 4;
  cfg.workload.read_interval = 2;
  cfg.workload.write_interval = 20;

  const auto r = harness::run_experiment(cfg);
  EXPECT_GT(r.atomicity.reads_checked, 200u);
  EXPECT_EQ(r.atomicity.inversion_count, 0u);
  EXPECT_TRUE(r.regularity.ok());
}

}  // namespace
}  // namespace dynreg
