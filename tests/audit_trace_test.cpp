// The DYNREG_AUDIT event-stream hash (sim::Simulation::trace_hash): equal
// across same-(config, seed) runs, divergent across seeds, and — the real
// point — identical whether replicas run on 1 worker or 8. A determinism
// regression that happens to leave the aggregate counters intact still
// diverges the digest at the first reordered event.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/experiment.h"
#include "harness/sweep.h"
#include "sim/simulation.h"

namespace dynreg::harness {
namespace {

// The registered es_churn_sweep experiment's base configuration (E4), at its
// c = churn-threshold point — the heaviest registered scenario: eventually
// synchronous timing, joins, quorum reads/writes, and churn all active.
ExperimentConfig es_churn_config() {
  ExperimentConfig base;
  base.protocol = Protocol::kEventuallySync;
  base.timing = Timing::kEventuallySynchronous;
  base.gst = 0;
  base.n = 21;
  base.delta = 5;
  base.duration = 5000;
  base.workload.read_interval = 10;
  base.workload.write_interval = 60;
  base.churn_rate = base.es_churn_threshold();
  return base;
}

TEST(AuditTrace, BuildCarriesAuditor) {
  // The tier-1 suite runs with DYNREG_AUDIT on (the CMake default); if the
  // auditor was configured out, the remaining tests would pass vacuously.
  ASSERT_TRUE(sim::Simulation::audit_enabled())
      << "configure with -DDYNREG_AUDIT=ON to test the trace auditor";
}

TEST(AuditTrace, EmptySimulationHashIsStableAndNonZero) {
  sim::Simulation a(1), b(1);
  EXPECT_NE(a.trace_hash(), 0u);
  EXPECT_EQ(a.trace_hash(), b.trace_hash());
}

TEST(AuditTrace, SameSeedSameHash) {
  auto cfg = es_churn_config();
  cfg.seed = 4242;
  const auto first = run_experiment(cfg);
  const auto second = run_experiment(cfg);
  EXPECT_NE(first.trace_hash, 0u);
  EXPECT_EQ(first.trace_hash, second.trace_hash);
}

TEST(AuditTrace, DifferentSeedsDiverge) {
  auto cfg = es_churn_config();
  cfg.seed = 1;
  const auto a = run_experiment(cfg);
  cfg.seed = 2;
  const auto b = run_experiment(cfg);
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

TEST(AuditTrace, HashIndependentOfWorkerCount) {
  const auto cfg = es_churn_config();
  constexpr std::size_t kSeeds = 6;
  const auto serial = run_replicas(cfg, kSeeds, 1, nullptr);
  const auto parallel = run_replicas(cfg, kSeeds, 8, nullptr);
  ASSERT_EQ(serial.size(), kSeeds);
  ASSERT_EQ(parallel.size(), kSeeds);
  for (std::size_t i = 0; i < kSeeds; ++i) {
    EXPECT_NE(serial[i].trace_hash, 0u);
    EXPECT_EQ(serial[i].trace_hash, parallel[i].trace_hash) << "replica " << i;
  }
  // Replicas differ only in seed, so their traces must all differ too.
  for (std::size_t i = 1; i < kSeeds; ++i) {
    EXPECT_NE(serial[0].trace_hash, serial[i].trace_hash) << "replica " << i;
  }
}

TEST(AuditTrace, SweepHashesIndependentOfWorkerCount) {
  const auto base = es_churn_config();
  const std::vector<double> rates = {0.0, base.es_churn_threshold(),
                                     2 * base.es_churn_threshold()};
  const auto configure = [](ExperimentConfig& cfg, double rate) {
    cfg.churn_rate = rate;
  };
  const auto serial = parallel_sweep(base, rates, configure, 3, 1, nullptr);
  const auto parallel = parallel_sweep(base, rates, configure, 3, 8, nullptr);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    ASSERT_EQ(serial[p].runs.size(), parallel[p].runs.size());
    for (std::size_t r = 0; r < serial[p].runs.size(); ++r) {
      EXPECT_EQ(serial[p].runs[r].trace_hash, parallel[p].runs[r].trace_hash)
          << "point " << p << " replica " << r;
    }
  }
}

}  // namespace
}  // namespace dynreg::harness
