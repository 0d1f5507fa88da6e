// ExperimentConfig::validate(): a config the pipeline cannot honour is
// rejected by run_experiment, not silently run as some other config. Each
// test pairs a rejected value with the nearest accepted one.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <vector>

#include "harness/experiment.h"
#include "replay/trace_io.h"

namespace dynreg::harness {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kSync;
  cfg.n = 12;
  cfg.duration = 50;
  cfg.churn_kind = ChurnKind::kNone;
  return cfg;
}

TEST(ConfigValidate, RejectsTreeWithFanoutZero) {
  // TreeDisseminator would clamp it to 1 and run a chain instead.
  ExperimentConfig cfg = small_config();
  cfg.dissemination = Dissemination::kTree;
  cfg.tree_fanout = 0;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg.tree_fanout = 1;  // a chain asked for is a run
  EXPECT_NO_THROW(run_experiment(cfg));
  cfg.dissemination = Dissemination::kFlat;  // the fanout is unused when flat
  cfg.tree_fanout = 0;
  EXPECT_NO_THROW(run_experiment(cfg));
}

TEST(ConfigValidate, RejectsTreeFanoutBeyondUint32) {
  // TreeDisseminator takes a std::uint32_t; a wider fanout would be narrowed.
  if constexpr (sizeof(std::size_t) > sizeof(std::uint32_t)) {
    ExperimentConfig cfg = small_config();
    cfg.dissemination = Dissemination::kTree;
    cfg.tree_fanout = std::size_t{std::numeric_limits<std::uint32_t>::max()} + 1;
    EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
    cfg.tree_fanout = std::numeric_limits<std::uint32_t>::max();
    EXPECT_NO_THROW(run_experiment(cfg));
  }
}

TEST(ConfigValidate, RejectsNaNLossRate) {
  // Rng::bernoulli would treat NaN as "never lost".
  ExperimentConfig cfg = small_config();
  cfg.loss_rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

TEST(ConfigValidate, RejectsLossRateOutsideUnitInterval) {
  // Above 1 would run as "always lost"; below 0 as "never lost".
  ExperimentConfig cfg = small_config();
  cfg.loss_rate = 1.5;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg.loss_rate = -0.1;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg.loss_rate = 0.0;
  EXPECT_NO_THROW(run_experiment(cfg));
  cfg.loss_rate = 1.0;
  EXPECT_NO_THROW(run_experiment(cfg));
}

TEST(ConfigValidate, RejectsFaultTickZero) {
  // The injector would reschedule itself at the same tick forever, so the
  // run would never reach its duration.
  ExperimentConfig cfg = small_config();
  cfg.fault.crash.rate = 0.01;
  cfg.fault.tick = 0;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg.fault.tick = 1;
  EXPECT_NO_THROW(run_experiment(cfg));
}

TEST(ConfigValidate, RejectsFaultTickZeroDecodedFromATrace) {
  // A trace file's embedded config reaches run_experiment the same way.
  ExperimentConfig cfg = small_config();
  cfg.fault.partition.rate = 0.01;
  cfg.fault.tick = 0;
  std::vector<std::uint8_t> bytes;
  replay::encode_config(cfg, bytes);
  std::size_t pos = 0;
  const ExperimentConfig decoded = replay::decode_config(bytes, pos);
  EXPECT_EQ(decoded.fault.tick, 0u);
  EXPECT_THROW(run_experiment(decoded), std::invalid_argument);
}

// Runs `cfg` with `field` set to each rejected value, then to each accepted
// one.
template <typename Set>
void expect_rejects(Set set, std::initializer_list<double> rejected,
                    std::initializer_list<double> accepted) {
  for (const double v : rejected) {
    ExperimentConfig cfg = small_config();
    set(cfg, v);
    EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument) << v;
  }
  for (const double v : accepted) {
    ExperimentConfig cfg = small_config();
    set(cfg, v);
    EXPECT_NO_THROW((void)run_experiment(cfg)) << v;
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(ConfigValidate, RejectsCrashRecoverFractionOutsideUnitInterval) {
  // Rng draws would treat it as "always" or "never" recover.
  expect_rejects(
      [](ExperimentConfig& c, double v) {
        c.fault.crash.rate = 0.01;
        c.fault.crash.recover_fraction = v;
      },
      {-0.1, 1.5, kNaN}, {0.0, 1.0});
}

TEST(ConfigValidate, RejectsPartitionFractionOutsideUnitInterval) {
  expect_rejects(
      [](ExperimentConfig& c, double v) {
        c.fault.partition.rate = 0.01;
        c.fault.partition.fraction = v;
      },
      {-0.1, 1.5, kNaN}, {0.0, 1.0});
}

TEST(ConfigValidate, RejectsByzantineFractionOutsideUnitInterval) {
  expect_rejects(
      [](ExperimentConfig& c, double v) {
        c.fault.byzantine.transform_rate = 0.5;
        c.fault.byzantine.fraction = v;
      },
      {-0.1, 1.5, kNaN}, {0.0, 1.0});
}

TEST(ConfigValidate, RejectsByzantineTransformRateOutsideUnitInterval) {
  expect_rejects(
      [](ExperimentConfig& c, double v) {
        c.fault.byzantine.fraction = 0.2;
        c.fault.byzantine.transform_rate = v;
      },
      {-0.1, 1.5, kNaN}, {0.0, 1.0});
}

TEST(ConfigValidate, RejectsNegativeOrNaNCrashRate) {
  // Negative would run as "no crashes" (crash_enabled() is rate > 0).
  expect_rejects([](ExperimentConfig& c, double v) { c.fault.crash.rate = v; },
                 {-0.01, kNaN}, {0.0, 0.05});
}

TEST(ConfigValidate, RejectsNegativeOrNaNPartitionRate) {
  expect_rejects([](ExperimentConfig& c, double v) { c.fault.partition.rate = v; },
                 {-0.01, kNaN}, {0.0, 0.05});
}

TEST(ConfigValidate, RejectsNegativeOrNaNChurnRate) {
  // Negative would run as "no churn" (the constant model needs rate > 0).
  expect_rejects(
      [](ExperimentConfig& c, double v) {
        c.churn_kind = ChurnKind::kConstant;
        c.churn_rate = v;
      },
      {-0.01, kNaN}, {0.0, 0.01});
}

}  // namespace
}  // namespace dynreg::harness
