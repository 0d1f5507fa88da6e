// ExperimentConfig::validate(): a config the pipeline cannot honour is
// rejected by run_experiment, not silently run as some other config. Each
// test pairs a rejected value with the nearest accepted one.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "harness/experiment.h"

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

}  // namespace
}  // namespace dynreg::harness
