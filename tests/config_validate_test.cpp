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

TEST(ConfigValidate, RejectsDeltaZero) {
  // The delay models would clamp it to 1 while protocol timers use 0.
  ExperimentConfig cfg = small_config();
  cfg.delta = 0;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg.delta = 1;
  EXPECT_NO_THROW(run_experiment(cfg));
}

TEST(ConfigValidate, RejectsPreGstMaxBelowDelta) {
  ExperimentConfig cfg = small_config();
  cfg.protocol = Protocol::kEventuallySync;
  cfg.timing = Timing::kEventuallySynchronous;
  cfg.delta = 5;
  cfg.pre_gst_max = 4;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg.pre_gst_max = 5;
  EXPECT_NO_THROW(run_experiment(cfg));
  cfg.timing = Timing::kSynchronous;  // no GST: the bound is unused
  cfg.pre_gst_max = 4;
  EXPECT_NO_THROW(run_experiment(cfg));
}

TEST(ConfigValidate, RejectsSyncDeltaPpOutsideOneToDelta) {
  // delta' bounds a reply's one-way delay: 0 is no delay at all, and above
  // delta it would lengthen the join instead of shortening it.
  for (const Protocol p : {Protocol::kSync, Protocol::kSyncNoWait}) {
    ExperimentConfig cfg = small_config();
    cfg.protocol = p;
    cfg.delta = 5;
    cfg.sync_delta_pp = 0;
    EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
    cfg.sync_delta_pp = 6;
    EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
    cfg.sync_delta_pp = 1;
    EXPECT_NO_THROW(run_experiment(cfg));
    cfg.sync_delta_pp = 5;
    EXPECT_NO_THROW(run_experiment(cfg));
  }
  ExperimentConfig es = small_config();  // other protocols never read it
  es.protocol = Protocol::kEventuallySync;
  es.sync_delta_pp = 0;
  EXPECT_NO_THROW(run_experiment(es));
}

TEST(ConfigValidate, RejectsDurationZero) {
  ExperimentConfig cfg = small_config();
  cfg.duration = 0;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg.duration = 1;
  EXPECT_NO_THROW(run_experiment(cfg));
}

TEST(ConfigValidate, RejectsPartitionDurationZeroUnderPartitionRate) {
  ExperimentConfig cfg = small_config();
  cfg.fault.partition.rate = 0.01;
  cfg.fault.partition.duration = 0;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg.fault.partition.duration = 1;
  EXPECT_NO_THROW(run_experiment(cfg));
  cfg.fault.partition.rate = 0.0;  // no partitions: the duration is unused
  cfg.fault.partition.duration = 0;
  EXPECT_NO_THROW(run_experiment(cfg));
}

TEST(ConfigValidate, RejectsReadIntervalZeroForOpenLoopAndBursty) {
  // The read tick would reschedule itself at the same instant forever.
  for (const workload::Kind kind : {workload::Kind::kOpenLoop, workload::Kind::kBursty}) {
    ExperimentConfig cfg = small_config();
    cfg.workload.kind = kind;
    cfg.workload.read_interval = 0;
    EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
    cfg.workload.read_interval = 1;
    EXPECT_NO_THROW(run_experiment(cfg));
  }
  ExperimentConfig closed = small_config();  // sessions have no read tick
  closed.workload.kind = workload::Kind::kClosedLoop;
  closed.workload.read_interval = 0;
  EXPECT_NO_THROW(run_experiment(closed));
  ExperimentConfig sharded = small_config();  // the keyed engine has none either
  sharded.shard_count = 2;
  sharded.workload.read_interval = 0;
  EXPECT_NO_THROW(run_experiment(sharded));
}

TEST(ConfigValidate, RejectsWriteIntervalZeroWithWritesEnabled) {
  // The write tick would reschedule itself at the same instant forever.
  ExperimentConfig cfg = small_config();
  cfg.workload.write_interval = 0;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg.workload.write_interval = 1;
  EXPECT_NO_THROW(run_experiment(cfg));
  cfg.workload.write_interval = 0;
  cfg.workload.writes_enabled = false;  // no writers: no write tick
  EXPECT_NO_THROW(run_experiment(cfg));
  ExperimentConfig sharded = small_config();
  sharded.shard_count = 2;
  sharded.workload.write_interval = 0;
  EXPECT_NO_THROW(run_experiment(sharded));
}

TEST(ConfigValidate, RejectsNZero) {
  // The run would reach its horizon having issued no read and no write.
  ExperimentConfig cfg = small_config();
  cfg.n = 0;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg.n = 1;
  EXPECT_NO_THROW(run_experiment(cfg));
}

TEST(ConfigValidate, RejectsConcurrentWritersOutsideOneToN) {
  // designated_writers() would run 0 writers as 1 and more than n as n.
  ExperimentConfig cfg = small_config();
  cfg.workload.writer_mode = workload::WriterMode::kConcurrent;
  for (const std::size_t k : {std::size_t{0}, cfg.n + 1, cfg.n + 4}) {
    cfg.workload.concurrent_writers = k;
    EXPECT_THROW(run_experiment(cfg), std::invalid_argument) << k;
  }
  for (const std::size_t k : {std::size_t{1}, cfg.n}) {
    cfg.workload.concurrent_writers = k;
    EXPECT_NO_THROW(run_experiment(cfg)) << k;
  }
  // Unused without writes, in single-writer mode, and on sharded runs
  // (every shard pins its own process 0).
  cfg.workload.concurrent_writers = 0;
  cfg.workload.writes_enabled = false;
  EXPECT_NO_THROW(run_experiment(cfg));
  cfg.workload.writes_enabled = true;
  cfg.workload.writer_mode = workload::WriterMode::kSingle;
  EXPECT_NO_THROW(run_experiment(cfg));
  cfg.workload.writer_mode = workload::WriterMode::kConcurrent;
  cfg.shard_count = 2;
  EXPECT_NO_THROW(run_experiment(cfg));
}

TEST(ConfigValidate, RejectsNonFiniteZipfExponentOnShardedRuns) {
  // The keyed engine's CDF would be NaN (every pick the coldest key) or
  // degenerate; the nearest finite exponents are distributions.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  expect_rejects(
      [](ExperimentConfig& c, double v) {
        c.shard_count = 2;
        c.workload.zipf_s = v;
      },
      {kNaN, kInf, -kInf}, {0.0, 0.99, kMax});
  // Unsharded runs draw no keys: the exponent is unused.
  expect_rejects([](ExperimentConfig& c, double v) { c.workload.zipf_s = v; }, {},
                 {kNaN, kInf, -kInf});
}

TEST(ConfigValidate, RejectsReadFracOutsideUnitInterval) {
  expect_rejects([](ExperimentConfig& c, double v) { c.workload.read_frac = v; },
                 {-0.1, 1.5, kNaN}, {0.0, 1.0});
}

}  // namespace
}  // namespace dynreg::harness
