// fault::Injector determinism and envelope regressions:
//
//   - each fault class alone is (config, seed)-deterministic;
//   - a faulted run is jobs-independent (run_replicas at 1 vs 8 workers);
//   - the crash-recovery matrix behaves (recover_fraction 0/1, durable and
//     volatile restarts both stay inside the safety envelope);
//   - a run with all three classes armed records into a trace, replays
//     byte-identically through RunHooks AND through the v3 file format;
//   - the liveness regression: a symmetric partition heals and the ES
//     protocol (with client retries) recovers, with zero violations;
//   - Byzantine transforms actually break regularity (the checker sees the
//     never-written values) — the experiment's headline contrast;
//   - on a sharded config the plan runs in every shard, deterministically
//     and through record/replay.
#include <gtest/gtest.h>

#include <cstdint>

#include "fault/plan.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "replay/hooks.h"
#include "replay/trace_io.h"

namespace dynreg::fault {
namespace {

using harness::ExperimentConfig;
using harness::MetricsReport;
using harness::Protocol;

ExperimentConfig base_config(Protocol protocol) {
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.n = 15;
  cfg.delta = 5;
  cfg.duration = 1500;
  cfg.seed = 42;
  cfg.workload.read_interval = 10;
  cfg.workload.write_interval = 60;
  if (protocol == Protocol::kEventuallySync) {
    cfg.timing = harness::Timing::kEventuallySynchronous;
    cfg.gst = 0;
  }
  return cfg;
}

void expect_identical(const MetricsReport& a, const MetricsReport& b) {
  EXPECT_EQ(a.reads_issued, b.reads_issued);
  EXPECT_EQ(a.reads_completed, b.reads_completed);
  EXPECT_EQ(a.writes_completed, b.writes_completed);
  EXPECT_EQ(a.reads_timed_out, b.reads_timed_out);
  EXPECT_EQ(a.op_retries, b.op_retries);
  EXPECT_EQ(a.faults_crashes, b.faults_crashes);
  EXPECT_EQ(a.faults_recoveries, b.faults_recoveries);
  EXPECT_EQ(a.faults_partitions, b.faults_partitions);
  EXPECT_EQ(a.faults_heals, b.faults_heals);
  EXPECT_EQ(a.msgs_dropped_partition, b.msgs_dropped_partition);
  EXPECT_EQ(a.msgs_transformed, b.msgs_transformed);
  EXPECT_EQ(a.msgs_by_type, b.msgs_by_type);
  EXPECT_EQ(a.regularity.reads_checked, b.regularity.reads_checked);
  EXPECT_EQ(a.regularity.violations.size(), b.regularity.violations.size());
  EXPECT_EQ(a.trace_hash, b.trace_hash);
}

ExperimentConfig crash_config(Protocol p) {
  ExperimentConfig cfg = base_config(p);
  cfg.fault.crash.rate = 0.01;
  cfg.fault.crash.recover_fraction = 1.0;
  return cfg;
}

ExperimentConfig partition_config(Protocol p) {
  ExperimentConfig cfg = base_config(p);
  cfg.fault.partition.rate = 0.004;
  cfg.fault.partition.duration = 150;
  cfg.fault.partition.fraction = 0.3;
  return cfg;
}

ExperimentConfig byzantine_config(Protocol p) {
  ExperimentConfig cfg = base_config(p);
  cfg.fault.byzantine.fraction = 0.25;
  cfg.fault.byzantine.transform_rate = 0.5;
  return cfg;
}

/// All three classes armed at once — the trace-v3 acceptance shape.
ExperimentConfig everything_config() {
  ExperimentConfig cfg = base_config(Protocol::kEventuallySync);
  cfg.fault.crash.rate = 0.01;
  cfg.fault.crash.recover_fraction = 1.0;
  cfg.fault.partition.rate = 0.004;
  cfg.fault.partition.duration = 150;
  cfg.fault.partition.fraction = 0.3;
  cfg.fault.partition.asymmetric = true;
  cfg.fault.byzantine.fraction = 0.25;
  cfg.fault.byzantine.transform_rate = 0.5;
  return cfg;
}

TEST(FaultPlan, CrashClassIsDeterministic) {
  const auto cfg = crash_config(Protocol::kEventuallySync);
  const auto a = harness::run_experiment(cfg);
  const auto b = harness::run_experiment(cfg);
  EXPECT_GT(a.faults_crashes, 0u);
  expect_identical(a, b);
}

TEST(FaultPlan, PartitionClassIsDeterministic) {
  const auto cfg = partition_config(Protocol::kSync);
  const auto a = harness::run_experiment(cfg);
  const auto b = harness::run_experiment(cfg);
  EXPECT_GT(a.faults_partitions, 0u);
  EXPECT_GT(a.msgs_dropped_partition, 0u);
  expect_identical(a, b);
}

TEST(FaultPlan, ByzantineClassIsDeterministic) {
  const auto cfg = byzantine_config(Protocol::kEventuallySync);
  const auto a = harness::run_experiment(cfg);
  const auto b = harness::run_experiment(cfg);
  EXPECT_GT(a.msgs_transformed, 0u);
  expect_identical(a, b);
}

TEST(FaultPlan, FaultedRunsAreJobsIndependent) {
  const auto cfg = everything_config();
  const auto serial = harness::run_replicas(cfg, 4, 1, nullptr);
  const auto pooled = harness::run_replicas(cfg, 4, 8, nullptr);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i], pooled[i]);
  }
}

TEST(FaultPlan, CrashStopNeverRecovers) {
  auto cfg = crash_config(Protocol::kEventuallySync);
  cfg.fault.crash.recover_fraction = 0.0;
  const auto report = harness::run_experiment(cfg);
  EXPECT_GT(report.faults_crashes, 0u);
  EXPECT_EQ(report.faults_recoveries, 0u);
}

TEST(FaultPlan, CrashRecoveryRestartsProcesses) {
  const auto cfg = crash_config(Protocol::kEventuallySync);  // recover = 1.0
  const auto report = harness::run_experiment(cfg);
  EXPECT_GT(report.faults_crashes, 0u);
  EXPECT_GT(report.faults_recoveries, 0u);
}

TEST(FaultPlan, CrashRecoveryStaysSafeDurableAndVolatile) {
  // Crash-recovery is inside the paper's fault model (it is churn), so both
  // restart disciplines must keep the register regular: durable restarts
  // apply their image as a floor, volatile restarts re-learn via the join
  // path. A regression here means restore() stopped being monotone or the
  // rejoin path broke.
  for (const auto protocol : {Protocol::kSync, Protocol::kEventuallySync}) {
    for (const auto restart : {RestartState::kDurable, RestartState::kVolatile}) {
      auto cfg = crash_config(protocol);
      cfg.fault.crash.restart = restart;
      const auto report = harness::run_experiment(cfg);
      SCOPED_TRACE(static_cast<int>(protocol) * 10 + static_cast<int>(restart));
      EXPECT_GT(report.faults_recoveries, 0u);
      EXPECT_TRUE(report.regularity.violations.empty());
    }
  }
}

TEST(FaultPlan, FaultedRunRecordsAndReplaysByteIdentically) {
  const auto cfg = everything_config();

  replay::Trace trace;
  trace.fingerprint = replay::fingerprint(cfg);
  trace.seed = cfg.seed;
  replay::RunHooks record;
  record.record = &trace;
  const auto recorded = harness::run_experiment(cfg, record);
  trace.recorded_hash = recorded.trace_hash;

  // The acceptance shape: all three classes actually fired, and their
  // decisions landed in the dedicated fault stream.
  EXPECT_GT(recorded.faults_crashes, 0u);
  EXPECT_GT(recorded.faults_partitions, 0u);
  EXPECT_GT(recorded.msgs_transformed, 0u);
  EXPECT_FALSE(trace.faults.empty());

  replay::RunHooks replay;
  replay.replay = &trace;
  expect_identical(recorded, harness::run_experiment(cfg, replay));
}

TEST(FaultPlan, FaultedTraceRoundTripsThroughTheV3FileFormat) {
  const auto cfg = everything_config();

  replay::Trace trace;
  trace.fingerprint = replay::fingerprint(cfg);
  trace.seed = cfg.seed;
  replay::RunHooks record;
  record.record = &trace;
  const auto recorded = harness::run_experiment(cfg, record);
  trace.recorded_hash = recorded.trace_hash;
  ASSERT_FALSE(trace.faults.empty());

  replay::TraceFile file;
  file.seeds = {cfg.seed};
  file.config = cfg;
  file.traces = {trace};
  const replay::TraceFile decoded = replay::decode(replay::encode(file));
  ASSERT_EQ(decoded.traces.size(), 1u);
  const replay::Trace& back = decoded.traces[0];
  ASSERT_EQ(back.faults.size(), trace.faults.size());
  for (std::size_t i = 0; i < back.faults.size(); ++i) {
    EXPECT_EQ(back.faults[i].time, trace.faults[i].time);
    EXPECT_EQ(back.faults[i].value, trace.faults[i].value);
  }
  // The embedded config must carry the fault plan — a decoded scenario that
  // silently dropped it would replay a fault-free run against a faulted
  // schedule and diverge.
  ASSERT_TRUE(decoded.config.has_value());
  EXPECT_EQ(replay::fingerprint(*decoded.config), replay::fingerprint(cfg));

  replay::RunHooks replay;
  replay.replay = &back;
  expect_identical(recorded, harness::run_experiment(*decoded.config, replay));
}

TEST(FaultPlan, PartitionHealsAndEsRecoversWithRetries) {
  // The E18 liveness regression in miniature: symmetric cuts with a client
  // deadline and exponential-backoff retries. Partitions must heal, retries
  // must fire, a majority of reads must still complete, and — partitions
  // being omission faults — safety must hold throughout.
  auto cfg = partition_config(Protocol::kEventuallySync);
  cfg.duration = 2000;
  cfg.workload.op_deadline = 40;
  cfg.workload.retry_max_attempts = 6;
  cfg.workload.retry_backoff = 10;
  cfg.workload.retry_exponential = true;
  const auto report = harness::run_experiment(cfg);
  EXPECT_GT(report.faults_partitions, 0u);
  EXPECT_GT(report.faults_heals, 0u);
  EXPECT_GE(report.faults_partitions, report.faults_heals);
  EXPECT_GT(report.op_retries, 0u);
  EXPECT_GT(report.read_completion_rate(), 0.5);
  EXPECT_TRUE(report.regularity.violations.empty());
}

TEST(FaultPlan, ByzantineTransformsBreakRegularity) {
  // The headline contrast of E17: Byzantine rewrites are outside every
  // protocol's fault model, and the regularity checker flags the
  // never-written values the transforms fabricate.
  const auto report =
      harness::run_experiment(byzantine_config(Protocol::kEventuallySync));
  EXPECT_GT(report.msgs_transformed, 0u);
  EXPECT_FALSE(report.regularity.violations.empty());
}

TEST(FaultPlan, ShardedRunInjectsFaultsInEveryShard) {
  ExperimentConfig cfg = base_config(Protocol::kEventuallySync);
  cfg.n = 30;
  cfg.shard_count = 2;
  cfg.workload.clients = 12;
  cfg.workload.think_time = 3;
  cfg.workload.key_count = 32;
  cfg.workload.read_frac = 0.8;
  cfg.fault.crash.rate = 0.01;
  cfg.fault.crash.recover_fraction = 1.0;
  cfg.fault.partition.rate = 0.004;
  cfg.fault.partition.duration = 150;
  cfg.fault.partition.fraction = 0.3;
  cfg.fault.byzantine.fraction = 0.25;
  cfg.fault.byzantine.transform_rate = 0.5;
  cfg.fault.byzantine.equivocate = false;
  cfg.fault.byzantine.stale_replay = false;
  cfg.fault.byzantine.forge = false;  // value corruption only

  const MetricsReport a = harness::run_experiment(cfg);
  EXPECT_GT(a.faults_crashes, 0u);
  EXPECT_GT(a.faults_partitions, 0u);
  EXPECT_GT(a.msgs_transformed, 0u);
  ASSERT_EQ(a.shards.size(), 2u);
  expect_identical(a, harness::run_experiment(cfg));

  replay::Trace trace;
  trace.seed = cfg.seed;
  replay::RunHooks record;
  record.record = &trace;
  const MetricsReport recorded = harness::run_experiment(cfg, record);
  expect_identical(a, recorded);
  EXPECT_FALSE(trace.faults.empty());

  replay::RunHooks replay_hooks;
  replay_hooks.replay = &trace;
  expect_identical(recorded, harness::run_experiment(cfg, replay_hooks));
}

TEST(FaultPlan, DefaultPlanIsDisabled) {
  const Plan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_FALSE(plan.crash_enabled());
  EXPECT_FALSE(plan.partition_enabled());
  EXPECT_FALSE(plan.byzantine_enabled());
  // Arming a class without a rate keeps it off; kinds alone do not enable.
  Plan byz;
  byz.byzantine.fraction = 1.0;
  EXPECT_FALSE(byz.byzantine_enabled());
  byz.byzantine.transform_rate = 1.0;
  EXPECT_TRUE(byz.byzantine_enabled());
  byz.byzantine.equivocate = byz.byzantine.stale_replay = false;
  byz.byzantine.forge = byz.byzantine.corrupt = false;
  EXPECT_FALSE(byz.byzantine_enabled());
}

}  // namespace
}  // namespace dynreg::fault
