// fault::Injector determinism and envelope regressions:
//
//   - each fault class alone is (config, seed)-deterministic;
//   - a faulted run is jobs-independent (run_grid at 1 vs 8 workers);
//   - the crash-recovery matrix behaves (recover_fraction 0/1, durable and
//     volatile restarts both stay inside the safety envelope);
//   - a run with all three classes armed records into a trace, replays
//     byte-identically through RunHooks AND through the v3 file format;
//   - the liveness regression: a symmetric partition heals and the ES
//     protocol (with client retries) recovers, with zero violations;
//   - Byzantine transforms actually break regularity (the checker sees the
//     never-written values) — the experiment's headline contrast;
//   - on a sharded config the plan runs in every shard, deterministically
//     and through record/replay;
//   - transform() itself, one copy of every protocol tag: the value-carrying
//     ones come back rewritten by the drawn kind, the others untouched;
//   - the hook's armed flags: cuts only while a partition is active,
//     transforms only when the plan enables Byzantine faults.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>

#include "churn/system.h"
#include "dynreg/messages.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "net/delay_model.h"
#include "net/network.h"
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
  const auto serial = harness::run_grid({cfg}, 4, 1, nullptr)[0];
  const auto pooled = harness::run_grid({cfg}, 4, 8, nullptr)[0];
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

/// Hands out the words pushed into it, in order; a draw with none queued
/// fails the test.
class ScriptedDecisions final : public DecisionSource {
 public:
  void push(std::uint64_t word) { words_.push_back(word); }
  [[nodiscard]] std::size_t queued() const { return words_.size(); }

  std::uint64_t draw(sim::Time) override {
    if (words_.empty()) {
      ADD_FAILURE() << "unscripted fault decision";
      return 0;
    }
    const std::uint64_t w = words_.front();
    words_.pop_front();
    return w;
  }

 private:
  std::deque<std::uint64_t> words_;
};

TEST(InjectorTransform, RewritesEveryValueCarryingTagAndNothingElse) {
  sim::Simulation sim(1);
  net::Network net(sim, std::make_unique<net::FixedDelay>(1));
  churn::System system(sim, net, churn::SystemConfig{}, std::make_unique<churn::NoChurn>(),
                       [](sim::ProcessId, node::Context&, bool) { return nullptr; });
  Plan plan;
  plan.byzantine.fraction = 1.0;
  plan.byzantine.transform_rate = 1.0;
  ScriptedDecisions decisions;
  Injector injector(sim, system, net, plan, decisions, {});

  // Tag t goes out in its protocol's shape, as id 1000+t (the sync
  // protocol's messages carry id 0), ts (10+t, writer 2) and value 100+t,
  // from process 3 to process 5. The k-th value-carrying copy draws the coin
  // word 0 (always transform) and the kind word k%4 + 8*7: kind k%4 of
  // {equivocate, stale, forge, corrupt}, parameter d = 7. The stale stash is
  // the first copy seen.
  struct Want {
    net::PayloadTypeId type;
    std::string_view tag;
    bool rewritten;
    std::uint64_t id;
    std::uint64_t sn;
    std::uint32_t writer;
    Value value;
  };
  const Want want[] = {
      // equivocate: value + 1 + 5%7
      {msg::kSyncWrite, "sync.write", true, 0, 10, 2, 106},
      {msg::kSyncInquiry, "sync.inquiry", false, 0, 0, 0, 0},
      // stale: sync.write's (ts, value)
      {msg::kSyncReply, "sync.reply", true, 0, 10, 2, 100},
      // forge: sn + 100 + 7, authored by the sender
      {msg::kSyncRefresh, "sync.refresh", true, 0, 120, 3, 103 ^ 0x5a5a5a5},
      {msg::kEsRead, "es.read", false, 0, 0, 0, 0},
      // corrupt: value ^ (1 + 7)
      {msg::kEsReply, "es.reply", true, 1005, 15, 2, 105 ^ 8},
      {msg::kEsWrite, "es.write", true, 1006, 16, 2, 112},
      {msg::kEsAck, "es.ack", false, 0, 0, 0, 0},
      {msg::kEsJoin, "es.join", false, 0, 0, 0, 0},
      {msg::kEsJoinReply, "es.join_reply", true, 1009, 10, 2, 100},
      {msg::kAbdReadQuery, "abd.read_query", false, 0, 0, 0, 0},
      {msg::kAbdReadReply, "abd.read_reply", true, 1011, 128, 3, 111 ^ 0x5a5a5a5},
      {msg::kAbdWriteback, "abd.writeback", true, 1012, 22, 2, 112 ^ 8},
      {msg::kAbdWritebackAck, "abd.writeback_ack", false, 0, 0, 0, 0},
      {msg::kAbdUpdate, "abd.update", true, 1014, 24, 2, 120},
      {msg::kAbdUpdateAck, "abd.update_ack", false, 0, 0, 0, 0},
  };
  std::uint64_t kind = 0;
  for (std::size_t t = 0; t < std::size(want); ++t) {
    SCOPED_TRACE(want[t].tag);
    const std::uint64_t id = t < 4 ? 0 : 1000 + t;  // the sync protocol names no operation
    const net::PayloadPtr copy =
        want[t].rewritten
            ? net::make_payload<msg::Stamped>(want[t].type, id, Timestamp{10 + t, 2},
                                              static_cast<Value>(100 + t), true)
            : net::make_payload<msg::Request>(want[t].type, id);
    ASSERT_EQ(copy->type_name(), want[t].tag);
    if (want[t].rewritten) {
      decisions.push(0);
      decisions.push(kind++ % 4 + 8 * 7);
    }
    const net::PayloadPtr out = injector.transform(sim.now(), 3, 5, copy);
    EXPECT_EQ(decisions.queued(), 0u);
    if (!want[t].rewritten) {
      EXPECT_FALSE(out);
      continue;
    }
    ASSERT_TRUE(out);
    EXPECT_EQ(out->type_id(), copy->type_id());
    const msg::Stamped* f = msg::stamped(*out);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->id, want[t].id);
    EXPECT_EQ(f->ts.sn, want[t].sn);
    EXPECT_EQ(f->ts.writer, want[t].writer);
    EXPECT_EQ(f->value, want[t].value);
    EXPECT_TRUE(f->has_value);
  }
}

TEST(InjectorArming, CutsArmOnlyWhilePartitionedAndTransformsOnlyForByzantinePlans) {
  sim::Simulation sim(1);
  net::Network net(sim, std::make_unique<net::FixedDelay>(1));
  churn::System system(sim, net, churn::SystemConfig{}, std::make_unique<churn::NoChurn>(),
                       [](sim::ProcessId, node::Context&, bool) { return nullptr; });
  Plan plan;
  plan.tick = 10;
  plan.partition.rate = 1.0;  // a certain start at every tick with none active
  plan.partition.duration = 5;
  ScriptedDecisions decisions;
  Injector injector(sim, system, net, plan, decisions, {});
  // The network skips link_cut while no partition is active, and transform
  // for a plan without Byzantine faults.
  EXPECT_FALSE(injector.cuts_armed());
  EXPECT_FALSE(injector.transforms_armed());

  injector.start();
  sim.run_until(9);
  EXPECT_FALSE(injector.cuts_armed());
  decisions.push(0);  // the tick-10 coin: start
  decisions.push(7);  // the partition's salt
  sim.run_until(10);
  EXPECT_EQ(injector.stats().partitions, 1u);
  EXPECT_TRUE(injector.cuts_armed());
  sim.run_until(14);
  EXPECT_TRUE(injector.cuts_armed());
  sim.run_until(15);  // healed
  EXPECT_EQ(injector.stats().heals, 1u);
  EXPECT_FALSE(injector.cuts_armed());
  EXPECT_EQ(decisions.queued(), 0u);

  Plan byz;
  byz.byzantine.fraction = 0.5;
  byz.byzantine.transform_rate = 0.5;
  ScriptedDecisions none;
  const Injector armed(sim, system, net, byz, none, {});
  EXPECT_TRUE(armed.transforms_armed());
  EXPECT_FALSE(armed.cuts_armed());
}

}  // namespace
}  // namespace dynreg::fault
