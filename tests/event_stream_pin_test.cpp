// Pinned event-stream digests. Each scenario's DYNREG_AUDIT trace_hash folds
// every dispatched message copy's (time, dispatch sequence number) and its
// (from, to, type) shape, so any change to delivery order, delivery time,
// drop accounting, or RNG draw order changes the literal below. The literals
// were captured from the per-copy event design (one queued event per
// message copy); the grouped delivery path (one queued event per broadcast
// arrival tick) must reproduce them exactly.
#include <gtest/gtest.h>

#include <cstdint>

#include "harness/experiment.h"
#include "sim/simulation.h"

namespace dynreg::harness {
namespace {

// Eventually synchronous with a late GST: pre-GST delays are spread over
// [1, pre_gst_max], so one broadcast lands over many ticks, and loss plus
// churn exercise the lost and dropped_departed paths.
ExperimentConfig es_base() {
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kEventuallySync;
  cfg.timing = Timing::kEventuallySynchronous;
  cfg.n = 31;
  cfg.delta = 5;
  cfg.gst = 150;
  cfg.pre_gst_max = 40;
  cfg.duration = 700;
  cfg.loss_rate = 0.05;
  cfg.churn_rate = 0.5 * cfg.es_churn_threshold();
  cfg.workload.read_interval = 7;
  cfg.workload.write_interval = 29;
  cfg.seed = 17;
  return cfg;
}

ExperimentConfig es_flat() { return es_base(); }

ExperimentConfig es_tree() {
  ExperimentConfig cfg = es_base();
  cfg.n = 45;
  cfg.dissemination = Dissemination::kTree;
  cfg.tree_fanout = 3;
  cfg.seed = 23;
  return cfg;
}

ExperimentConfig sync_churn() {
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kSync;
  cfg.n = 40;
  cfg.delta = 4;
  cfg.duration = 900;
  cfg.churn_rate = 0.5 * cfg.sync_churn_threshold();
  cfg.workload.read_interval = 5;
  cfg.workload.write_interval = 23;
  cfg.seed = 5;
  return cfg;
}

ExperimentConfig es_faults() {
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kEventuallySync;
  cfg.timing = Timing::kEventuallySynchronous;
  cfg.n = 15;
  cfg.delta = 5;
  cfg.gst = 0;
  cfg.duration = 1200;
  cfg.workload.read_interval = 6;
  cfg.workload.write_interval = 31;
  cfg.fault.crash.rate = 0.01;
  cfg.fault.crash.recover_fraction = 0.7;
  cfg.fault.crash.recovery_delay = 25;
  cfg.fault.partition.rate = 0.004;
  cfg.fault.partition.duration = 60;
  cfg.fault.partition.fraction = 0.3;
  cfg.seed = 11;
  return cfg;
}

ExperimentConfig abd_churn() {
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kAbd;
  cfg.n = 25;
  cfg.delta = 5;
  cfg.duration = 800;
  cfg.churn_rate = 0.002;
  cfg.loss_rate = 0.02;
  cfg.workload.read_interval = 6;
  cfg.workload.write_interval = 27;
  cfg.seed = 3;
  return cfg;
}

void expect_pinned(const ExperimentConfig& cfg, std::uint64_t expected) {
  if (!sim::Simulation::audit_enabled()) {
    GTEST_SKIP() << "trace_hash needs a DYNREG_AUDIT build";
  }
  const MetricsReport report = run_experiment(cfg);
  EXPECT_EQ(report.trace_hash, expected)
      << "actual 0x" << std::hex << report.trace_hash;
}

TEST(EventStreamPin, EsFlat) { expect_pinned(es_flat(), 0xbaf107f8d730c33aULL); }
TEST(EventStreamPin, EsTree) { expect_pinned(es_tree(), 0x7c97c6ee02db0983ULL); }
TEST(EventStreamPin, SyncUnderChurn) { expect_pinned(sync_churn(), 0x245ae4a0b2220e1bULL); }
TEST(EventStreamPin, EsCrashAndPartition) { expect_pinned(es_faults(), 0x707f13a1b35377e7ULL); }
TEST(EventStreamPin, AbdUnderChurn) { expect_pinned(abd_churn(), 0x76fb3c6b5955e378ULL); }

}  // namespace
}  // namespace dynreg::harness
