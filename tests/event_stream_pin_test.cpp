// Pinned event-stream digests and work counts. Each scenario's DYNREG_AUDIT
// trace_hash folds every dispatched message copy's (time, dispatch sequence
// number) and its (from, to, type) shape, so any change to delivery order,
// delivery time, drop accounting, or RNG draw order changes the literal
// below. The literals were captured from the per-copy event design (one
// queued event per message copy); the grouped delivery path (one queued
// event per broadcast arrival tick) must reproduce them exactly.
//
// The counts (queued events dispatched, message copies sent and delivered,
// client operation records created, the clients' peak of unresolved
// operations, and what the membership chronicle reports: abandoned joins,
// the mean join latency, whether a majority stayed active throughout and
// the least |A(t, t + 3δ)|, the payload objects the protocol nodes
// built, the history records held, the bytes of the per-operation logs,
// and what the simulation itself held at most: arena bytes reserved,
// block-pool blocks live and events queued) hold in every build mode. They are the machine-independent
// gate for performance work: a change that only makes the same run faster
// leaves them alone, and one that queues fewer events must say so here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstddef>
#include <map>
#include <optional>
#include <string>

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

// Four shards of the synchronous protocol under constant churn, driven by
// closed-loop sessions over zipfian keys: every shard's network, membership
// and client interleave in the one event queue.
ExperimentConfig sync_sharded() {
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kSync;
  cfg.n = 48;
  cfg.delta = 4;
  cfg.duration = 600;
  cfg.churn_rate = 0.5 * cfg.sync_churn_threshold();
  cfg.shard_count = 4;
  cfg.workload.clients = 24;
  cfg.workload.think_time = 3;
  cfg.workload.key_count = 128;
  cfg.workload.zipf_s = 0.99;
  cfg.workload.read_frac = 0.8;
  cfg.seed = 29;
  return cfg;
}

// Small copies of the three perfbench workload shapes (perfbench/src/
// workloads.cpp), duplicated here so the gate does not depend on the
// benchmark's sources.

// quorum_scale: ES quorum operations over a fanout-4 tree, no churn.
ExperimentConfig quorum_scale() {
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kEventuallySync;
  cfg.timing = Timing::kEventuallySynchronous;
  cfg.gst = 0;
  cfg.n = 2000;
  cfg.delta = 5;
  cfg.duration = 400;
  cfg.churn_kind = ChurnKind::kNone;
  cfg.dissemination = Dissemination::kTree;
  cfg.tree_fanout = 4;
  cfg.workload.read_interval = 40;
  cfg.workload.write_interval = 80;
  cfg.seed = 1;
  return cfg;
}

// churn_sessions: sync shards under churn at a twentieth of Theorem 1's
// bound, one closed-loop session per process over zipfian keys.
ExperimentConfig churn_sessions() {
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kSync;
  cfg.timing = Timing::kSynchronous;
  cfg.n = 1024;
  cfg.delta = 5;
  cfg.shard_count = 16;
  cfg.duration = 200;
  cfg.churn_kind = ChurnKind::kConstant;
  cfg.churn_rate = 0.05 * cfg.sync_churn_threshold();
  cfg.workload.clients = cfg.n;
  cfg.workload.think_time = 2;
  cfg.workload.key_count = 256;
  cfg.workload.zipf_s = 0.99;
  cfg.workload.read_frac = 0.9;
  cfg.seed = 1;
  return cfg;
}

// fault_search's base run: n=15 ES with durable crash-recovery and
// asymmetric partitions (the search then perturbs runs like this one).
ExperimentConfig fault_search_base() {
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kEventuallySync;
  cfg.timing = Timing::kEventuallySynchronous;
  cfg.gst = 0;
  cfg.n = 15;
  cfg.delta = 5;
  cfg.duration = 2500;
  cfg.churn_rate = 0.0;
  cfg.workload.read_interval = 10;
  cfg.workload.write_interval = 60;
  cfg.fault.crash.rate = 0.01;
  cfg.fault.crash.recover_fraction = 1.0;
  cfg.fault.crash.restart = fault::RestartState::kDurable;
  cfg.fault.partition.rate = 0.002;
  cfg.fault.partition.duration = 150;
  cfg.fault.partition.fraction = 0.3;
  cfg.fault.partition.asymmetric = true;
  cfg.seed = 1;
  return cfg;
}

// A quarter of the processes Byzantine, rewriting half of their value-carrying
// copies, under churn at half the protocol's bound: every transform kind
// and every rewritable tag of `protocol` reaches the wire.
ExperimentConfig byzantine(Protocol protocol) {
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.n = 15;
  cfg.delta = 5;
  cfg.duration = 900;
  cfg.workload.read_interval = 6;
  cfg.workload.write_interval = 29;
  cfg.fault.byzantine.fraction = 0.25;
  cfg.fault.byzantine.transform_rate = 0.5;
  cfg.seed = 13;
  return cfg;
}

// ES with the reply-validation guard, which drops forged timestamps.
ExperimentConfig byzantine_es() {
  ExperimentConfig cfg = byzantine(Protocol::kEventuallySync);
  cfg.timing = Timing::kEventuallySynchronous;
  cfg.gst = 0;
  cfg.churn_rate = 0.5 * cfg.es_churn_threshold();
  cfg.es_validate_replies = true;
  return cfg;
}

// Sync with anti-entropy, so sync.refresh copies are rewritten too.
ExperimentConfig byzantine_sync() {
  ExperimentConfig cfg = byzantine(Protocol::kSync);
  cfg.churn_rate = 0.5 * cfg.sync_churn_threshold();
  cfg.sync_refresh_interval = 40;
  return cfg;
}

ExperimentConfig byzantine_abd() {
  ExperimentConfig cfg = byzantine(Protocol::kAbd);
  cfg.churn_rate = 0.002;
  return cfg;
}

struct Counts {
  std::uint64_t sim_events;
  std::uint64_t net_copies_sent;
  std::uint64_t net_copies_delivered;
  std::uint64_t client_op_records;
  std::uint64_t client_flights_peak;
  // Read straight off churn::Chronicle and the join bookkeeping.
  std::uint64_t joins_abandoned;
  double join_latency_mean;
  bool majority_active_always;
  double min_active_3delta;
  // Payload objects the protocol nodes built.
  std::uint64_t payloads_built;
  // History records held, and the bytes the client's flight slab and the
  // history occupy at the horizon.
  std::uint64_t history_records;
  std::uint64_t op_log_bytes;
  // The simulation's memory: bytes the arena reserved, the most block-pool
  // blocks live at once, the most events queued at once.
  std::uint64_t arena_bytes_reserved;
  std::uint64_t pool_blocks_peak;
  std::uint64_t queue_peak;
};

/// What a Byzantine run also pins: copies rewritten, reads flagged.
struct Byzantine {
  std::uint64_t msgs_transformed;
  std::size_t violations;
};

/// Runs `cfg` and checks its work counts (every build), its Byzantine
/// counts when given, and its trace_hash (audit builds).
void expect_pinned(const ExperimentConfig& cfg, std::uint64_t hash, const Counts& counts,
                   const std::optional<Byzantine>& byzantine = std::nullopt) {
  const MetricsReport report = run_experiment(cfg);
  EXPECT_EQ(report.sim_events, counts.sim_events);
  EXPECT_EQ(report.net_copies_sent, counts.net_copies_sent);
  EXPECT_EQ(report.net_copies_delivered, counts.net_copies_delivered);
  EXPECT_EQ(report.client_op_records, counts.client_op_records);
  EXPECT_EQ(report.client_flights_peak, counts.client_flights_peak);
  EXPECT_EQ(report.joins_abandoned, counts.joins_abandoned);
  EXPECT_EQ(report.join_latency_mean, counts.join_latency_mean);
  EXPECT_EQ(report.majority_active_always, counts.majority_active_always);
  EXPECT_EQ(report.min_active_3delta, counts.min_active_3delta);
  EXPECT_EQ(report.payloads_built, counts.payloads_built);
  EXPECT_EQ(report.history_records, counts.history_records);
  EXPECT_EQ(report.op_log_bytes, counts.op_log_bytes);
  EXPECT_EQ(report.arena_bytes_reserved, counts.arena_bytes_reserved);
  EXPECT_EQ(report.pool_blocks_peak, counts.pool_blocks_peak);
  EXPECT_EQ(report.queue_peak, counts.queue_peak);
  if (sim::Simulation::audit_enabled()) {
    EXPECT_EQ(report.trace_hash, hash) << "actual 0x" << std::hex << report.trace_hash;
  }
  if (byzantine) {
    EXPECT_EQ(report.msgs_transformed, byzantine->msgs_transformed);
    EXPECT_EQ(report.regularity.violations.size(), byzantine->violations);
  }
}

TEST(EventStreamPin, EsFlat) {
  expect_pinned(es_flat(), 0xbaf107f8d730c33aULL,
                {9649, 12973, 12076, 121, 7, 0, 262.0 / 23, true, 29, 2514, 122, 10240,
                 131072, 370, 832});
}
TEST(EventStreamPin, EsTree) {
  expect_pinned(es_tree(), 0x7c97c6ee02db0983ULL,
                {13462, 18012, 16482, 120, 13, 2, 727.0 / 31, true, 40, 4469, 121, 10240,
                 196608, 468, 1823});
}
TEST(EventStreamPin, SyncUnderChurn) {
  expect_pinned(sync_churn(), 0x245ae4a0b2220e1bULL,
                {51035, 92838, 78671, 218, 2, 583, 12, false, 10, 2859, 219, 13312,
                 131072, 57, 230});
}
TEST(EventStreamPin, EsCrashAndPartition) {
  expect_pinned(es_faults(), 0x707f13a1b35377e7ULL,
                {5994, 5963, 5923, 236, 13, 0, 37.0 / 6, true, 9, 1046, 237, 14336,
                 65536, 39, 84});
}
TEST(EventStreamPin, AbdUnderChurn) {
  expect_pinned(abd_churn(), 0x76fb3c6b5955e378ULL,
                {5404, 9026, 8759, 161, 50, 0, 0, true, 24, 1061, 162, 16384,
                 65536, 22, 53});
}

// The Byzantine pins also fix how many copies were rewritten and how many
// reads the checker flags.
TEST(EventStreamPin, ByzantineEs) {
  expect_pinned(byzantine_es(), 0x8603b64b6106e617ULL,
                {5182, 5848, 5709, 180, 3, 4, 157.0 / 25, true, 14, 806, 181, 11264,
                 65536, 20, 43},
                Byzantine{266, 2});
}
TEST(EventStreamPin, ByzantineSync) {
  expect_pinned(byzantine_sync(), 0x754db26f7972368fULL,
                {9062, 11408, 9891, 180, 2, 188, 15, false, 3, 3212, 181, 11264,
                 65536, 26, 87},
                Byzantine{762, 130});
}
TEST(EventStreamPin, ByzantineAbd) {
  expect_pinned(byzantine_abd(), 0xc9e7ea1df2fdfc91ULL,
                {3945, 5073, 5008, 179, 75, 0, 0, true, 14, 921, 180, 21504,
                 65536, 17, 39},
                Byzantine{232, 33});
}

// The sharded pin also fixes the integer report fields.
TEST(EventStreamPin, SyncShardedZipfian) {
  expect_pinned(sync_sharded(), 0xe69832f62ba6786bULL,
                {22095, 24629, 20880, 2127, 46, 492, 12, false, 2, 3398, 2122, 91136,
                 131072, 37, 134});
  const MetricsReport report = run_experiment(sync_sharded());
  EXPECT_EQ(report.reads_completed, 1705u);
  EXPECT_EQ(report.writes_completed, 410u);
  EXPECT_EQ(report.joins_completed, 693u);
  const std::map<std::string, std::uint64_t> msgs{
      {"sync.inquiry", 9597}, {"sync.reply", 7070}, {"sync.write", 4213}};
  EXPECT_EQ(report.msgs_by_type, msgs);
}

// Point-to-point replies sent while a batch of at least
// Network::kCoalesceMinBatch copies is delivered share one queued event per
// (destination, arrival tick): 26342 queued events with one per reply, 4182
// with coalescing. The digest and the copy counts are the per-copy design's.
TEST(EventStreamPin, QuorumScaleShape) {
  expect_pinned(quorum_scale(), 0xd9c82e1682a2caa3ULL,
                {4182, 51974, 51974, 13, 2, 0, 0, true, 2000, 1855, 14, 5888,
                 131072, 255, 336});
}
TEST(EventStreamPin, ChurnSessionsShape) {
  expect_pinned(churn_sessions(), 0xf6881075e6bc8c0fULL,
                {64538, 121067, 117425, 14429, 1130, 28, 15, true, 57, 11926, 13510, 676864,
                 131072, 394, 1304});
}
TEST(EventStreamPin, FaultSearchShape) {
  expect_pinned(fault_search_base(), 0xb5d105cc25c86e8dULL,
                {8917, 8624, 8564, 290, 3, 0, 83.0 / 8, true, 13, 1295, 291, 15360,
                 65536, 24, 51});
}

}  // namespace
}  // namespace dynreg::harness
