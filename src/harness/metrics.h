// Per-run experiment results: operation counts, latency summaries, join and
// active-set accounting, per-type traffic, and the consistency reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "consistency/regularity_checker.h"

namespace dynreg::harness {

/// One shard's slice of a sharded run (src/shard/). Latency percentiles are
/// nearest-rank over the shard's completed ops (reads and writes combined —
/// the tail a keyed caller of that shard observes).
struct ShardMetrics {
  std::uint64_t reads_completed = 0;
  std::uint64_t writes_completed = 0;
  /// reads_completed + writes_completed (the skew denominator).
  std::uint64_t ops_completed = 0;
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
};

/// Everything measured in one run. Produced by run_experiment; cross-seed
/// summaries live in harness/aggregate.h (which never averages the safety
/// counters away).
struct [[nodiscard]] MetricsReport {
  // Operations (issued by the workload driver; completion = callback fired
  // before the horizon).
  std::uint64_t reads_issued = 0;
  std::uint64_t reads_completed = 0;
  /// Completed reads that returned kBottom — for survival-mode experiments
  /// this measures information death directly.
  std::uint64_t reads_of_bottom = 0;
  std::uint64_t writes_issued = 0;
  std::uint64_t writes_completed = 0;

  // Typed failure outcomes (client layer; counts failed *attempts*).
  /// Attempts resolved kDroppedOnDeparture: the hosting node left mid-op.
  std::uint64_t reads_dropped = 0;
  std::uint64_t writes_dropped = 0;
  /// Attempts resolved kTimedOut by a client-armed per-op deadline.
  std::uint64_t reads_timed_out = 0;
  std::uint64_t writes_timed_out = 0;
  /// Re-issued attempts under a client RetryPolicy.
  std::uint64_t op_retries = 0;

  // Joins (non-bootstrap processes only).
  std::uint64_t joins_started = 0;
  std::uint64_t joins_completed = 0;
  /// Joiners churned out before their join could complete.
  std::uint64_t joins_abandoned = 0;

  // Latencies (ticks; client-perceived invoke-to-response over completed
  // operations — closed-loop session queue wait included). Percentiles are
  // nearest-rank per op type.
  double read_latency_mean = 0.0;
  double read_latency_p50 = 0.0;
  /// Nearest-rank p99 over this run's completed reads.
  double read_latency_p99 = 0.0;
  double write_latency_mean = 0.0;
  double write_latency_p50 = 0.0;
  double write_latency_p99 = 0.0;
  double join_latency_mean = 0.0;

  // Ground-truth active-set measurements over the run.
  bool majority_active_always = true;
  /// min over t of |A(t, t + 3*delta)| — Lemma 2's quantity.
  double min_active_3delta = 0.0;

  // Fault-campaign accounting (fault::Injector + network seam counters; all
  // zero when the run armed no fault::Plan).
  std::uint64_t faults_crashes = 0;
  std::uint64_t faults_recoveries = 0;
  std::uint64_t faults_partitions = 0;
  std::uint64_t faults_heals = 0;
  /// Message copies cut by an active partition (FaultHook::link_cut).
  std::uint64_t msgs_dropped_partition = 0;
  /// Delivered copies rewritten by a Byzantine transform.
  std::uint64_t msgs_transformed = 0;

  // Shard layer (src/shard/; all empty/zero for unsharded runs — the
  // emitters build tables from these only in the sharded experiments, so
  // pre-shard experiment output is untouched).
  /// Per-shard slices, in shard order.
  std::vector<ShardMetrics> shards;
  /// Max / min per-shard combined-op p99 over shards that completed ops.
  double shard_hot_p99 = 0.0;
  double shard_cold_p99 = 0.0;
  /// Hot-shard skew: max per-shard ops_completed over the mean.
  double shard_skew = 0.0;
  /// Aggregate throughput: completed ops (reads + writes) per tick.
  double ops_per_tick = 0.0;

  /// Delivered message copies per wire-type tag (see dynreg/messages.h for
  /// the tag vocabulary).
  std::map<std::string, std::uint64_t> msgs_by_type;

  /// Stale-read check over the recorded history (Theorem 1's property).
  consistency::RegularityReport regularity;
  /// New/old inversion count (regular-vs-atomic distinction, Section 1).
  consistency::InversionReport atomicity;

  /// Event-stream digest of the run (sim::Simulation::trace_hash); 0 in
  /// builds without DYNREG_AUDIT. Deliberately excluded from the JSON/CSV
  /// serializers: it is a build-mode-dependent diagnostic, and emitted
  /// experiment output stays byte-identical across audit on/off.
  std::uint64_t trace_hash = 0;
  /// Deterministic work counters, equal in every build mode and likewise
  /// kept out of the serializers: queued events the simulation dispatched
  /// (sim::Simulation::events), and message copies handed to the delay
  /// model and delivered to a receiver, summed over every shard's network
  /// (net::Network::Stats sent / delivered). Tests pin them exactly, so a
  /// change to the event or message volume shows on any machine.
  std::uint64_t sim_events = 0;
  std::uint64_t net_copies_sent = 0;
  std::uint64_t net_copies_delivered = 0;
  /// Payload objects the protocol nodes built, summed over every shard's
  /// group (node::Context::payloads_built). A broadcast builds one for all
  /// its copies; a Byzantine rewrite is counted in msgs_transformed instead.
  std::uint64_t payloads_built = 0;
  /// The client's bookkeeping, summed over every shard's client in the
  /// same way: operations issued (one op id each), and each client's
  /// high-water mark of unresolved operations.
  std::uint64_t client_op_records = 0;
  std::uint64_t client_flights_peak = 0;
  /// The per-operation logs, summed over every shard in the same way:
  /// history records held (one per write or read attempt, plus each
  /// group's initial pseudo-write; nothing is retired, so this is also the
  /// logs' high-water mark), and the bytes the client's flight slab and
  /// the history's records occupy at the horizon, unused capacity included.
  std::uint64_t history_records = 0;
  std::uint64_t op_log_bytes = 0;
  /// The simulation's own memory, one simulation for all shards: bytes its
  /// arena reserved, the most block-pool blocks live at once, and the most
  /// events queued at once (sim::Simulation).
  std::uint64_t arena_bytes_reserved = 0;
  std::uint64_t pool_blocks_peak = 0;
  std::uint64_t queue_peak = 0;
  /// Allocations the simulation's arena served over the run: the network's
  /// broadcast batches and reply spill blocks.
  std::uint64_t arena_allocations = 0;

  double violation_rate() const { return regularity.violation_rate(); }
  double read_completion_rate() const {
    return reads_issued == 0 ? 1.0
                             : static_cast<double>(reads_completed) /
                                   static_cast<double>(reads_issued);
  }
  double write_completion_rate() const {
    return writes_issued == 0 ? 1.0
                              : static_cast<double>(writes_completed) /
                                    static_cast<double>(writes_issued);
  }
  /// Completion rate excusing joiners that were churned out mid-join (they
  /// never had a full chance). The raw rate is joins_completed/joins_started.
  double join_completion_rate() const {
    const std::uint64_t given_chance =
        joins_started > joins_abandoned ? joins_started - joins_abandoned : 0;
    return given_chance == 0 ? 1.0
                             : static_cast<double>(joins_completed) /
                                   static_cast<double>(given_chance);
  }
};

}  // namespace dynreg::harness
