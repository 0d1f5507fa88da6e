// One-shot experiment runner: deploys a protocol over the churn/network
// substrate, applies the workload, and returns a MetricsReport. A
// (config, seed) pair fully determines the result.
#pragma once

#include <cstdint>
#include <optional>

#include "churn/system.h"
#include "fault/plan.h"
#include "harness/metrics.h"
#include "harness/workload_config.h"
#include "replay/hooks.h"
#include "sim/simulation.h"

namespace dynreg::harness {

/// Which register protocol a run deploys.
enum class Protocol {
  kSync,            ///< Section 3 (synchronous, fast local reads).
  kSyncNoWait,      ///< Figure 3a ablation: join inquires without the delta wait.
  kEventuallySync,  ///< Section 5 (quorum-based).
  kAbd,             ///< Static-membership baseline (Attiya, Bar-Noy, Dolev).
};

/// The timing model the network's delay model implements.
enum class Timing {
  kSynchronous,            ///< All delays in [1, delta].
  kEventuallySynchronous,  ///< Arbitrary (bounded by pre_gst_max) before gst,
                           ///< delta-bounded after.
};

/// Membership dynamics: a static member set or the paper's constant churn.
enum class ChurnKind { kNone, kConstant };

/// How broadcasts fan out (see net/disseminator.h). kFlat is the paper's
/// model (sender transmits to every recipient directly); kTree delegates
/// over a deterministic BFS tree so a write costs the sender O(fanout)
/// sends instead of O(n).
enum class Dissemination { kFlat, kTree };

/// Everything that determines a run. A (config, seed) pair fully determines
/// the resulting MetricsReport, bit for bit (see docs/ARCHITECTURE.md,
/// "Determinism contract").
struct ExperimentConfig {
  Protocol protocol = Protocol::kSync;
  Timing timing = Timing::kSynchronous;

  std::size_t n = 10;          ///< Constant system size (paper: joins == leaves).
  sim::Duration delta = 5;     ///< Network delay bound (post-GST, for ES).
  sim::Time duration = 1000;   ///< Run horizon, in ticks.
  std::uint64_t seed = 1;      ///< The run's only randomness source.

  ChurnKind churn_kind = ChurnKind::kConstant;
  /// Fraction of n joining (and leaving) per tick — the paper's c.
  double churn_rate = 0.0;
  churn::LeavePolicy leave_policy = churn::LeavePolicy::kUniform;

  Dissemination dissemination = Dissemination::kFlat;
  std::size_t tree_fanout = 4;  ///< Branching factor when dissemination == kTree.

  sim::Time gst = 0;                ///< Stabilization time (ES timing only).
  sim::Duration pre_gst_max = 100;  ///< Max pre-GST delay (finiteness bound).
  double loss_rate = 0.0;           ///< Omission-fault rate per message copy.

  /// ES reads write back the returned value (regular -> atomic upgrade).
  bool es_atomic_reads = false;
  /// ES hardening: bounded exponential retransmit backoff (EsConfig).
  bool es_retransmit_backoff = false;
  /// ES hardening: reply-validation guard against forged timestamps.
  bool es_validate_replies = false;
  /// Footnote 4: known one-way reply bound delta', shrinking the join's
  /// collection window from 2*delta to delta + delta'.
  std::optional<sim::Duration> sync_delta_pp;
  /// Anti-entropy extension: active processes rebroadcast their copy every
  /// interval (heals replicas behind lossy channels; not in the paper).
  std::optional<sim::Duration> sync_refresh_interval;

  workload::Config workload;  ///< Traffic description + engine (open/closed/bursty).

  /// Sharded keyspace (src/shard/): number of independent register groups
  /// the total population n is partitioned into, each with its own network,
  /// membership, designated writer, history, and fault injector, driven by
  /// the keyed workload engine. 0 = the single-register path, byte-identical
  /// to pre-shard builds.
  std::size_t shard_count = 0;

  /// churn::ChronicleOptions::aggregate_only for every System this run
  /// builds: keep the A(t) counters, drop per-member records, so 1e5-scale
  /// runs don't pay O(joins) memory per shard. Results are unchanged
  /// (regression-tested), so this flag is excluded from the canonical
  /// encoding and never splits a trace fingerprint.
  bool chronicle_aggregate = false;

  /// Deterministic fault campaign (crash/recovery, partitions, Byzantine
  /// transforms; see docs/FAULTS.md). Default = no faults, and the fault
  /// machinery is not even constructed — the fault-free path is untouched.
  fault::Plan fault;

  /// Throws std::invalid_argument naming the first setting this config
  /// cannot honour, instead of running it as something else:
  ///  - more shards than processes would leave shards empty;
  ///  - a tree dissemination with tree_fanout 0, or above UINT32_MAX, would
  ///    run as fanout 1 or with a narrowed fanout;
  ///  - a loss_rate that is NaN or outside [0, 1] would run as "never lost"
  ///    or "always lost", and so would the fault plan's probabilities
  ///    (crash.recover_fraction, partition.fraction, byzantine.fraction,
  ///    byzantine.transform_rate);
  ///  - a churn_rate, crash.rate or partition.rate that is negative or NaN
  ///    would run as no churn or no faults;
  ///  - fault.tick 0 would reschedule the injector at the same tick forever,
  ///    so the run would never reach its duration.
  void validate() const;

  /// Theorem 1's sufficient churn bound for the synchronous protocol.
  [[nodiscard]] double sync_churn_threshold() const { return 1.0 / (3.0 * static_cast<double>(delta)); }
  /// Section 5's churn constraint for the eventually synchronous protocol.
  double es_churn_threshold() const {
    return 1.0 / (3.0 * static_cast<double>(delta) * static_cast<double>(n));
  }
};

/// Runs one replica to completion: validates `config`, deploys
/// `config.protocol` over the churn/network substrate, applies the workload
/// until `config.duration`, then harvests metrics and runs the consistency
/// checkers over the recorded history. Self-contained and
/// thread-compatible: concurrent calls share no state, which is what the
/// parallel sweep engine exploits.
///
/// `hooks` (see replay/hooks.h) record the run's schedule or drive it from
/// a recorded one; the default is a plain live run.
MetricsReport run_experiment(const ExperimentConfig& config,
                             const replay::RunHooks& hooks = {});

}  // namespace dynreg::harness
