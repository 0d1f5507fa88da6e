// The workload *description* — engine kind and traffic parameters — split
// from the engine implementations (harness/workload.h) so config-only
// consumers (ExperimentConfig, the bench registry) don't pull the client
// and system stack into every translation unit.
#pragma once

#include <cstddef>

#include "sim/event_queue.h"

namespace dynreg::workload {

/// Which engine shapes the read traffic (see harness/workload.h for the
/// engines themselves).
enum class Kind {
  kOpenLoop,
  kClosedLoop,
  kBursty,
};

const char* to_string(Kind k);

/// Who writes.
enum class WriterMode {
  kSingle,      ///< The paper's model: one designated writer (process 0).
  kConcurrent,  ///< Section 7 extension: several simultaneous writers.
};

/// Traffic description. Writers are pinned (exempt from churn, as in the
/// paper where the writer stays in the system) unless writes are disabled —
/// then nobody is exempt and the register value must survive churn on its
/// own.
struct Config {
  Kind kind = Kind::kOpenLoop;

  /// Open-loop/bursty: a read is issued from a uniformly random active
  /// process every interval.
  sim::Duration read_interval = 10;
  /// Writes are issued every interval (by every writer, in concurrent mode).
  sim::Duration write_interval = 50;
  bool writes_enabled = true;
  WriterMode writer_mode = WriterMode::kSingle;
  /// Number of designated writers in concurrent mode (ids 0..k-1).
  std::size_t concurrent_writers = 2;

  /// Closed-loop: number of concurrent sessions.
  std::size_t clients = 4;
  /// Closed-loop: ticks a session waits between a resolution and its next
  /// op (0 behaves as 1 — see workload::SessionLoop).
  sim::Duration think_time = 5;

  /// Bursty: ticks of open-loop traffic per phase...
  sim::Duration burst_on = 200;
  /// ...followed by ticks of silence.
  sim::Duration burst_off = 200;

  // Per-operation client policy, applied to every issued op (reads, writes,
  // session reads). The defaults (no deadline, one attempt) reproduce the
  // historical behavior byte-for-byte.
  /// Resolve an attempt as timed out this many ticks after issue (0 = none).
  sim::Duration op_deadline = 0;
  /// Total attempts allowed per operation, first issue included.
  std::uint32_t retry_max_attempts = 1;
  /// Base delay between a failed attempt and its re-issue.
  sim::Duration retry_backoff = 0;
  /// Exponential backoff: the k-th retry waits backoff * 2^min(k-1, 5) plus
  /// a deterministic jitter hashed from (seed, op, attempt) — no Rng draw,
  /// so the replay layer never sees it (see client::RetryPolicy).
  bool retry_exponential = false;

  // Keyed workload (sharded runs only — engaged when ExperimentConfig::
  // shard_count > 0; see src/shard/keyed_workload.h). Sessions reuse
  // `clients` (session count) and `think_time`.
  /// Size of the key space; 0 behaves as 1 (a single-key space).
  std::size_t key_count = 0;
  /// Zipfian exponent for key popularity (0 = uniform; rank 0 hottest).
  double zipf_s = 0.99;
  /// Fraction of keyed ops that are reads; the rest are writes through the
  /// owning shard's designated writer.
  double read_frac = 0.9;
  /// Hot-key storm phase: every `storm_every` ticks, the first `storm_len`
  /// ticks route every op to key 0 (0 = no storms) — same clock-arithmetic
  /// gating as the bursty engine.
  sim::Duration storm_every = 0;
  sim::Duration storm_len = 0;
};

}  // namespace dynreg::workload
