// The client layer: issues register operations against the deployed system
// and owns everything the protocols should not — operation identity, typed
// outcomes, history recording, latency capture, per-op deadlines, retries,
// and the per-process session FIFO.
//
// Before this layer, every bench re-implemented its own invoke/record glue
// around bare callbacks. Now a single Client fronts the system:
//
//   Client::read/write     issue one operation and return an OpHandle; the
//                          operation resolves with a typed OpOutcome.
//   Client::session_read   closed-loop entry point: operations against the
//                          same process serialize FIFO (a process serves one
//                          client operation at a time), which is what makes
//                          latency grow with client count under load. The
//                          closed loop itself (issue, await resolution,
//                          think, repeat) is workload::SessionLoop.
//
// Determinism contract (see docs/ARCHITECTURE.md): a Client draws randomness
// only from the run's one sim::Rng (retry re-targeting, session targeting),
// so a (config, seed) pair fully determines every record. OpRecords live in
// fixed-size chunks owned by the Client — OpHandles are non-owning views
// that stay valid for the Client's lifetime and are never invalidated by
// later operations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "churn/system.h"
#include "consistency/history.h"
#include "dynreg/operation.h"
#include "dynreg/register_node.h"
#include "sim/simulation.h"

namespace dynreg::client {

/// Re-issue policy for failed attempts (dropped on departure or timed out).
/// A retried read re-targets a uniformly random active process when its
/// original target is gone; a retried write stays pinned to its writer (and
/// resolves as dropped if the writer left). Each attempt opens a fresh
/// history interval — the failed attempt's interval stays open, which the
/// checkers already treat correctly (concurrent with everything after it).
struct RetryPolicy {
  /// Total attempts allowed, first issue included; 1 means no retry.
  std::uint32_t max_attempts = 1;
  /// Delay between a failed attempt and its re-issue (the base delay under
  /// exponential backoff).
  sim::Duration backoff = 0;
  /// Exponential backoff with deterministic jitter: the k-th retry waits
  /// backoff * 2^min(k-1, 5) plus a jitter in [0, backoff) hashed purely
  /// from (run seed, op id, attempt). The jitter consumes no Rng draw, so
  /// it is invisible to the record/replay streams and retries of different
  /// operations still decorrelate (no retry convoys after a partition
  /// heals). false keeps the historical fixed backoff byte-identically.
  bool exponential = false;
};

struct OpOptions {
  /// Resolve the operation as kTimedOut if it has not resolved this many
  /// ticks after an attempt is issued. The protocol-side operation keeps
  /// running; a late completion is discarded by the client (exactly-once
  /// resolution).
  std::optional<sim::Duration> deadline;
  RetryPolicy retry;
};

class OpHandle;

/// Fires when an operation resolves (any outcome), after metrics/history
/// are recorded. InlineTask-style move-only callable.
using OpHook = sim::InlineFunction<void(const OpHandle&)>;

/// One operation's full client-side record.
struct OpRecord {
  /// Marker for `station`: the op does not occupy a session FIFO.
  static constexpr sim::ProcessId kNoStation = ~sim::ProcessId{0};
  /// Marker for `next_in_station` (and the Client's station ends): no op.
  static constexpr std::uint32_t kNoOp = ~std::uint32_t{0};

  OpId id = 0;
  OpType type = OpType::kRead;
  sim::ProcessId target = 0;
  /// Written value (writes, from issue) / read value (reads, once kOk).
  Value value = kBottom;
  /// Client-perceived invocation time — session queue wait included.
  sim::Time invoked_at = 0;
  sim::Time responded_at = 0;  ///< set when resolved
  OpOutcome outcome = OpOutcome::kOk;
  std::uint32_t attempts = 0;  ///< attempts dispatched so far
  bool resolved = false;
  bool attempt_open = false;  ///< current attempt still awaiting the node
  bool session = false;  ///< issued via session_read: dispatch through stations
  sim::ProcessId station = kNoStation;  ///< station FIFO this attempt occupies
  OpOptions options;
  consistency::OpId history_op = 0;  ///< current attempt's history record
  std::uint32_t next_in_station = kNoOp;  ///< the op queued behind this one
  OpHook on_resolved;
};
// Every issued operation keeps its record for the Client's lifetime; the
// station link fits in padding, so the FIFO costs no record space.
static_assert(sizeof(OpRecord) <= 176, "OpRecord grew");

/// Non-owning view of an OpRecord; valid for the issuing Client's lifetime.
/// [[nodiscard]]: a dropped handle is a leaked operation result (issue sites
/// that intentionally fire-and-forget cast to void and say why).
class [[nodiscard]] OpHandle {
 public:
  OpHandle() = default;

  [[nodiscard]] bool valid() const { return rec_ != nullptr; }
  [[nodiscard]] OpId id() const { return rec_->id; }
  [[nodiscard]] OpType type() const { return rec_->type; }
  /// Whether the operation has resolved; outcome()/responded_at() are only
  /// meaningful afterwards. Operations pending at the run horizon never
  /// resolve.
  [[nodiscard]] bool resolved() const { return rec_->resolved; }
  [[nodiscard]] OpOutcome outcome() const { return rec_->outcome; }
  [[nodiscard]] sim::Time invoked_at() const { return rec_->invoked_at; }
  [[nodiscard]] sim::Time responded_at() const { return rec_->responded_at; }
  /// Written value; for reads, the value returned (kOk resolutions only).
  [[nodiscard]] Value value() const { return rec_->value; }
  [[nodiscard]] std::uint32_t attempts() const { return rec_->attempts; }

 private:
  friend class Client;
  explicit OpHandle(const OpRecord* rec) : rec_(rec) {}
  const OpRecord* rec_ = nullptr;
};

/// Operation counters and latency samples, harvested by the experiment
/// harness into its MetricsReport after the run. Latency samples are the
/// client-perceived invoke-to-response times of kOk resolutions, in
/// resolution order. Dropped/timed-out counters count failed *attempts*.
struct OpStats {
  std::uint64_t reads_issued = 0;
  std::uint64_t reads_completed = 0;
  std::uint64_t reads_of_bottom = 0;
  std::uint64_t writes_issued = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t reads_dropped = 0;
  std::uint64_t writes_dropped = 0;
  std::uint64_t reads_timed_out = 0;
  std::uint64_t writes_timed_out = 0;
  std::uint64_t retries = 0;
  std::vector<double> read_latencies;
  std::vector<double> write_latencies;
};

/// Replaces the rng draw in Client::random_active — the trace replayer's
/// view of target selection (src/replay/replayer.h). Consulted only when at
/// least one process is active; must return one of `actives`.
class TargetChooser {
 public:
  virtual ~TargetChooser() = default;
  virtual sim::ProcessId choose_target(sim::Time now,
                                       const std::vector<sim::ProcessId>& actives) = 0;
};

/// Observes every target selection random_active makes — the trace
/// recorder's view (src/replay/recorder.h).
class TargetObserver {
 public:
  virtual ~TargetObserver() = default;
  virtual void on_target(sim::Time now, sim::ProcessId chosen) = 0;
};

class Client {
 public:
  /// `horizon` bounds retries (no attempt is re-issued at or after it);
  /// pass the run duration. History completions and metrics are recorded
  /// for every resolution, whenever it happens.
  Client(sim::Simulation& sim, churn::System& system, consistency::History& history,
         sim::Time horizon);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// The target's register node, or nullptr if it is not in the system.
  RegisterNode* node(sim::ProcessId id);

  /// Issues one read against `target`. If the target is not in the system
  /// the operation resolves immediately as kDroppedOnDeparture (without
  /// counting as issued — nothing was put on the wire).
  OpHandle read(sim::ProcessId target, OpOptions options = {}, OpHook done = {});

  /// Issues one write of `v` against `target`.
  OpHandle write(sim::ProcessId target, Value v, OpOptions options = {},
                 OpHook done = {});

  /// Closed-loop entry point: like read(), but operations against the same
  /// target serialize FIFO — the op waits until the target's previous
  /// session op resolves. Queue wait counts toward the op's latency. A
  /// retried session read re-enters the FIFO of its new target, so the
  /// one-client-op-per-process invariant holds across retries.
  OpHandle session_read(sim::ProcessId target, OpOptions options = {},
                        OpHook done = {});

  /// Closed-loop write: like write(), but serialized through the target's
  /// session FIFO exactly as session_read — the shard layer's write path,
  /// where every keyed write funnels to the shard's designated writer and
  /// the FIFO is what makes aggregate write throughput scale with shard
  /// count (one serialized writer per shard).
  OpHandle session_write(sim::ProcessId target, Value v, OpOptions options = {},
                         OpHook done = {});

  /// A uniformly random active process (one rng draw), or nullopt when no
  /// process is active — the one selection routine every traffic source
  /// (open-loop ticks, sessions, retry re-targeting) shares, so their RNG
  /// draw sequences stay identical by construction.
  std::optional<sim::ProcessId> random_active();

  /// The workload's write-value sequence (1, 2, 3, ...).
  Value next_value() { return next_value_++; }

  /// Installs a non-owning chooser/observer for random_active (nullptr to
  /// clear). Configuration-time only; must outlive the run. With a chooser
  /// installed random_active draws nothing from the rng.
  void set_target_chooser(TargetChooser* chooser) { chooser_ = chooser; }
  void set_target_observer(TargetObserver* observer) { target_observer_ = observer; }

  OpStats& stats() { return stats_; }

 private:
  /// One process's session FIFO, threaded through OpRecord::next_in_station.
  /// The head is the op in service (or about to be pumped); empty when idle.
  struct Station {
    std::uint32_t head = OpRecord::kNoOp;
    std::uint32_t tail = OpRecord::kNoOp;
  };

  /// Records per chunk: ids index chunks directly and a record never moves.
  static constexpr std::size_t kChunk = 32;
  OpRecord& record(OpId id) { return chunks_[id / kChunk][id % kChunk]; }

  /// Delay before the next retry of `rec` (its attempts count has already
  /// been charged for the failed attempt).
  [[nodiscard]] sim::Duration retry_delay(const OpRecord& rec) const;
  OpRecord& new_record(OpType type, sim::ProcessId target, OpOptions options,
                       OpHook done);
  void enqueue_session(OpRecord& rec);
  void start_attempt(OpRecord& rec);
  void on_node_completion(OpId id, std::uint32_t attempt, OpOutcome outcome, Value v);
  void on_deadline(OpId id, std::uint32_t attempt);
  void finish_attempt(OpRecord& rec, OpOutcome outcome, Value v);
  void retry_attempt(OpId id, std::uint32_t attempt);
  void resolve(OpRecord& rec, OpOutcome outcome);
  void release_station(sim::ProcessId target);

  sim::Simulation& sim_;
  churn::System& system_;
  consistency::History& history_;
  sim::Time horizon_;

  std::vector<std::unique_ptr<OpRecord[]>> chunks_;
  OpId next_id_ = 0;
  std::vector<Station> stations_;  // indexed by process id (dense, never reused)
  Value next_value_ = 1;
  TargetChooser* chooser_ = nullptr;          // non-owning
  TargetObserver* target_observer_ = nullptr;  // non-owning
  OpStats stats_;
};

}  // namespace dynreg::client
