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
// so a (config, seed) pair fully determines every record.
//
// Memory scales with the operations in flight, not with those issued. Each
// operation keeps a 32-byte result row (OpRecord: value, times, attempts,
// outcome) for the Client's lifetime, in fixed-size chunks that never move,
// so an OpHandle — a non-owning view of its row, plus the op id, which
// every callback already carries and so no row stores — stays valid for the
// Client's lifetime and is never invalidated by later operations.
// Everything else an operation needs until it resolves (target, session
// station link, open attempt, history record, options, resolution hook)
// lives in a Flight: a slot of an address-stable slab taken at issue and
// returned to a LIFO free list at the end of resolution, after the hook has
// run and the session station has been released. A row's flight slot and
// its response time share one word: the slot is dead once the op resolves,
// and the response time is unset until then. Callbacks that can fire after
// resolution (late completions, deadlines, retries) test the row's
// `resolved` flag before they touch the flight.
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

/// One operation's result row: all an OpHandle reads besides the op id.
/// Every issued operation keeps its row for the Client's lifetime; what
/// only an unresolved operation needs lives in the Client's recycled flight
/// slab.
struct OpRecord {
  /// Written value (writes, from issue) / read value (reads, once kOk).
  Value value = kBottom;
  /// Client-perceived invocation time — session queue wait included.
  sim::Time invoked_at = 0;
  /// Until `resolved`, the op's flight slot; from then on, the response
  /// time. A resolved op's slot may belong to a later op, and nothing reads
  /// it after resolution, so the two share one word.
  std::uint64_t flight_or_responded_at = 0;
  std::uint32_t attempts = 0;  ///< attempts dispatched so far
  OpType type = OpType::kRead;
  OpOutcome outcome = OpOutcome::kOk;
  bool resolved = false;
};
static_assert(sizeof(OpRecord) <= 32, "OpRecord grew");

/// Non-owning view of an OpRecord; valid for the issuing Client's lifetime.
/// [[nodiscard]]: a dropped handle is a leaked operation result (issue sites
/// that intentionally fire-and-forget cast to void and say why).
class [[nodiscard]] OpHandle {
 public:
  OpHandle() = default;

  [[nodiscard]] bool valid() const { return rec_ != nullptr; }
  [[nodiscard]] OpId id() const { return id_; }
  [[nodiscard]] OpType type() const { return rec_->type; }
  /// Whether the operation has resolved; outcome()/responded_at() are only
  /// meaningful afterwards. Operations pending at the run horizon never
  /// resolve.
  [[nodiscard]] bool resolved() const { return rec_->resolved; }
  [[nodiscard]] OpOutcome outcome() const { return rec_->outcome; }
  [[nodiscard]] sim::Time invoked_at() const { return rec_->invoked_at; }
  /// The response time once resolved; 0 before.
  [[nodiscard]] sim::Time responded_at() const {
    return rec_->resolved ? rec_->flight_or_responded_at : 0;
  }
  /// Written value; for reads, the value returned (kOk resolutions only).
  [[nodiscard]] Value value() const { return rec_->value; }
  [[nodiscard]] std::uint32_t attempts() const { return rec_->attempts; }

 private:
  friend class Client;
  OpHandle(const OpRecord* rec, OpId id) : rec_(rec), id_(id) {}
  const OpRecord* rec_ = nullptr;
  OpId id_ = 0;
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

  /// Operation records created: one per issued operation, kept for the
  /// Client's lifetime.
  [[nodiscard]] std::uint64_t op_records() const { return next_id_; }
  /// Bytes of result-row storage held: every row chunk, unused rows included.
  [[nodiscard]] std::size_t row_bytes() const {
    return chunks_.size() * kChunk * sizeof(OpRecord);
  }
  /// High-water mark of unresolved operations. An operation counts from its
  /// issue until resolve() has run its hook and released its station. A
  /// flight slot is created only when every existing one is taken, so this
  /// is the slab's slot count.
  [[nodiscard]] std::uint32_t flights_peak() const { return flight_slots_; }

 private:
  /// An unresolved operation's state, in a slot of the flight slab. The
  /// slot is taken at issue and returned at the end of resolve(), with
  /// `station` cleared and no attempt open; new_record sets the rest.
  struct Flight {
    /// Marker for `station`: the op does not occupy a session FIFO.
    static constexpr sim::ProcessId kNoStation = ~sim::ProcessId{0};
    /// Marker for `next_in_station` (and the Client's station ends): no op.
    static constexpr std::uint32_t kNoOp = ~std::uint32_t{0};

    sim::ProcessId target = 0;
    sim::ProcessId station = kNoStation;  ///< station FIFO this attempt occupies
    std::uint32_t next_in_station = kNoOp;  ///< id of the op queued behind this one
    bool attempt_open = false;  ///< current attempt still awaiting the node
    bool session = false;  ///< issued via session_read/write: dispatch through stations
    consistency::OpId history_op = 0;  ///< current attempt's history record
    OpOptions options;
    OpHook on_resolved;
  };
  static_assert(sizeof(Flight) <= 128, "Flight grew");

  /// One process's session FIFO of op ids, threaded through
  /// Flight::next_in_station. The head is the op in service (or about to be
  /// pumped); empty when idle.
  struct Station {
    std::uint32_t head = Flight::kNoOp;
    std::uint32_t tail = Flight::kNoOp;
  };

  /// Records and flights per chunk. Op ids index record chunks directly,
  /// slot numbers index flight chunks; neither kind of entry ever moves.
  static constexpr std::size_t kChunk = 32;
  OpRecord& record(OpId id) { return chunks_[id / kChunk][id % kChunk]; }
  /// The flight of an unresolved `rec`.
  Flight& flight(const OpRecord& rec) { return flight_at(rec.flight_or_responded_at); }
  Flight& flight_at(std::uint64_t slot) {
    return flight_chunks_[slot / kChunk][slot % kChunk];
  }

  /// Delay before the next retry of op `id` under `retry` (its attempts
  /// count has already been charged for the failed attempt).
  [[nodiscard]] sim::Duration retry_delay(OpId id, const OpRecord& rec,
                                          const RetryPolicy& retry) const;
  /// Creates the next op's row and flight; returns its id. Aborts rather
  /// than hand out Flight::kNoOp, which session FIFOs read as "no op".
  OpId new_record(OpType type, sim::ProcessId target, bool session, OpOptions options,
                  OpHook done);
  void enqueue_session(OpId id);
  void start_attempt(OpId id);
  void on_node_completion(OpId id, std::uint32_t attempt, OpOutcome outcome, Value v);
  void on_deadline(OpId id, std::uint32_t attempt);
  void finish_attempt(OpId id, OpOutcome outcome, Value v);
  void retry_attempt(OpId id, std::uint32_t attempt);
  void resolve(OpId id, OpOutcome outcome);
  /// Pops `head`, the flight of the op in service at `target`'s station.
  void release_station(sim::ProcessId target, const Flight& head);

  /// Lets tests start the op-id counter near its limit.
  friend struct ClientTestPeer;

  sim::Simulation& sim_;
  churn::System& system_;
  consistency::History& history_;
  sim::Time horizon_;

  std::vector<std::unique_ptr<OpRecord[]>> chunks_;
  OpId next_id_ = 0;
  std::vector<std::unique_ptr<Flight[]>> flight_chunks_;
  std::uint32_t flight_slots_ = 0;  // slots created
  std::vector<std::uint32_t> free_flights_;  // LIFO: the last slot returned is reused first
  std::vector<Station> stations_;  // indexed by process id (dense, never reused)
  Value next_value_ = 1;
  TargetChooser* chooser_ = nullptr;          // non-owning
  TargetObserver* target_observer_ = nullptr;  // non-owning
  OpStats stats_;
};

}  // namespace dynreg::client
