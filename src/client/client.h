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
// Memory scales with the operations in flight, not with those issued. All
// an operation holds — its value, times, attempts, type, outcome and op id,
// and what only an unresolved operation needs (target, session station
// link, open attempt, history record, options, resolution hook) — lives in
// one Flight: a slot of an address-stable slab taken at issue and returned
// to a LIFO free list at the end of resolution, after the hook has run and
// the session station has been released. A freed slot's op id is cleared,
// and a reused one holds a later op's id, so callbacks that can fire after
// resolution (late completions, deadlines, retries) carry (slot, op id,
// attempt) and act only while the slot still holds their op. An OpHandle is
// a view of the slot plus the op id: it reads the op's fields until its
// hook returns, and afterwards only valid() and id().
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

/// One operation's slot in its Client's flight slab: the op's result
/// fields, read through OpHandle, and what the Client needs until the op
/// resolves. Only Client writes it; it is defined here so that OpHandle can
/// read it.
struct Flight {
  /// Marker for slot links (`next_in_station`, the Client's station ends):
  /// no slot.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  /// Marker for `station`: the op does not occupy a session FIFO.
  static constexpr sim::ProcessId kNoStation = ~sim::ProcessId{0};
  /// `id` of a free slot.
  static constexpr OpId kNoOp = ~OpId{0};

  OpHook on_resolved;
  OpOptions options;
  OpId id = kNoOp;  ///< the op this slot holds; kNoOp while free
  /// Written value (writes, from issue) / read value (reads, once kOk).
  Value value = kBottom;
  /// Client-perceived invocation time — session queue wait included.
  sim::Time invoked_at = 0;
  /// Until `resolved`, the current attempt's history record; from then on,
  /// the response time. Nothing reads the record after resolution, and the
  /// response time is unset until then, so the two share one word.
  std::uint64_t history_op_or_responded_at = 0;
  sim::ProcessId target = 0;
  sim::ProcessId station = kNoStation;  ///< station FIFO this attempt occupies
  std::uint32_t next_in_station = kNoSlot;  ///< slot of the op queued behind this one
  std::uint32_t attempts = 0;  ///< attempts dispatched so far
  OpType type = OpType::kRead;
  OpOutcome outcome = OpOutcome::kOk;
  bool resolved = false;
  bool attempt_open = false;  ///< current attempt still awaiting the node
  bool session = false;  ///< issued via session_read/write: dispatch through stations
};
static_assert(sizeof(Flight) == 160, "Flight grew");

/// A view of one operation's flight slot, plus its op id. It reads the op's
/// fields from issue until the op's resolution hook returns; the slot is
/// then retired and may hold a later op. valid() and id() stay safe on a
/// retired handle, and every other accessor aborts with a message, so a
/// handle never reads another op's fields. An op pending at the run horizon
/// never resolves, and its handle stays readable for the Client's lifetime.
/// [[nodiscard]]: a dropped handle is a leaked operation result (issue sites
/// that intentionally fire-and-forget cast to void and say why).
class [[nodiscard]] OpHandle {
 public:
  OpHandle() = default;

  /// Whether an operation was issued (a default handle names none).
  [[nodiscard]] bool valid() const { return slot_ != nullptr; }
  [[nodiscard]] OpId id() const { return id_; }
  [[nodiscard]] OpType type() const { return live().type; }
  /// Whether the operation has resolved; outcome()/responded_at() are only
  /// meaningful afterwards.
  [[nodiscard]] bool resolved() const { return live().resolved; }
  [[nodiscard]] OpOutcome outcome() const { return live().outcome; }
  [[nodiscard]] sim::Time invoked_at() const { return live().invoked_at; }
  /// The response time once resolved; 0 before.
  [[nodiscard]] sim::Time responded_at() const {
    const Flight& f = live();
    return f.resolved ? f.history_op_or_responded_at : 0;
  }
  /// Written value; for reads, the value returned (kOk resolutions only).
  [[nodiscard]] Value value() const { return live().value; }
  [[nodiscard]] std::uint32_t attempts() const { return live().attempts; }

 private:
  friend class Client;
  OpHandle(const Flight* slot, OpId id) : slot_(slot), id_(id) {}
  /// The slot, while it still holds this handle's op; aborts otherwise.
  [[nodiscard]] const Flight& live() const {
    if (slot_->id != id_) retired();
    return *slot_;
  }
  [[noreturn]] void retired() const;

  const Flight* slot_ = nullptr;
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

  /// The target's register node, or nullptr if it is not in the system or
  /// is not a register node. Walks no RTTI (node::Node::as_register).
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

  /// Operations issued, one op id each.
  [[nodiscard]] std::uint64_t op_records() const { return next_id_; }
  /// Bytes of flight-slab storage held: every slot chunk, free slots
  /// included. The Client holds nothing else per operation.
  [[nodiscard]] std::size_t flight_bytes() const {
    return flight_chunks_.size() * kChunk * sizeof(Flight);
  }
  /// High-water mark of unresolved operations. An operation counts from its
  /// issue until resolve() has run its hook and released its station. A
  /// flight slot is created only when every existing one is taken, so this
  /// is the slab's slot count.
  [[nodiscard]] std::uint32_t flights_peak() const { return flight_slots_; }

 private:
  /// One process's session FIFO of flight slots, threaded through
  /// Flight::next_in_station. The head is the op in service (or about to be
  /// pumped); empty when idle.
  struct Station {
    std::uint32_t head = Flight::kNoSlot;
    std::uint32_t tail = Flight::kNoSlot;
  };

  /// Flights per chunk. Slot numbers index the chunks; a slot never moves.
  static constexpr std::size_t kChunk = 32;
  Flight& flight_at(std::uint32_t slot) {
    return flight_chunks_[slot / kChunk][slot % kChunk];
  }
  /// The flight at `slot` while it holds op `id` unresolved, else nullptr:
  /// the op has resolved, and its slot may be free or hold a later op.
  Flight* pending(std::uint32_t slot, OpId id) {
    Flight& f = flight_at(slot);
    return f.id == id && !f.resolved ? &f : nullptr;
  }

  /// Delay before the next retry of `f` under its retry policy (its
  /// attempts count has already been charged for the failed attempt).
  [[nodiscard]] sim::Duration retry_delay(const Flight& f) const;
  /// Takes a flight slot for the next op id and fills it; returns the slot.
  std::uint32_t new_flight(OpType type, Value v, sim::ProcessId target, bool session,
                           OpOptions options, OpHook done);
  /// Issues the op in `slot`: directly, or through its target's station.
  OpHandle issue(std::uint32_t slot);
  void enqueue_session(std::uint32_t slot);
  void start_attempt(std::uint32_t slot);
  void on_node_completion(std::uint32_t slot, OpId id, std::uint32_t attempt,
                          OpOutcome outcome, Value v);
  void on_deadline(std::uint32_t slot, OpId id, std::uint32_t attempt);
  void finish_attempt(std::uint32_t slot, OpOutcome outcome, Value v);
  void retry_attempt(std::uint32_t slot, OpId id, std::uint32_t attempt);
  void resolve(std::uint32_t slot, OpOutcome outcome);
  /// Pops `head`, the flight of the op in service at `target`'s station.
  void release_station(sim::ProcessId target, const Flight& head);

  /// Lets tests start the op-id counter where they need it.
  friend struct ClientTestPeer;

  sim::Simulation& sim_;
  churn::System& system_;
  consistency::History& history_;
  sim::Time horizon_;

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
