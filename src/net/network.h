// Point-to-point + broadcast message transport over the simulation clock.
//
// Delivery semantics mirror the paper's dynamic-system model:
//  - a broadcast reaches the processes attached at send time (a process that
//    joins later does not see earlier broadcasts);
//  - a message to a process that departed before delivery is dropped — this
//    is how churn manifests as lost replies;
//  - the sender does not receive its own broadcast (protocol nodes account
//    for their local state directly).
//
// Dispatch is O(1): processes live in a dense vector indexed by ProcessId
// (ids are assigned densely by the churn system), with an attached flag and
// a generation counter per slot instead of a tree-backed map. Broadcast
// fan-out walks the vector in id order — the same deterministic order the
// previous std::map gave. Per-delivery metrics are keyed on interned
// PayloadTypeId tags; the string-keyed view is materialized only on demand.
//
// Every broadcast takes one path: the installed Disseminator (flat by
// default) plans each copy's arrival offset, drawing the per-copy verdicts
// in its fixed edge order, and the network then queues ONE event per
// distinct arrival tick rather than one per copy. The surviving copies are
// grouped by offset with a stable counting sort (ties keep recipient /
// tree-position order) into an arena block — payload, logical sender,
// recipient ids — owned by that event. Delivery walks the block and runs
// every per-copy step in order: the departed-receiver check, the fault
// hook's transform, the per-type counter, and the audit fold (each copy
// after the first also folds its own (time, dispatch number), as
// Simulation::step does for a queued event). This is the per-copy design's
// order exactly: the copies one broadcast lands at tick t were pushed in one
// synchronous burst, so they were adjacent in that tick's FIFO, and anything
// a handler schedules lands after the group either way. Point-to-point
// sends stay one inline event each.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/delay_model.h"
#include "net/disseminator.h"
#include "net/fault_hook.h"
#include "net/payload.h"
#include "sim/inline_function.h"
#include "sim/simulation.h"

namespace dynreg::net {

class Network {
 public:
  /// Per-process delivery callback, invoked once per delivered copy — a hot
  /// path, hence InlineFunction (the attach lambdas capture one node
  /// pointer, far inside the inline budget; see sim/inline_function.h).
  using Handler = sim::InlineFunction<void(sim::ProcessId from, const Payload& payload)>;

  Network(sim::Simulation& sim, std::unique_ptr<DelayModel> delays)
      : sim_(sim),
        delays_(std::move(delays)),
        disseminator_(std::make_unique<FlatDisseminator>()) {}

  /// Registers a process. Messages are delivered only to attached processes.
  void attach(sim::ProcessId id, Handler handler);

  /// Deregisters a process; in-flight messages towards it are dropped at
  /// their delivery time.
  void detach(sim::ProcessId id);

  bool attached(sim::ProcessId id) const {
    return id < slots_.size() && slots_[id].attached;
  }

  /// Times the slot has been attached or detached; lets tests and debugging
  /// distinguish incarnations of a reused id. (Delivery deliberately does
  /// not check it: a message is delivered to whoever holds the id at
  /// delivery time, exactly as with the previous map-based dispatch.)
  std::uint32_t generation(sim::ProcessId id) const {
    return id < slots_.size() ? slots_[id].generation : 0;
  }

  void send(sim::ProcessId from, sim::ProcessId to, PayloadPtr payload);

  /// Sends one copy to every currently attached process except `from`.
  void broadcast(sim::ProcessId from, PayloadPtr payload);

  /// Installs the fan-out planner for broadcast() (FlatDisseminator until
  /// replaced; nullptr restores it).
  void set_disseminator(std::unique_ptr<Disseminator> d);
  [[nodiscard]] const Disseminator* disseminator() const {
    return disseminator_.get();
  }

  /// The fate of one copy on one physical edge.
  struct Hop {
    bool lost = false;
    sim::Duration delay = 0;  ///< >= 1; meaningful when !lost
  };

  /// Draws the verdict for the physical edge (hop_from -> to): a partition
  /// cut (checked first, consuming no Rng draw), else the delay model's
  /// loss/delay verdict. Counts the copy in Stats; schedules nothing. Every
  /// copy a run sends, point-to-point or relayed, is decided here.
  Hop hop_verdict(sim::ProcessId hop_from, sim::ProcessId to, const Payload& payload);

  /// Fraction of message copies silently lost (omission faults). Loss is
  /// decided at send time with the simulation RNG.
  void set_loss_rate(double rate) { loss_rate_ = rate; }

  /// Installs the injected-fault seam (partition cuts + Byzantine delivery
  /// transforms; see net/fault_hook.h). nullptr (the default) is the
  /// zero-overhead fault-free path. Non-owning: the hook must outlive the
  /// simulation's in-flight deliveries.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }

  struct Stats {
    std::uint64_t sent = 0;            // copies handed to the delay model
    std::uint64_t delivered = 0;       // copies that reached a handler
    std::uint64_t dropped_departed = 0;  // receiver left before delivery
    std::uint64_t dropped_loss = 0;      // omission faults
    std::uint64_t dropped_partition = 0;  // copies cut by FaultHook::link_cut
    std::uint64_t transformed = 0;        // deliveries rewritten by the hook
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Delivered copies per payload type tag, materialized from the interned
  /// per-id counters. Report-time only; the hot path never builds strings.
  std::map<std::string, std::uint64_t> delivered_by_type() const;

 private:
  struct Slot {
    Handler handler;
    std::uint32_t generation = 0;
    bool attached = false;
  };

  // The copies of one broadcast that arrive at the same tick, in dispatch
  // order: header plus `count` trailing recipient ids, one arena block.
  struct Batch {
    PayloadPtr payload;
    sim::ProcessId from = 0;
    std::uint32_t count = 0;
    sim::ProcessId* ids() { return reinterpret_cast<sim::ProcessId*>(this + 1); }
  };
  // The queued event's ownership of its block. The arena outlives the event
  // queue, so a batch still queued at teardown is released safely.
  struct BatchDeleter {
    sim::Arena* arena;
    void operator()(Batch* b) const noexcept {
      b->~Batch();
      arena->deallocate(b);
    }
  };
  using BatchPtr = std::unique_ptr<Batch, BatchDeleter>;

  /// Queues the broadcast planned in arrivals_scratch_ as one batch per
  /// distinct arrival offset.
  void schedule_batches(sim::ProcessId from, const PayloadPtr& payload);
  BatchPtr make_batch(sim::ProcessId from, const PayloadPtr& payload,
                      const std::uint32_t* positions, std::uint32_t count);
  void deliver_batch(Batch& batch);
  /// One copy's delivery: departed check, transform, counters, audit, handler.
  void deliver(sim::ProcessId from, sim::ProcessId to, const PayloadPtr& payload);

  sim::Simulation& sim_;
  std::unique_ptr<DelayModel> delays_;
  std::unique_ptr<Disseminator> disseminator_;
  FaultHook* fault_hook_ = nullptr;  // nullptr = fault-free
  // Broadcast scratch, reused: recipients, their planned arrival offsets,
  // and the counting sort's per-offset counts and grouped positions.
  std::vector<sim::ProcessId> recipients_scratch_;
  std::vector<sim::Duration> arrivals_scratch_;
  std::vector<std::uint32_t> counts_scratch_;
  std::vector<std::uint32_t> order_scratch_;
  std::vector<Slot> slots_;  // dense, indexed by ProcessId
  // Sorted live membership: broadcast fan-out walks this, so its cost
  // follows the active set, not the cumulative id space of a churning run.
  std::vector<sim::ProcessId> attached_ids_;
  double loss_rate_ = 0.0;
  Stats stats_;
  std::vector<std::uint64_t> delivered_by_type_id_;  // indexed by PayloadTypeId
};

}  // namespace dynreg::net
