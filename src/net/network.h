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
// (ids are assigned densely by the churn system). Each 16-byte slot holds a
// non-owning Receiver* (net/receiver.h; a protocol node is one) and a
// generation counter; a null receiver means detached. Broadcast fan-out
// walks the sorted live membership in id order, so the RNG draw sequence is
// fixed. Per-delivery metrics are keyed on interned PayloadTypeId tags; the
// string-keyed view is materialized only on demand.
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
// a receiver schedules lands after the group either way.
//
// A point-to-point send is one inline queued event (Unicast) — except while
// a broadcast batch of at least kCoalesceMinBatch copies is being delivered,
// when the receivers' replies fan in to a few origins. Then a send whose
// arrival tick T already ends with this network's Unicast to the same
// destination (Simulation::newest_as) appends (sender, payload) to that
// event's spill instead of queuing another. Nothing was queued at T in
// between, so the per-copy order is unchanged, and the group delivers its
// copies one by one through deliver(), folding each further copy's dispatch
// into the audit digest as a batch does. Smaller batches, sends outside a
// batch and far-tier arrivals queue one event per copy.
//
// The spill stores runs: consecutive coalesced copies of one payload object
// share one 24 B run header (the payload and a count, with the first
// sender), and each further copy of the run costs its 4 B sender. Protocol
// replies are built through a per-group memo (node/context.h), so the
// replies to one batch are mostly one payload object and a run holds the
// lot; a copy whose payload differs from the one before it opens a run of
// its own at the 24 B a copy cost before runs. A copy that joins the open
// run takes no reference count.
//
// A large batch addresses thousands of receivers scattered over the heap,
// so each copy would otherwise stall on a cache miss at its receiver. While
// delivering copy k, the batch loop prefetches the slot of recipient
// k + kSlotPrefetch and bytes [0, 64) of the receiver object of recipient
// k + kReceiverPrefetch (network.cpp), where a protocol node keeps what its
// handler reads for the bulk message types. The prefetches are hints only:
// every copy still re-reads its slot at delivery time, so a receiver
// detached by an earlier copy's receiver in the same batch is never called,
// and a slot already detached is not prefetched at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/delay_model.h"
#include "net/disseminator.h"
#include "net/fault_hook.h"
#include "net/payload.h"
#include "net/receiver.h"
#include "sim/simulation.h"

namespace dynreg::net {

class Network {
 public:
  /// Smallest broadcast batch during whose delivery point-to-point sends
  /// coalesce (see the file comment). Swept on perfbench, seed 1, 4-vCPU
  /// Xeon VM, reference-scaled wall_s of two 20 s runs per value:
  ///   threshold       parent        16         32         64         128
  ///   quorum_scale    0.69 0.64  0.52 0.47  0.53 0.51  0.49 0.50  0.55 0.53
  ///   fault_search    2.27 2.14  2.27 2.16  2.23 2.28  2.18 2.20  2.43 2.14
  ///   churn_sessions     -       1.40 1.44  1.43 1.35  1.31 1.25     -
  /// fault_search's 15-process batches reach no threshold, so its row is
  /// run-to-run spread. churn_sessions' 64-process sync shards broadcast
  /// 63-copy batches, which coalesce at 16 or 32 and there cost about 8%.
  /// Coalescing every send, in or out of a batch, cost fault_search peak
  /// RSS 11.5 -> 12.9 MiB (+12%).
  static constexpr std::uint32_t kCoalesceMinBatch = 64;

  Network(sim::Simulation& sim, std::unique_ptr<DelayModel> delays)
      : sim_(sim),
        delays_(std::move(delays)),
        disseminator_(std::make_unique<FlatDisseminator>()) {}

  /// Registers a process: copies addressed to `id` go to `receiver` (non-null,
  /// not owned) until the id is detached or attached to another receiver.
  /// The caller keeps `receiver` alive while it is attached.
  void attach(sim::ProcessId id, Receiver* receiver);

  /// Makes room for ids [0, n) without reallocating: the churn system's
  /// bootstrap attaches its initial members in one go.
  void reserve(std::size_t n) {
    slots_.reserve(n);
    attached_ids_.reserve(n);
  }

  /// Deregisters a process; in-flight messages towards it are dropped at
  /// their delivery time.
  void detach(sim::ProcessId id);

  bool attached(sim::ProcessId id) const {
    return id < slots_.size() && slots_[id].receiver != nullptr;
  }

  /// Times the slot has been attached or detached; lets tests and debugging
  /// distinguish incarnations of a reused id. (Delivery deliberately does
  /// not check it: a message is delivered to whoever holds the id at
  /// delivery time, exactly as with the previous map-based dispatch.)
  std::uint32_t generation(sim::ProcessId id) const {
    return id < slots_.size() ? slots_[id].generation : 0;
  }

  /// Sends one copy of `payload` from `from` to `to`. The caller keeps its
  /// reference (a protocol node sends the per-group reply memo), so a copy
  /// that joins a coalesced run takes no reference count.
  void send(sim::ProcessId from, sim::ProcessId to, const PayloadPtr& payload);

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
    std::uint64_t delivered = 0;       // copies that reached a receiver
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
    Receiver* receiver = nullptr;  // null = detached
    std::uint32_t generation = 0;
  };
  static_assert(sizeof(Slot) <= 16, "a slot is one pointer and a generation");

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

  // Consecutive coalesced copies of one payload object: the payload, the
  // number of copies, the first copy's sender, and then the senders of the
  // other count - 1 copies, 4 B each, directly after the header.
  struct Run {
    PayloadPtr payload;
    std::uint32_t count;
    sim::ProcessId from;
    sim::ProcessId* more() { return reinterpret_cast<sim::ProcessId*>(this + 1); }
  };
  static_assert(sizeof(Run) == 24, "a run that opens costs what one copy cost before runs");

  // Copies coalesced behind a Unicast's own, in send order: a chain of arena
  // blocks of 72, 144, ... kSpillMaxBlock bytes of runs, each run aligned to
  // 8 B and constructed in place; the last run of the block being filled is
  // the open one that a further copy of its payload extends. The head block
  // keeps the arena (a queue torn down after its Network must not reach the
  // Network) and the block being filled.
  struct Spill {
    sim::Arena* arena;
    Spill* next;
    Spill* tail;  // head block only
    Run* open;    // the block's last run, nullptr while it has none
    std::uint32_t used;      // bytes of runs written
    std::uint32_t capacity;  // bytes of runs the block can hold
    std::byte* runs() { return reinterpret_cast<std::byte*>(this + 1); }
  };

  // One queued point-to-point delivery: its own copy, delivered inline, and
  // the copies coalesced behind it.
  struct Unicast {
    Network* network;
    sim::ProcessId from;
    sim::ProcessId to;
    PayloadPtr payload;
    Spill* spill = nullptr;

    Unicast(Network* net, sim::ProcessId sender, sim::ProcessId dest, PayloadPtr p)
        : network(net), from(sender), to(dest), payload(std::move(p)) {}
    Unicast(Unicast&& other) noexcept
        : network(other.network),
          from(other.from),
          to(other.to),
          payload(std::move(other.payload)),
          spill(std::exchange(other.spill, nullptr)) {}
    Unicast(const Unicast&) = delete;
    Unicast& operator=(const Unicast&) = delete;
    Unicast& operator=(Unicast&&) = delete;
    ~Unicast() {
      if (spill != nullptr) free_spill(spill);
    }

    void operator()() {
      network->deliver(from, to, payload);
      if (spill != nullptr) network->deliver_spill(to, *spill);
    }
    void append(sim::ProcessId sender, const PayloadPtr& p);
  };

  /// The offset of the run after one of `count` copies starting at `at`.
  static std::uint32_t next_run(std::uint32_t at, std::uint32_t count);
  static void free_spill(Spill* head) noexcept;
  /// The spilled copies' deliveries, each folded as its own dispatch.
  void deliver_spill(sim::ProcessId to, Spill& head);

  /// Queues the broadcast planned in arrivals_scratch_ as one batch per
  /// distinct arrival offset.
  void schedule_batches(sim::ProcessId from, const PayloadPtr& payload);
  BatchPtr make_batch(sim::ProcessId from, const PayloadPtr& payload,
                      const std::uint32_t* positions, std::uint32_t count);
  void deliver_batch(Batch& batch);
  /// One copy's delivery: departed check, transform, counters, audit, receiver.
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
  // Set while deliver_batch() delivers a batch of at least kCoalesceMinBatch
  // copies: send() then appends to a matching Unicast at the arrival tick.
  bool coalescing_ = false;
  Stats stats_;
  std::vector<std::uint64_t> delivered_by_type_id_;  // indexed by PayloadTypeId
};

}  // namespace dynreg::net
