// Per-group capability handle: the network, timers, activation and the
// simulation's arena, shared by every process of one membership group.
//
// churn::System owns one Context and hands it to each node it builds; a node
// reaches it through node::Node, which keeps a pointer to it beside its id.
// Everything a node does to the world beyond sending goes through here, with
// the node's id as the first argument where it matters:
//
//  - schedule_after(id, d, fn) queues fn with (this, id) captured; when it
//    fires it runs fn only if id is still live. System::leave clears the
//    bit before the node's on_departure() runs, so a timer set by a process
//    that has since been churned out fires into nothing instead of into
//    freed memory. Ids are never reused, so a later join cannot revive it.
//  - notify_active(id) runs the group's one activation hook (the System's
//    bookkeeping) for a live id.
//  - config<T>() is the group's protocol constants (an EsConfig, SyncConfig
//    or AbdConfig), bound once by the factory that builds the group's nodes,
//    so no node keeps a copy or a pointer of its own.
//  - payloads_built() counts the payload objects the group's nodes built,
//    a deterministic work counter (harness::MetricsReport::payloads_built).
//
// The liveness bits are an id-indexed bitmap, so a process costs the group
// one bit here and no allocation of its own.
//
// The payload memo. A protocol's replies and acks carry only the replier's
// state, so once a group is quiescent every member answers a read, a write
// or an inquiry with the same bytes. shared_payload<T>(args...) keeps the
// last point-to-point payload the group built and hands it out again while
// the next one is equal field by field (T's operator==: the tag, the id,
// and for a Stamped record ts.sn, ts.writer, value and has_value); any
// change builds a new one. Node::reply sends every reply and ack through
// it. The recipients of one broadcast batch answer it in sequence, so one
// entry catches their run of equal replies, and a coalesced spill stores
// them as one run (net/network.h). Payloads are immutable and a Byzantine
// transform builds its own replacement, so sharing one object between
// copies is invisible to every receiver.
//
// The memo lives here, one per group, and not in a thread-local: it must
// not outlive the simulation whose copies still point at it. Its payload is
// built in the simulation's block pool (Simulation::blocks), not in its
// arena: an arena chunk is recycled only when every object in it is dead
// (sim/arena.h), so a memoised payload that stays current for a whole run
// would pin its 64 KiB chunk in every group, while in the pool it holds one
// 64 B block. Nor is it a plain heap object: every reply that misses the
// memo builds one, and a pool block costs a pointer pop where a heap
// payload costs a malloc and a free (BM_NetworkFanIn, where every reply
// misses).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/network.h"
#include "net/payload.h"
#include "sim/inline_function.h"
#include "sim/simulation.h"

namespace dynreg::node {

class Context {
 public:
  using ActivationHook = sim::InlineFunction<void(sim::ProcessId)>;

  Context(sim::Simulation& sim, net::Network& net, ActivationHook on_active)
      : sim_(sim), net_(net), on_active_(std::move(on_active)) {}
  // Queued timers hold a pointer to the context: it never moves.
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// Schedules fn after d ticks on behalf of process `id`; silently
  /// cancelled if the process leaves first. Templated so the liveness
  /// wrapper stays within the scheduler's inline capture budget instead of
  /// forcing a std::function allocation per timer.
  template <typename F>
  void schedule_after(sim::ProcessId id, sim::Duration d, F fn) {
    sim_.schedule_after(d, [this, id, fn = std::move(fn)]() mutable {
      if (live(id)) fn();
    });
  }

  /// The simulation's epoch arena, for pending-operation node containers
  /// (see sim/arena.h for the lifetime contract).
  [[nodiscard]] sim::Arena& arena() { return sim_.arena(); }

  /// Called by process `id` when its join protocol completes and it becomes
  /// an active replica (initial nodes call it on construction).
  void notify_active(sim::ProcessId id) {
    if (live(id) && on_active_) on_active_(id);
  }

  /// Binds the group's protocol constants. A node factory binds them before
  /// each build; binding the object already bound is a pointer compare.
  template <typename Config>
  void bind_config(const std::shared_ptr<const Config>& config) {
    if (config_ != config) config_ = config;
  }

  /// The bound protocol constants; `Config` is the type that was bound.
  template <typename Config>
  [[nodiscard]] const Config& config() const {
    return *static_cast<const Config*>(config_.get());
  }

  /// System calls this before it builds the node for `id`, so the node's
  /// constructor may already schedule timers and notify activation.
  void admit(sim::ProcessId id) {
    const std::size_t word = id / 64;
    if (word >= live_.size()) live_.resize(word + 1, 0);
    live_[word] |= bit(id);
  }

  /// Makes room for the liveness bits of ids [0, n) without reallocating.
  void reserve(std::size_t n) { live_.reserve((n + 63) / 64); }

  /// System calls this when `id` departs; cancels all its pending timers.
  void retire(sim::ProcessId id) { live_[id / 64] &= ~bit(id); }

  /// Payload objects the group's nodes have built so far.
  [[nodiscard]] std::uint64_t payloads_built() const { return payloads_built_; }

  /// The payload T(args...): the memoised one when it is equal to the last
  /// payload built here, else a new pooled payload that becomes the memo.
  template <typename T, typename... Args>
  const net::PayloadPtr& shared_payload(Args&&... args) {
    const T fresh(std::forward<Args>(args)...);
    if (memo_shape_ != &kShape<T> || !(static_cast<const T&>(*memo_) == fresh)) {
      memo_ = std::allocate_shared<T>(sim::BlockAllocator<T>(sim_.blocks()), fresh);
      memo_shape_ = &kShape<T>;
      ++payloads_built_;
    }
    return memo_;
  }

 private:
  // The node's base sends through the group's network.
  friend class Node;
  [[nodiscard]] net::Network& network() { return net_; }

  /// Builds a payload in the simulation's epoch arena, counting it.
  template <typename T, typename... Args>
  net::PayloadPtr make_payload(Args&&... args) {
    ++payloads_built_;
    return net::make_payload_in<T>(sim_.arena(), std::forward<Args>(args)...);
  }

  static std::uint64_t bit(sim::ProcessId id) { return std::uint64_t{1} << (id % 64); }

  // One address per payload shape: names the memo's concrete type.
  template <typename T>
  static constexpr char kShape = 0;

  /// Whether `id` has been admitted and has not left.
  [[nodiscard]] bool live(sim::ProcessId id) const {
    const std::size_t word = id / 64;
    return word < live_.size() && (live_[word] & bit(id)) != 0;
  }

  sim::Simulation& sim_;
  net::Network& net_;
  ActivationHook on_active_;
  std::vector<std::uint64_t> live_;  // liveness bitmap: bit id % 64 of word id / 64
  std::shared_ptr<const void> config_;  // the group's protocol constants
  std::uint64_t payloads_built_ = 0;
  net::PayloadPtr memo_;             // the last payload shared_payload built
  const char* memo_shape_ = nullptr;  // &kShape<T> of memo_'s type T
};

}  // namespace dynreg::node
