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
//
// The liveness bits are an id-indexed bitmap, so a process costs the group
// one bit here and no allocation of its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/network.h"
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

 private:
  // The node's base sends through the group's network.
  friend class Node;
  [[nodiscard]] net::Network& network() { return net_; }

  static std::uint64_t bit(sim::ProcessId id) { return std::uint64_t{1} << (id % 64); }

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
};

}  // namespace dynreg::node
