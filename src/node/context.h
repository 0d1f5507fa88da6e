// Per-node capability handle: timers, activation and the simulation's clock,
// RNG and arena.
//
// A node sends through its own network handle (node::Node::send/broadcast,
// set from this context at construction), so the per-copy reply path never
// loads the context. Everything else a node does to the world goes through
// here. The context guards scheduled callbacks with a liveness token so that
// a timer set by a node that has since been churned out fires into nothing
// instead of into freed memory.
#pragma once

#include <memory>
#include <utility>

#include "net/network.h"
#include "sim/inline_task.h"
#include "sim/simulation.h"

namespace dynreg::node {

class Context {
 public:
  Context(sim::Simulation& sim, net::Network& net, sim::ProcessId id,
          sim::InlineTask on_active)
      : sim_(sim),
        net_(net),
        id_(id),
        on_active_(std::move(on_active)),
        alive_(std::make_shared<bool>(true)) {}

  [[nodiscard]] sim::Time now() const { return sim_.now(); }
  [[nodiscard]] sim::ProcessId id() const { return id_; }
  sim::Rng& rng() { return sim_.rng(); }

  /// Schedules fn after d ticks; silently cancelled if the node leaves first.
  /// Templated so the liveness wrapper stays within the scheduler's inline
  /// capture budget instead of forcing a std::function allocation per timer.
  template <typename F>
  void schedule_after(sim::Duration d, F fn) {
    sim_.schedule_after(d, [alive = alive_, fn = std::move(fn)]() mutable {
      if (*alive) fn();
    });
  }

  /// The simulation's epoch arena, for pending-operation node containers
  /// (see sim/arena.h for the lifetime contract).
  [[nodiscard]] sim::Arena& arena() { return sim_.arena(); }

  /// Called by the node when its join protocol completes and it becomes an
  /// active replica (initial nodes call it on construction).
  void notify_active() {
    if (on_active_) on_active_();
  }

  /// System calls this when the node departs; cancels all pending timers.
  void invalidate() { *alive_ = false; }

 private:
  // The node's base takes its network handle from here, once.
  friend class Node;
  [[nodiscard]] net::Network& network() { return net_; }

  sim::Simulation& sim_;
  net::Network& net_;
  sim::ProcessId id_;
  sim::InlineTask on_active_;
  std::shared_ptr<bool> alive_;
};

}  // namespace dynreg::node
