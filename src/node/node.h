// Base class for protocol processes hosted by churn::System. A node is its
// own network receiver: the system attaches it under its id, and the network
// calls on_message (declared by net::Receiver) for every delivered copy.
//
// A node also sends through its own network handle, taken from its Context
// at construction. A handler that answers a delivered copy therefore reads
// only the node itself (and the shared network), never the separately
// allocated Context: with the protocol's hot fields declared first, one
// delivered copy touches bytes [0, 64) of its receiver, which is the span
// net::Network prefetches ahead of batched delivery.
#pragma once

#include <utility>

#include "net/network.h"
#include "net/payload.h"
#include "net/receiver.h"
#include "node/context.h"
#include "sim/simulation.h"

namespace dynreg::node {

class Node : public net::Receiver {
 public:
  Node(sim::ProcessId id, Context& ctx) : net_(&ctx.network()), id_(id) {}
  virtual ~Node() = default;

  /// Called by churn::System when this node departs, after its timers are
  /// cancelled and its network slot detached but before it is destroyed.
  /// Protocols override it to resolve every in-flight operation with
  /// OpOutcome::kDroppedOnDeparture instead of leaking the completions.
  virtual void on_departure() {}

  [[nodiscard]] sim::ProcessId id() const { return id_; }

 protected:
  void send(sim::ProcessId to, net::PayloadPtr payload) {
    net_->send(id_, to, std::move(payload));
  }

  /// Sends one copy to every other attached process.
  void broadcast(net::PayloadPtr payload) { net_->broadcast(id_, std::move(payload)); }

  /// Builds a payload in the simulation's epoch arena (the hot-path
  /// replacement for net::make_payload's per-message heap allocation).
  template <typename T, typename... Args>
  net::PayloadPtr make_payload(Args&&... args) {
    return net::make_payload_in<T>(net_->arena(), std::forward<Args>(args)...);
  }

 private:
  net::Network* net_;
  sim::ProcessId id_;
};

// The vtable pointer, the network handle and the id: a protocol's hot fields
// start at byte 24 and must end by byte 64 (checked in each protocol's .cpp).
static_assert(sizeof(Node) <= 24, "node::Node is a vtable pointer, a network and an id");

}  // namespace dynreg::node
