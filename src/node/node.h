// Base class for protocol processes hosted by churn::System. A node is its
// own network receiver: the system attaches it under its id, and the network
// calls on_message (declared by net::Receiver) for every delivered copy.
#pragma once

#include "net/receiver.h"
#include "sim/simulation.h"

namespace dynreg::node {

class Node : public net::Receiver {
 public:
  explicit Node(sim::ProcessId id) : id_(id) {}
  virtual ~Node() = default;

  /// Called by churn::System when this node departs, after its timers are
  /// cancelled and its network slot detached but before it is destroyed.
  /// Protocols override it to resolve every in-flight operation with
  /// OpOutcome::kDroppedOnDeparture instead of leaking the completions.
  virtual void on_departure() {}

  [[nodiscard]] sim::ProcessId id() const { return id_; }

 private:
  sim::ProcessId id_;
};

}  // namespace dynreg::node
