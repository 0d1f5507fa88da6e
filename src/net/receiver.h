// The network's delivery target. Whatever holds a process id on a Network
// (a protocol node, via node::Node) receives that id's message copies here.
#pragma once

#include "net/payload.h"
#include "sim/event_queue.h"

namespace dynreg::net {

/// Receives the copies delivered to one attached process id. The network
/// holds it by raw pointer and never owns it: the attacher keeps it alive
/// until it detaches the id (churn::System detaches a node before
/// destroying it).
class Receiver {
 public:
  /// Called once per delivered copy, on the delivery hot path.
  virtual void on_message(sim::ProcessId from, const Payload& payload) = 0;

 protected:
  // Not deleted through this interface; owners delete the concrete type.
  ~Receiver() = default;
};

}  // namespace dynreg::net
