// Base class for protocol processes hosted by churn::System. A node is its
// own network receiver: the system attaches it under its id, and the network
// calls on_message (declared by net::Receiver) for every delivered copy.
//
// A node holds its id and a pointer to its group's one node::Context, and
// nothing else: the protected reply, broadcast, make_payload,
// schedule_after and notify_active below are its whole reach into the
// world, each passing the id for it. A point-to-point message is always a
// reply or an ack, sent through the group's payload memo by reply(). The
// Context is shared by every process of the group, so a handler that
// answers a delivered copy reads the node's first cache line and a Context
// line that every other delivery keeps hot. With the protocol's hot fields
// declared first, one delivered copy touches bytes [0, 64) of its
// receiver, which is the span net::Network prefetches ahead of batched
// delivery.
#pragma once

#include <utility>

#include "net/network.h"
#include "net/payload.h"
#include "net/receiver.h"
#include "node/context.h"
#include "sim/simulation.h"

namespace dynreg {

class RegisterNode;

namespace node {

class Node : public net::Receiver {
 public:
  Node(sim::ProcessId id, Context& ctx) : ctx_(&ctx), id_(id) {}
  virtual ~Node() = default;

  /// Called by churn::System when this node departs, after its timers are
  /// cancelled and its network slot detached but before it is destroyed.
  /// Protocols override it to resolve every in-flight operation with
  /// OpOutcome::kDroppedOnDeparture instead of leaking the completions.
  virtual void on_departure() {}

  [[nodiscard]] sim::ProcessId id() const { return id_; }

  /// This node as a register protocol node, or nullptr when it is not one:
  /// the client's lookup on every attempt, which walks no RTTI.
  virtual RegisterNode* as_register() { return nullptr; }

 protected:
  [[nodiscard]] Context& context() const { return *ctx_; }

  /// Sends one copy to every other attached process.
  void broadcast(net::PayloadPtr payload) {
    ctx_->network().broadcast(id_, std::move(payload));
  }

  /// Builds a payload in the simulation's epoch arena (the hot-path
  /// replacement for net::make_payload's per-message heap allocation).
  template <typename T, typename... Args>
  net::PayloadPtr make_payload(Args&&... args) {
    return ctx_->make_payload<T>(std::forward<Args>(args)...);
  }

  /// Sends `to` the payload T(args...) through the group's memo
  /// (Context::shared_payload): equal replies share one payload object.
  template <typename T, typename... Args>
  void reply(sim::ProcessId to, Args&&... args) {
    ctx_->network().send(id_, to, ctx_->shared_payload<T>(std::forward<Args>(args)...));
  }

  /// Runs fn after d ticks unless this process has left by then.
  template <typename F>
  void schedule_after(sim::Duration d, F fn) {
    ctx_->schedule_after(id_, d, std::move(fn));
  }

  /// Reports that this process's join completed (see Context::notify_active).
  void notify_active() { ctx_->notify_active(id_); }

 private:
  Context* ctx_;
  sim::ProcessId id_;
};

// The vtable pointer, the context and the id: a protocol's hot fields start
// at byte 24 and must end by byte 64 (checked in each protocol's .cpp).
static_assert(sizeof(Node) == 24, "node::Node is a vtable pointer, a context and an id");

}  // namespace node
}  // namespace dynreg
