// Common interface of all register protocol implementations.
#pragma once

#include <memory>
#include <utility>

#include "dynreg/operation.h"
#include "dynreg/types.h"
#include "node/node.h"

namespace dynreg {

/// What survives a crash when the fault engine restarts a process with
/// durable register state (fault::RestartState::kDurable): the local copy
/// and its timestamp, as they were at the instant of the crash.
struct DurableImage {
  Value value = kBottom;
  Timestamp ts;
  bool has_value = false;
};

/// Common interface of the register protocols (sync, ES, ABD). Operations
/// are asynchronous: read/write return immediately and signal through the
/// supplied move-only completion, which runs inside the simulation (same
/// virtual time discipline as any event).
///
/// Completion contract:
///  - The completion fires at most once, with a typed OpOutcome.
///  - kOk: the protocol completed the operation normally.
///  - kDroppedOnDeparture: the node left the system with the operation still
///    in flight — on_departure() resolves every pending operation instead of
///    leaking its completion with the node's timers (the silent-drop footgun
///    of the pre-client API).
///  - An operation that merely starves (e.g. a quorum that never forms on a
///    node that never departs) keeps its completion pending forever; clients
///    that need a bound arm a deadline (client::Client raises kTimedOut).
class RegisterNode : public node::Node {
 public:
  using node::Node::Node;

  RegisterNode* as_register() final { return this; }

  /// Starts a read identified by `op`; `done` fires when the operation
  /// resolves (kOk carries the value read, other outcomes carry kBottom).
  virtual void read(const OpContext& op, ReadCompletion done) = 0;

  /// Starts a write of `v` identified by `op`.
  virtual void write(const OpContext& op, Value v, WriteCompletion done) = 0;

  /// The process's current local copy (kBottom before a join adopts one).
  virtual Value local_value() const = 0;

  /// Whether this process's join has completed (bootstrap members are
  /// active from construction).
  virtual bool is_active() const = 0;

  /// Snapshot of the durable register state at crash time, for the fault
  /// engine's crash-recovery path. Default: nothing survives (protocols
  /// without a durable story restart volatile).
  [[nodiscard]] virtual DurableImage crash_image() const { return {}; }

  /// Re-applies a recovered durable image on the restarted process. The
  /// contract is apply-as-floor: the image is merged with timestamp
  /// monotonicity (never adopted blindly) and never short-circuits the join
  /// protocol — a stale disk image must not mask a newer value the join
  /// would have found (docs/FAULTS.md). Default: ignored.
  virtual void restore(const DurableImage& image) { (void)image; }
};

/// The node factory of a group whose members are all `NodeT`: one copy of
/// the protocol's constants (`NodeT::Config`) is bound to the group's
/// node::Context before each build, and every member reads it there.
/// Converts to churn::System::NodeFactory.
template <typename NodeT>
auto group_factory(typename NodeT::Config config) {
  using Config = typename NodeT::Config;
  return [config = std::make_shared<const Config>(std::move(config))](
             sim::ProcessId id, node::Context& ctx,
             bool initial) -> std::unique_ptr<node::Node> {
    ctx.bind_config(config);
    return std::make_unique<NodeT>(id, ctx, initial);
  };
}

}  // namespace dynreg
