// The dynamic system: hosts protocol nodes, orchestrates joins and leaves
// according to a churn model, and keeps the ground-truth chronicle.
//
// A System is one membership group. It owns the group's one node::Context
// and hands it to every node its factory builds, so a member costs the heap
// exactly its node: the context's timers and activation hook are shared,
// and its liveness is one bit the System sets before the node is built and
// clears in leave() before the node's on_departure() runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "churn/chronicle.h"
#include "churn/churn_model.h"
#include "net/network.h"
#include "node/context.h"
#include "node/node.h"
#include "sim/simulation.h"

namespace dynreg::churn {

/// Which member departs when the churn model calls for a leave.
enum class LeavePolicy {
  kUniform,            // uniform over non-exempt members
  kOldestActiveFirst,  // adversarial: kill the longest-active (most informed)
};

/// Inert: selects nothing; ROADMAP item 8 ("perfbench composes
/// harness::World") deletes it together with perfbench's copied world,
/// which still brace-initialises it.
struct ChronicleOptions {
  bool aggregate_only = false;
  sim::Duration window = 0;
  sim::Time horizon = 0;
};

struct SystemConfig {
  std::size_t initial_size = 0;
  LeavePolicy leave_policy = LeavePolicy::kUniform;
  /// Processes never selected for departure (e.g. the paper's writer, which
  /// stays in the system).
  std::vector<sim::ProcessId> exempt;
  /// Inert: selects nothing and nothing in dynreg reads it; ROADMAP item 8
  /// ("perfbench composes harness::World") deletes it together with
  /// perfbench's copied world, which assigns it.
  ChronicleOptions chronicle;
};

/// Observes churn-driven membership actions as the system executes them —
/// the trace recorder's view of churn (src/replay/recorder.h). Bench- or
/// client-driven spawn()/leave() calls are NOT reported: they re-occur
/// naturally when the driving code runs again, so recording them would
/// double them on replay.
class ChurnObserver {
 public:
  virtual ~ChurnObserver() = default;
  virtual void on_churn_join(sim::Time t) = 0;
  virtual void on_churn_leave(sim::Time t, sim::ProcessId victim) = 0;
};

class System {
 public:
  /// Builds the protocol node for a process. `initial` distinguishes the
  /// bootstrap members (already active, holding the initial value) from
  /// joiners (which must run the join protocol). `ctx` is the group's
  /// context, the same object for every call. Invoked once per process
  /// join — which already heap-allocates the node itself — so std::function
  /// type-erasure here is noise, not an event-path allocation.
  // dynreg-lint: allow(std-function): invoked once per join (which allocates a whole node), never per message
  using NodeFactory = std::function<std::unique_ptr<node::Node>(
      sim::ProcessId id, node::Context& ctx, bool initial)>;

  System(sim::Simulation& sim, net::Network& net, SystemConfig config,
         std::unique_ptr<ChurnModel> churn, NodeFactory factory);

  /// Creates the initial members and starts the churn schedule. Call once,
  /// before running the simulation.
  void bootstrap();

  /// Adds one joining process now; returns its id.
  sim::ProcessId spawn();

  /// Removes a member now (in-flight messages to it will be dropped).
  void leave(sim::ProcessId id);

  /// The member's node, or nullptr if it is not (any longer) in the system.
  node::Node* find(sim::ProcessId id);

  /// Installs a non-owning observer of churn-driven joins/leaves (nullptr
  /// to clear). Configuration-time only; must outlive the run.
  void set_churn_observer(ChurnObserver* observer) { observer_ = observer; }

  [[nodiscard]] const Chronicle& chronicle() const { return chronicle_; }

  /// Ids of members whose join has completed, ascending. Returned by
  /// reference (no copy): clients pick a random target per operation, and at
  /// 1e5 members a per-op copy would dominate the op itself. The reference
  /// is invalidated by any join/leave/activation — take what you need before
  /// yielding to the simulation.
  [[nodiscard]] const std::vector<sim::ProcessId>& active_ids() const {
    return active_ids_;
  }

  [[nodiscard]] std::size_t member_count() const { return member_ids_.size(); }
  [[nodiscard]] std::size_t active_count() const { return active_ids_.size(); }

  // Join bookkeeping (joiners only; bootstrap members are not counted).
  [[nodiscard]] std::uint64_t joins_started() const { return joins_started_; }
  [[nodiscard]] std::uint64_t joins_completed() const { return joins_completed_; }
  /// Joins that ended because the joiner was churned out before activating.
  [[nodiscard]] std::uint64_t joins_abandoned() const { return joins_abandoned_; }
  /// Sum of (activation - enter) over completed joins.
  [[nodiscard]] std::uint64_t join_latency_total() const { return join_latency_total_; }

 private:
  sim::ProcessId add_member(bool initial);
  /// The group's activation hook (node::Context::notify_active).
  void on_activated(sim::ProcessId id);
  void churn_step();
  void scripted_churn_step();
  sim::ProcessId pick_victim();
  /// Grows the id-indexed columns to cover `id`.
  void ensure_slot(sim::ProcessId id);
  [[nodiscard]] bool is_member(sim::ProcessId id) const {
    return id < node_.size() && node_[id] != nullptr;
  }

  sim::Simulation& sim_;
  net::Network& net_;
  SystemConfig config_;
  std::unique_ptr<ChurnModel> churn_;
  NodeFactory factory_;
  // The group's one node context: every member's timers, activation hook
  // and liveness bit. Queued timers point at it, so System never moves.
  node::Context ctx_;

  // Member state as id-indexed struct-of-arrays columns (ids are dense and
  // never reused, so index == ProcessId; a null node_ entry means "not a
  // member"). Membership is O(1) and iteration a contiguous sweep of the two
  // sorted id vectors. member_ids_ stays sorted for free (new ids are always
  // the largest); active_ids_ inserts in id order on activation. Both erase
  // by shift on leave, and their ascending-id order is what the RNG draw
  // sequence depends on. When a process entered, activated and left lives
  // only in chronicle_, the one per-id membership timeline: the
  // oldest-active victim choice, the abandoned-join count and the join
  // latency all read it there.
  std::vector<std::unique_ptr<node::Node>> node_;  // column: per-id node
  std::vector<sim::ProcessId> member_ids_;  // sorted ascending, live members
  std::vector<sim::ProcessId> active_ids_;  // sorted ascending, active members
  Chronicle chronicle_;
  ChurnObserver* observer_ = nullptr;  // non-owning
  sim::ProcessId next_id_ = 0;
  double churn_credit_ = 0.0;
  std::vector<ChurnAction> scripted_actions_;  // reused scratch buffer

  std::uint64_t joins_started_ = 0;
  std::uint64_t joins_completed_ = 0;
  std::uint64_t joins_abandoned_ = 0;
  std::uint64_t join_latency_total_ = 0;
};

}  // namespace dynreg::churn
