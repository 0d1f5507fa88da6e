#include "churn/system.h"

#include <algorithm>
#include <utility>

namespace dynreg::churn {

namespace {

// Sorted-vector erase; no-op when absent. Keeps ascending order (and with it
// the deterministic iteration / RNG draw sequence) without a tree.
void erase_sorted(std::vector<sim::ProcessId>& ids, sim::ProcessId id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it != ids.end() && *it == id) ids.erase(it);
}

void insert_sorted(std::vector<sim::ProcessId>& ids, sim::ProcessId id) {
  ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
}

}  // namespace

System::System(sim::Simulation& sim, net::Network& net, SystemConfig config,
               std::unique_ptr<ChurnModel> churn, NodeFactory factory)
    : sim_(sim),
      net_(net),
      config_(std::move(config)),
      churn_(std::move(churn)),
      factory_(std::move(factory)),
      ctx_(sim, net, [this](sim::ProcessId id) { on_activated(id); }) {}

void System::bootstrap() {
  // Each id-indexed column takes the initial members in one allocation
  // instead of growing one member at a time; churn then grows them
  // geometrically as usual.
  const std::size_t n = config_.initial_size;
  node_.reserve(n);
  member_ids_.reserve(n);
  active_ids_.reserve(n);
  chronicle_.reserve(n);
  net_.reserve(n);
  ctx_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) add_member(/*initial=*/true);
  if (churn_ && (churn_->rate() > 0.0 || churn_->scripted())) {
    sim_.schedule_after(1, [this] { churn_step(); });
  }
}

sim::ProcessId System::spawn() {
  ++joins_started_;
  return add_member(/*initial=*/false);
}

void System::ensure_slot(sim::ProcessId id) {
  if (id < node_.size()) return;
  node_.resize(id + 1);
}

void System::on_activated(sim::ProcessId id) {
  // Runs when the node's join protocol completes (or immediately, for
  // bootstrap members). The node_ column entry may not be set yet when a
  // constructor notifies, so only chronicle/active bookkeeping lives here.
  const Chronicle::Record& rec = chronicle_.records()[id];
  chronicle_.note_activated(id, sim_.now());
  insert_sorted(active_ids_, id);
  if (!rec.initial) {
    ++joins_completed_;
    join_latency_total_ += sim_.now() - rec.entered;
  }
}

sim::ProcessId System::add_member(bool initial) {
  const sim::ProcessId id = next_id_++;
  chronicle_.note_enter(id, sim_.now(), initial);
  ensure_slot(id);

  // Live before the node exists: its constructor may set timers and notify.
  ctx_.admit(id);
  node_[id] = factory_(id, ctx_, initial);
  member_ids_.push_back(id);  // ids are monotone: append keeps the order
  net_.attach(id, node_[id].get());
  return id;
}

void System::leave(sim::ProcessId id) {
  if (!is_member(id)) return;
  if (!chronicle_.records()[id].activated()) ++joins_abandoned_;
  chronicle_.note_left(id, sim_.now());
  net_.detach(id);
  ctx_.retire(id);
  // Clear every membership column *before* resolving the node's in-flight
  // operations: a resolution hook that synchronously issues a new operation
  // must observe the departure (find() returning nullptr, the id absent
  // from active_ids()) rather than a half-torn-down node whose completion
  // would leak. Timers are already dead and the network slot gone, so the
  // resolutions can schedule follow-up events (e.g. client retries) but can
  // no longer reach this node.
  std::unique_ptr<node::Node> node = std::move(node_[id]);
  erase_sorted(active_ids_, id);
  erase_sorted(member_ids_, id);
  node->on_departure();
}

node::Node* System::find(sim::ProcessId id) {
  return is_member(id) ? node_[id].get() : nullptr;
}

void System::churn_step() {
  if (churn_->scripted()) {
    scripted_churn_step();
  } else {
    // The paper's model: c * n processes join and c * n leave per time unit,
    // with n constant. Fractional amounts accumulate across ticks.
    churn_credit_ += churn_->rate() * static_cast<double>(config_.initial_size);
    while (churn_credit_ >= 1.0) {
      churn_credit_ -= 1.0;
      if (observer_ != nullptr) observer_->on_churn_join(sim_.now());
      spawn();
      const sim::ProcessId victim = pick_victim();
      if (is_member(victim)) {
        if (observer_ != nullptr) observer_->on_churn_leave(sim_.now(), victim);
        leave(victim);
      }
    }
  }
  sim_.schedule_after(1, [this] { churn_step(); });
}

void System::scripted_churn_step() {
  // Scripted churn (trace replay / schedule perturbation): execute the
  // model's actions verbatim, in order, preserving the spawn/leave
  // interleaving of the recorded run — the interleave decides which
  // broadcasts the victim still receives, so it is part of the schedule.
  scripted_actions_.clear();
  churn_->actions_at(sim_.now(), scripted_actions_);
  for (const ChurnAction& action : scripted_actions_) {
    if (action.join) {
      if (observer_ != nullptr) observer_->on_churn_join(sim_.now());
      spawn();
    } else if (is_member(action.victim)) {
      // A perturbed trace may name a victim that already left (or was
      // never spawned on the diverged path); the leave simply has no
      // effect, mirroring the rate-based path's membership check.
      if (observer_ != nullptr) observer_->on_churn_leave(sim_.now(), action.victim);
      leave(action.victim);
    }
  }
}

sim::ProcessId System::pick_victim() {
  auto exempt = [this](sim::ProcessId id) {
    return std::find(config_.exempt.begin(), config_.exempt.end(), id) !=
           config_.exempt.end();
  };

  if (config_.leave_policy == LeavePolicy::kOldestActiveFirst) {
    // Adversarial: remove the member that has been active longest — the one
    // most likely to hold the register value (Lemma 2's worst case). The
    // ascending-id sweep reproduces the old map's tie-break (lowest id).
    sim::ProcessId best = 0;
    bool found = false;
    sim::Time best_at = 0;
    for (const sim::ProcessId id : active_ids_) {
      if (exempt(id)) continue;
      const sim::Time at = chronicle_.records()[id].activated_at;
      if (!found || at < best_at) {
        best = id;
        best_at = at;
        found = true;
      }
    }
    if (found) return best;
    // No active candidates: fall through to a uniform pick among everyone.
  }

  std::vector<sim::ProcessId> candidates;
  candidates.reserve(member_ids_.size());
  for (const sim::ProcessId id : member_ids_) {
    if (!exempt(id)) candidates.push_back(id);
  }
  if (candidates.empty()) return next_id_;  // nobody eligible; no-op leave
  const std::uint64_t idx = sim_.rng().uniform_int(0, candidates.size() - 1);
  return candidates[static_cast<std::size_t>(idx)];
}

}  // namespace dynreg::churn
