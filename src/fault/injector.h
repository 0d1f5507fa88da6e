// The fault engine: executes a fault::Plan against a live run, drawing every
// decision through a fault::DecisionSource so the whole campaign records into
// DRTR traces (format v3) and replays byte-identically.
//
// Injection seams (docs/FAULTS.md):
//  - crash-stop / crash-recovery: System::leave() + System::spawn() driven by
//    a credit-accumulation tick loop (mirroring churn_step's arithmetic);
//    durable restarts snapshot RegisterNode::crash_image() at crash time and
//    restore() it on the respawned process as an apply-max floor. Injected
//    crashes deliberately bypass the ChurnObserver: they re-occur
//    deterministically from the replayed fault stream, so recording them into
//    the churn stream would double them on replay.
//  - partitions: the Injector is the Network's FaultHook; link_cut() consults
//    a pure hash of (per-event salt, process id) so side assignment is
//    deterministic — including for processes that join mid-partition — and
//    costs no draw per message. The hook's cut flag is armed only while a
//    partition is active, so outside one the network never calls link_cut.
//  - Byzantine transforms: FaultHook::transform() rewrites delivered copies
//    from a salted-hash-chosen faulty sender set (equivocation, stale replay,
//    forged timestamps, value corruption), with per-copy decisions drawn
//    through the DecisionSource at delivery time. The transform flag is
//    armed only when the plan enables Byzantine faults.
#pragma once

#include <cstdint>
#include <vector>

#include "churn/system.h"
#include "dynreg/messages.h"
#include "dynreg/types.h"
#include "fault/decision.h"
#include "fault/plan.h"
#include "net/fault_hook.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace dynreg::fault {

class Injector final : public net::FaultHook {
 public:
  /// `exempt` lists processes never picked as crash victims (the designated
  /// writers, matching the churn system's own exemption). All references are
  /// non-owning and must outlive the run.
  Injector(sim::Simulation& sim, churn::System& system, net::Network& net,
           Plan plan, DecisionSource& decisions,
           std::vector<sim::ProcessId> exempt);

  /// Arms the campaign: draws the Byzantine membership salt (one decision)
  /// and schedules the first tick. Call after System::bootstrap(); also
  /// installs itself as the network's fault hook.
  void start();

  // net::FaultHook
  bool link_cut(sim::Time now, sim::ProcessId from, sim::ProcessId to) override;
  net::PayloadPtr transform(sim::Time now, sim::ProcessId from,
                            sim::ProcessId to,
                            const net::PayloadPtr& payload) override;

  struct Stats {
    std::uint64_t crashes = 0;     // crash-stop + crash-recovery events
    std::uint64_t recoveries = 0;  // processes respawned after a crash
    std::uint64_t partitions = 0;  // partition events started
    std::uint64_t heals = 0;       // partitions healed before the horizon
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void tick();
  void crash_one(sim::Time now);
  [[nodiscard]] bool on_minority_side(sim::ProcessId id) const;
  [[nodiscard]] bool is_byzantine(sim::ProcessId id) const;
  /// The Byzantine rewrite of one delivered (ts, value) record, of the
  /// kind `word` picks.
  net::PayloadPtr transform_copy(std::uint64_t word, sim::ProcessId from,
                                 sim::ProcessId to, const msg::Stamped& m);

  sim::Simulation& sim_;
  churn::System& system_;
  net::Network& net_;
  Plan plan_;
  DecisionSource& decisions_;
  std::vector<sim::ProcessId> exempt_;
  std::vector<sim::ProcessId> candidates_;  // crash-victim scratch

  double crash_credit_ = 0.0;
  // A partition is active exactly while cuts_armed() (net::FaultHook).
  std::uint64_t partition_salt_ = 0;
  std::uint64_t byz_salt_ = 0;

  // Earliest (ts, value) observation, fuel for the stale-replay transform.
  Timestamp stale_ts_;
  Value stale_value_ = kBottom;
  bool have_stale_ = false;

  Stats stats_;
};

}  // namespace dynreg::fault
