// FaultHook: the Network's verdict seam for injected link and message
// faults, sitting beside DelayModel.
//
// Two interception points, chosen so record/replay stream alignment is
// preserved by construction (docs/FAULTS.md):
//
//   link_cut   checked at send time BEFORE the delay model's verdict. A cut
//              copy consumes no Rng draw and produces no net-trace record,
//              so the recorded net stream lines up positionally with the
//              replayed one whether or not the cut fires.
//   transform  applied at delivery time, after departed-receiver filtering.
//              Returning a replacement payload substitutes what the handler
//              observes (Byzantine equivocation/forgery/corruption); the
//              delay schedule is untouched.
//
// The hook's own decisions must be deterministic: implementations draw only
// through the fault-decision replay layer (fault::DecisionSource), never the
// run's Rng directly.
//
// Each interception point has a plain (non-virtual) armed flag that says
// whether the hook can act there right now; the network skips the virtual
// call while it is off. Both flags start on, so a hook that never touches
// them sees every copy. A hook that clears one must return the call's
// no-op answer (no cut, no replacement) for as long as it stays off, and
// must not need to observe the skipped copies.
#pragma once

#include "net/payload.h"
#include "sim/simulation.h"

namespace dynreg::net {

class FaultHook {
 public:
  virtual ~FaultHook() = default;

  /// Whether link_cut can cut anything now (checked by the network first).
  [[nodiscard]] bool cuts_armed() const { return cuts_armed_; }
  /// Whether transform can rewrite anything now (checked by the network first).
  [[nodiscard]] bool transforms_armed() const { return transforms_armed_; }

  /// True = the copy on the physical edge (from -> to) is silently cut
  /// (counted as Stats::dropped_partition, never shown to the delay model).
  virtual bool link_cut(sim::Time now, sim::ProcessId from,
                        sim::ProcessId to) = 0;

  /// Called once per delivered copy. Returns the payload the handler should
  /// observe instead, or nullptr to deliver the original untouched. `from`
  /// is the logical sender the handler will see.
  virtual PayloadPtr transform(sim::Time now, sim::ProcessId from,
                               sim::ProcessId to, const PayloadPtr& payload) = 0;

 protected:
  void arm_cuts(bool on) { cuts_armed_ = on; }
  void arm_transforms(bool on) { transforms_armed_ = on; }

 private:
  bool cuts_armed_ = true;
  bool transforms_armed_ = true;
};

}  // namespace dynreg::net
