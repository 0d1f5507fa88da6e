// Ground-truth record of every process's lifetime: when it entered, when its
// join completed (it became active), and when it left. The consistency and
// Lemma 2 analyses are computed against this record, never against protocol
// state — the chronicle is the omniscient observer the paper's proofs reason
// with (A(t), A(t1, t2)). It is also the one per-id membership timeline:
// churn::System reads activation times from it rather than keeping copies.
//
// One representation: a dense Record per id that ever entered, so memory is
// O(ids ever entered) at 48 B each — 4.8 MB for the 1e5 members of a
// 1e5-process run. That beats a map of live members (~96 B per node) at
// every scale dynreg runs: on perfbench's quorum_scale (4-vCPU Xeon VM) it
// takes set-up from 0.063 to 0.030 s and peak RSS from 81.4 to 77.1 MiB
// (docs/PERFORMANCE.md, "One membership timeline").
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "sim/simulation.h"

namespace dynreg::churn {

class Chronicle {
 public:
  struct Record {
    sim::Time entered = 0;
    std::optional<sim::Time> activated;  // unset: join never completed
    std::optional<sim::Time> left;       // unset: still in the system
    bool initial = false;
  };

  void note_enter(sim::ProcessId id, sim::Time at, bool initial);
  void note_activated(sim::ProcessId id, sim::Time at);
  void note_left(sim::ProcessId id, sim::Time at);

  /// Dense, id-indexed records: System hands out ids contiguously from 0, so
  /// index == ProcessId. At 1e5 processes the analyses below walk the whole
  /// history, and a contiguous sweep beats a pointer chase per process.
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// |A(t)|: processes active at instant t (activated <= t, not yet left).
  std::size_t active_at(sim::Time t) const;

  /// |A(t1, t2)|: processes active throughout the whole interval [t1, t2] —
  /// the quantity of the paper's Lemma 2.
  std::size_t active_through(sim::Time t1, sim::Time t2) const;

  /// min over t in [0, horizon - window] of |A(t, t + window)|, computed with
  /// one difference-array sweep (linear in horizon + records, not quadratic).
  std::size_t min_active_through_window(sim::Duration window, sim::Time horizon) const;

  /// min over t in [0, horizon] of |A(t)|.
  std::size_t min_active_at(sim::Time horizon) const;

 private:
  std::vector<Record> records_;  // indexed by ProcessId
};

}  // namespace dynreg::churn
