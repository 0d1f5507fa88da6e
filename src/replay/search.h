// Adversarial schedule search: perturb a recorded trace thousands of ways
// and replay each variant, hunting for runs where the perturbed schedule
// breaks regularity (a stale read — Theorem 1's property) or produces a
// new/old inversion. FoundationDB-style schedule fuzzing for the register:
// the recorded trace anchors the search in a schedule the timing model
// actually produced, and each variant explores its neighbourhood.
//
// Everything is deterministic: variant i's perturbation rng is seeded by
// fold64(opt.seed, i), variants run via harness::parallel_for into
// pre-assigned slots, and the reported counterexample is the *lowest-index*
// violating variant — so results are identical at any --jobs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "harness/experiment.h"
#include "replay/trace.h"

namespace dynreg::replay {

struct SearchOptions {
  std::uint64_t seed = 1;    ///< root of the per-variant perturbation rngs
  std::size_t budget = 1000; ///< perturbed schedules to execute
  std::size_t jobs = 1;      ///< worker threads (0 = one per hardware thread)
  /// Extra delay headroom beyond the recorded envelope (trace.max_delay()).
  /// 0 keeps every perturbed delay within the bound the recorded timing
  /// model obeyed — perturbations then stay "legal" schedules.
  sim::Duration delay_slack = 0;
  /// Include the loss-toggle operator (drop a delivered copy / revive a
  /// lost one). Disable to restrict the search to schedules legal under a
  /// reliable-channel timing model (e.g. Theorem 1's synchronous system,
  /// where an omission fault would void the claim being probed); the draw
  /// sequence is unchanged, so variant i differs from its toggling twin
  /// only in the gated operator.
  bool toggle_loss = true;
};

struct SearchResult {
  std::size_t executed = 0;   ///< variants run (== budget)
  std::size_t violating = 0;  ///< variants with >= 1 regularity violation
  std::size_t inverted = 0;   ///< variants with >= 1 new/old inversion
  /// Distinct event-stream hashes among the variants — how much of the
  /// neighbourhood the budget actually explored (0 without DYNREG_AUDIT).
  std::size_t distinct_schedules = 0;
  /// Lowest violating variant index; the fields below are valid iff set.
  std::optional<std::size_t> first_violation;
  Trace counterexample;
  harness::MetricsReport counterexample_report;
};

/// The search's violation predicate: a regularity (stale-read) violation.
bool violates(const harness::MetricsReport& report);

/// Deterministic perturbation of `base`: 1 to 4 operators (delay
/// jitter, targeted same-destination message reordering, loss toggling,
/// churn-time shifts), drawn from an rng seeded with `variant_seed`. Pure
/// function of its arguments. The variant's Trace::seed is set to
/// `variant_seed` so post-divergence fallback draws differ per variant.
Trace perturb(const Trace& base, std::uint64_t variant_seed, const SearchOptions& opt);

/// Records the schedule of one plain run of `cfg` (no session involvement)
/// — the base every search/minimize starts from.
Trace record_base(const harness::ExperimentConfig& cfg);

/// Replays opt.budget perturbed variants of `base` against `cfg`.
SearchResult search(const harness::ExperimentConfig& cfg, const Trace& base,
                    const SearchOptions& opt);

}  // namespace dynreg::replay
