#include "replay/search.h"

#include <algorithm>
#include <set>
#include <vector>

#include "harness/parallel_for.h"
#include "replay/hooks.h"
#include "replay/trace_io.h"
#include "sim/rng.h"

namespace dynreg::replay {

bool violates(const harness::MetricsReport& report) {
  return !report.regularity.violations.empty();
}

namespace {

/// A variant applies between 1 and this many perturbation operators.
constexpr std::uint64_t kMaxMutations = 4;

/// Makes net record `i` arrive strictly after record `j` (same destination,
/// j later in send order) by stretching i's delay — the targeted reordering
/// operator. Best-effort: the new delay is clamped to the envelope, so a
/// reorder across a long gap may only narrow the margin.
void reorder_after(Trace& t, std::size_t i, std::size_t j, sim::Duration envelope) {
  const NetRecord& later = t.net[j];
  NetRecord& earlier = t.net[i];
  const sim::Time arrival_j = later.time + later.delay;
  sim::Duration needed =
      arrival_j > earlier.time ? (arrival_j - earlier.time) + 1 : sim::Duration{1};
  if (needed > envelope) needed = envelope;
  if (needed < 1) needed = 1;
  earlier.lost = false;
  earlier.delay = needed;
}

}  // namespace

Trace perturb(const Trace& base, std::uint64_t variant_seed, const SearchOptions& opt) {
  Trace t = base;
  t.seed = variant_seed;
  t.recorded_hash = 0;  // a perturbed schedule has no recorded hash to match
  sim::Rng rng(variant_seed);
  const sim::Duration envelope = base.max_delay() + opt.delay_slack;
  const std::uint64_t ops = rng.uniform_int(1, kMaxMutations);

  bool churn_shifted = false;
  // The fault-word operator only exists when the base run recorded fault
  // decisions: fault-free traces keep the exact historical operator set and
  // draw sequence, so established search baselines stay byte-identical.
  const std::uint64_t op_kinds = base.faults.empty() ? 3 : 4;
  for (std::uint64_t op = 0; op < ops; ++op) {
    switch (rng.uniform_int(0, op_kinds)) {
      case 0: {  // delay jitter
        if (t.net.empty()) break;
        NetRecord& r = t.net[static_cast<std::size_t>(
            rng.uniform_int(0, t.net.size() - 1))];
        r.lost = false;
        r.delay = rng.uniform_int(1, envelope);
        break;
      }
      case 1: {  // targeted reordering: overtake the next same-destination copy
        if (t.net.size() < 2) break;
        const std::size_t i = static_cast<std::size_t>(
            rng.uniform_int(0, t.net.size() - 2));
        const std::size_t window_end = std::min(t.net.size(), i + 1 + 16);
        for (std::size_t j = i + 1; j < window_end; ++j) {
          if (t.net[j].to == t.net[i].to && !t.net[j].lost) {
            reorder_after(t, i, j, envelope);
            break;
          }
        }
        break;
      }
      case 2: {  // loss toggle: drop a delivered copy / revive a lost one
        if (t.net.empty()) break;
        NetRecord& r = t.net[static_cast<std::size_t>(
            rng.uniform_int(0, t.net.size() - 1))];
        if (!opt.toggle_loss) {  // gated: jitter instead, same draw count
          r.lost = false;
          r.delay = rng.uniform_int(1, envelope);
          break;
        }
        r.lost = !r.lost;
        r.delay = r.lost ? 0 : rng.uniform_int(1, envelope);
        break;
      }
      case 3: {  // churn-time shift
        if (t.churn.empty()) break;
        ChurnRecord& r = t.churn[static_cast<std::size_t>(
            rng.uniform_int(0, t.churn.size() - 1))];
        const sim::Duration shift = rng.uniform_int(1, envelope);
        if (rng.uniform_int(0, 1) == 0 && r.time > shift) {
          r.time -= shift;
        } else {
          r.time += shift;
        }
        churn_shifted = true;
        break;
      }
      case 4: {  // fault-word scramble: a different-but-legal fault decision
        // Replacing the raw word at one decision point gives the injector a
        // different victim / partition side salt / Byzantine transform at
        // the same schedule position — the fault analogue of delay jitter.
        FaultRecord& r = t.faults[static_cast<std::size_t>(
            rng.uniform_int(0, t.faults.size() - 1))];
        r.value = rng.next();
        break;
      }
    }
  }
  if (churn_shifted) {
    // The churn stream is consumed in time order (ReplayChurnModel) and
    // delta-encoded on disk; restore monotonicity, preserving the relative
    // order of equal-time records.
    std::stable_sort(t.churn.begin(), t.churn.end(),
                     [](const ChurnRecord& a, const ChurnRecord& b) {
                       return a.time < b.time;
                     });
  }
  return t;
}

Trace record_base(const harness::ExperimentConfig& cfg) {
  Trace trace;
  trace.fingerprint = fingerprint(cfg);
  trace.seed = cfg.seed;
  RunHooks hooks;
  hooks.record = &trace;
  const harness::MetricsReport report = harness::run_experiment(cfg, hooks);
  trace.recorded_hash = report.trace_hash;
  // The base outlives every variant perturbed from it; give back the growth
  // slack of its streams, up to half of each one's capacity.
  trace.net.shrink_to_fit();
  trace.churn.shrink_to_fit();
  trace.picks.shrink_to_fit();
  trace.faults.shrink_to_fit();
  return trace;
}

SearchResult search(const harness::ExperimentConfig& cfg, const Trace& base,
                    const SearchOptions& opt) {
  SearchResult result;
  result.executed = opt.budget;

  struct Slot {
    bool violating = false;
    bool inverted = false;
    std::uint64_t hash = 0;
  };
  std::vector<Slot> slots(opt.budget);

  harness::parallel_for(opt.jobs, opt.budget, [&](std::size_t i) {
    const Trace variant = perturb(base, fold64(opt.seed, i), opt);
    RunHooks hooks;
    hooks.replay = &variant;
    const harness::MetricsReport report = harness::run_experiment(cfg, hooks);
    slots[i] = Slot{violates(report), report.atomicity.inversion_count > 0,
                    report.trace_hash};
  });

  std::set<std::uint64_t> distinct;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].violating) {
      ++result.violating;
      if (!result.first_violation) result.first_violation = i;
    }
    if (slots[i].inverted) ++result.inverted;
    if (slots[i].hash != 0) distinct.insert(slots[i].hash);
  }
  result.distinct_schedules = distinct.size();

  if (result.first_violation) {
    // Regenerate the winning variant (perturb is pure) and re-run it for
    // the full report — cheaper than keeping every variant's report alive.
    result.counterexample = perturb(base, fold64(opt.seed, *result.first_violation), opt);
    RunHooks hooks;
    hooks.replay = &result.counterexample;
    result.counterexample_report = harness::run_experiment(cfg, hooks);
  }
  return result;
}

}  // namespace dynreg::replay
