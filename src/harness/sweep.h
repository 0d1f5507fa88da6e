// Parameter sweeps: run a base experiment at several values of one knob,
// each over several seeds, and expose per-point aggregates.
//
// The parallel engine runs the (x, seed) grid on a ThreadPool. Each replica
// owns its whole world — Simulation, Rng, Network, nodes — so runs never
// share mutable state, and every replica writes its MetricsReport into a
// pre-assigned slot. The collected output is therefore byte-identical for
// any worker count: parallelism changes wall-clock time only.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "harness/aggregate.h"
#include "harness/experiment.h"
#include "harness/metrics.h"

namespace dynreg::replay {
class Session;
}  // namespace dynreg::replay

namespace dynreg::harness {

/// Mean of fn over a set of runs.
template <typename Fn>
double mean_of(const std::vector<MetricsReport>& runs, Fn fn) {
  if (runs.empty()) return 0.0;
  double total = 0.0;
  for (const auto& r : runs) total += static_cast<double>(fn(r));
  return total / static_cast<double>(runs.size());
}

/// One swept knob value with its per-seed runs.
struct SweepPoint {
  double x = 0.0;                    // the swept knob's value
  std::vector<MetricsReport> runs;   // one per seed, in seed order

  /// Full cross-seed distribution summary (see harness/aggregate.h).
  [[nodiscard]] AggregatedMetrics aggregate() const { return aggregate_metrics(runs); }

  double mean_violation_rate() const {
    return mean_of(runs, [](const MetricsReport& r) { return r.regularity.violation_rate(); });
  }
  double mean_read_completion() const {
    return mean_of(runs, [](const MetricsReport& r) { return r.read_completion_rate(); });
  }
  double mean_write_completion() const {
    return mean_of(runs, [](const MetricsReport& r) { return r.write_completion_rate(); });
  }
  double mean_join_completion() const {
    return mean_of(runs, [](const MetricsReport& r) { return r.join_completion_rate(); });
  }
  double mean_read_latency() const {
    return mean_of(runs, [](const MetricsReport& r) { return r.read_latency_mean; });
  }
  double mean_write_latency() const {
    return mean_of(runs, [](const MetricsReport& r) { return r.write_latency_mean; });
  }
  double mean_join_latency() const {
    return mean_of(runs, [](const MetricsReport& r) { return r.join_latency_mean; });
  }
  double mean_min_active_3delta() const {
    return mean_of(runs, [](const MetricsReport& r) { return r.min_active_3delta; });
  }
};

/// The seed used for replica `index` of a sweep/replica set rooted at
/// `base_seed`. Part of the determinism contract: results are identified by
/// (config, replica_seed(base, i)), never by execution order.
std::uint64_t replica_seed(std::uint64_t base_seed, std::size_t index);

/// Applies one swept knob value to a private config copy. One instance per
/// sweep call; invoked once per (x, seed) replica setup — configuration
/// time, never on the simulated event path.
// dynreg-lint: allow(std-function): one instance per sweep call, invoked at replica setup only
using ConfigureFn = std::function<void(ExperimentConfig&, double)>;

/// Runs `cfg` enrolled in `session` under (fingerprint(cfg), cfg.seed): a
/// recording session captures the run's schedule, a replay session drives
/// the run from the recorded one (see replay/session.h). A null session
/// makes a plain run_experiment.
MetricsReport run_in_session(const ExperimentConfig& cfg, replay::Session* session);

/// Runs `seeds` replicas of `base` (differing only in seed) across up to
/// `jobs` worker threads (0 = one per hardware thread), each enrolled in
/// `session` (null: plain runs). The result vector is in seed order
/// regardless of jobs.
std::vector<MetricsReport> run_replicas(const ExperimentConfig& base, std::size_t seeds,
                                        std::size_t jobs, replay::Session* session);

/// Runs `base` once per (x, seed) pair, `configure` applying x to a copy of
/// the base config before each run, with up to `jobs` replicas in flight at
/// once (0 = one per hardware thread), each enrolled in `session` (null:
/// plain runs). Point and run order match the inputs regardless of jobs.
/// `configure` must be safe to call concurrently (it only ever mutates the
/// private copy it is handed).
std::vector<SweepPoint> parallel_sweep(const ExperimentConfig& base,
                                       const std::vector<double>& xs,
                                       const ConfigureFn& configure, std::size_t seeds,
                                       std::size_t jobs, replay::Session* session);

}  // namespace dynreg::harness
