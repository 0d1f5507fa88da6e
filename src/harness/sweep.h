// The replica engine: run_grid runs a list of experiment configs (cells),
// each over several seeds, and every experiment's seed replicas go through
// it. parallel_sweep is run_grid over one knob's values.
//
// run_grid runs the flattened (cell, seed) grid through parallel_for. Each
// replica owns its whole world — Simulation, Rng, Network, nodes — so runs
// never share mutable state, and every replica writes its MetricsReport into
// a pre-assigned slot. The collected output is therefore byte-identical for
// any thread count: parallelism changes wall-clock time only.
#pragma once

#include <cstddef>
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

/// Mean of fn over a set of runs, summed in run (seed) order. `fn` is a
/// callable or a pointer to a MetricsReport member.
template <typename Fn>
double mean_of(const std::vector<MetricsReport>& runs, Fn fn) {
  if (runs.empty()) return 0.0;
  double total = 0.0;
  for (const auto& r : runs) total += static_cast<double>(std::invoke(fn, r));
  return total / static_cast<double>(runs.size());
}

/// One swept knob value with its per-seed runs.
struct SweepPoint {
  double x = 0.0;                    // the swept knob's value
  std::vector<MetricsReport> runs;   // one per seed, in seed order

  /// Full cross-seed distribution summary (see harness/aggregate.h).
  [[nodiscard]] AggregatedMetrics aggregate() const { return aggregate_metrics(runs); }
};

/// The seed used for replica `index` of a grid cell whose seed is
/// `base_seed`. Part of the determinism contract: results are identified by
/// (config, replica_seed(base, i)), never by execution order.
std::uint64_t replica_seed(std::uint64_t base_seed, std::size_t index);

/// Applies one swept knob value to a private config copy. One instance per
/// sweep call; invoked once per x while the cells are built — configuration
/// time, never on the simulated event path.
// dynreg-lint: allow(std-function): one instance per sweep call, invoked while the cells are built
using ConfigureFn = std::function<void(ExperimentConfig&, double)>;

/// Runs `cfg` enrolled in `session` under (fingerprint(cfg), cfg.seed): a
/// recording session captures the run's schedule, a replay session drives
/// the run from the recorded one (see replay/session.h). A null session
/// makes a plain run_experiment.
MetricsReport run_in_session(const ExperimentConfig& cfg, replay::Session* session);

/// The replica engine. Runs `seeds` replicas of every cell: replica `s` of
/// cell `c` is cells[c] with seed replica_seed(cells[c].seed, s), enrolled in
/// `session` (null: plain runs) through run_in_session. All cells x seeds
/// share one flattened task grid with up to `jobs` replicas in flight (0 =
/// one per hardware thread); result[c][s] does not depend on jobs.
std::vector<std::vector<MetricsReport>> run_grid(const std::vector<ExperimentConfig>& cells,
                                                 std::size_t seeds, std::size_t jobs,
                                                 replay::Session* session);

/// run_grid over one cell per x: `configure` applies x to a copy of `base`.
/// Point and run order match the inputs regardless of jobs.
std::vector<SweepPoint> parallel_sweep(const ExperimentConfig& base,
                                       const std::vector<double>& xs,
                                       const ConfigureFn& configure, std::size_t seeds,
                                       std::size_t jobs, replay::Session* session);

}  // namespace dynreg::harness
