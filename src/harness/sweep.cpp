#include "harness/sweep.h"

#include "harness/thread_pool.h"
#include "replay/session.h"
#include "replay/trace_io.h"

namespace dynreg::harness {

std::uint64_t replica_seed(std::uint64_t base_seed, std::size_t index) {
  // Keep the original (PR 1) derivation so historical outputs stay valid.
  return base_seed + (static_cast<std::uint64_t>(index) + 1) * 1009;
}

MetricsReport run_in_session(const ExperimentConfig& cfg, replay::Session* session) {
  replay::SessionRun run(session, replay::fingerprint(cfg), cfg.seed);
  MetricsReport report = run_experiment(cfg, run.hooks());
  run.finish(report.trace_hash);
  return report;
}

std::vector<std::vector<MetricsReport>> run_grid(const std::vector<ExperimentConfig>& cells,
                                                 std::size_t seeds, std::size_t jobs,
                                                 replay::Session* session) {
  std::vector<std::vector<MetricsReport>> grid(cells.size(),
                                               std::vector<MetricsReport>(seeds));
  // Flatten the (cell, seed) grid: every replica gets a pre-assigned slot, so
  // the assembled result is independent of scheduling.
  parallel_for(jobs, cells.size() * seeds, [&](std::size_t task) {
    const std::size_t c = task / seeds;
    const std::size_t s = task % seeds;
    ExperimentConfig cfg = cells[c];
    cfg.seed = replica_seed(cells[c].seed, s);
    grid[c][s] = run_in_session(cfg, session);
  });
  return grid;
}

std::vector<SweepPoint> parallel_sweep(const ExperimentConfig& base,
                                       const std::vector<double>& xs,
                                       const ConfigureFn& configure, std::size_t seeds,
                                       std::size_t jobs, replay::Session* session) {
  std::vector<ExperimentConfig> cells(xs.size(), base);
  for (std::size_t i = 0; i < xs.size(); ++i) configure(cells[i], xs[i]);
  auto grid = run_grid(cells, seeds, jobs, session);
  std::vector<SweepPoint> points(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) points[i] = {xs[i], std::move(grid[i])};
  return points;
}

}  // namespace dynreg::harness
