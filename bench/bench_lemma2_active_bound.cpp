// E2 — Lemma 2: |A(tau, tau+3*delta)| >= n(1 - 3*delta*c), positive iff
// c < 1/(3*delta).
//
// Sweeps the churn rate as a fraction of the threshold and reports, per
// point: the analytic bound, the measured |A(0, 3*delta)| from the
// fully-active start (the lemma's exact setting), and the steady-state
// minimum over all windows (which also pays the joins-in-progress cost).
// Departures use the adversarial oldest-active-first policy — Lemma 2's
// worst case. One scripted deployment per point: --seeds has no effect.
#include <algorithm>
#include <cmath>

#include "bench_util.h"
#include "harness/parallel_for.h"
#include "registry.h"

namespace dynreg::bench {
namespace {

using stats::Cell;

ExperimentResult run(const RunOptions& opts) {
  constexpr std::size_t kN = 60;
  constexpr sim::Duration kDelta = 5;
  constexpr sim::Time kHorizon = 800;
  const double threshold = 1.0 / (3.0 * static_cast<double>(kDelta));

  const std::vector<double> fractions{0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25};

  struct PointResult {
    std::size_t initial_window = 0;
    std::size_t steady_min = 0;
  };
  std::vector<PointResult> measured(fractions.size());

  harness::parallel_for(opts.jobs, fractions.size(), [&](std::size_t i) {
    const double c = fractions[i] * threshold;
    SyncConfig cfg;
    cfg.delta = kDelta;
    auto cluster = ScriptedCluster::sync(
        17, kN, c, cfg, std::make_unique<net::SynchronousDelay>(kDelta),
        churn::LeavePolicy::kOldestActiveFirst, opts.session,
        replay::scenario_key("E2/lemma2_active_bound", {i}));
    cluster->sim.run_until(kHorizon);

    const auto& chron = cluster->world.system.chronicle();
    const sim::Duration window = 3 * kDelta;
    measured[i].initial_window = chron.active_through(0, window);
    std::size_t steady_min = kN;
    for (sim::Time t = 0; t + window < kHorizon; t += 3) {
      steady_min = std::min(steady_min, chron.active_through(t, t + window));
    }
    measured[i].steady_min = steady_min;
  });

  stats::DataTable table({"c/threshold", "churn c", "analytic n(1-3dc)",
                          "measured |A(0,3d)|", "steady min |A(t,t+3d)|",
                          "bound positive"});
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    const double c = fractions[i] * threshold;
    const double analytic =
        static_cast<double>(kN) * (1.0 - 3.0 * static_cast<double>(kDelta) * c);
    table.add_row({Cell::num(fractions[i], 2), Cell::num(c, 4),
                   Cell::num(std::max(0.0, analytic), 1),
                   Cell::num(static_cast<double>(measured[i].initial_window), 0),
                   Cell::num(static_cast<double>(measured[i].steady_min), 0),
                   Cell::str(analytic > 0.0 ? "yes" : "NO")});
  }

  ExperimentResult result;
  result.sections.push_back(
      {"active_bound", "", std::move(table),
       "Expected shape (paper): measured |A(0,3d)| tracks the analytic bound\n"
       "n(1-3*delta*c) and stays positive up to c = 1/(3*delta) = " +
           stats::fmt(threshold, 4) +
           ".\nThe steady-state minimum is lower (it also excludes processes whose\n"
           "joins are in progress) and hits zero before the threshold — the bound\n"
           "is tight only from a fully-active start, as in the lemma's proof.\n"});
  return result;
}

Experiment make_experiment() {
  Experiment e;
  e.name = "lemma2_active_bound";
  e.id = "E2";
  e.title = "Lemma 2 active-window bound";
  e.paper_ref = "Lemma 2, Section 3.4";
  e.grid = "c/threshold in {0..1.25}, n=60, delta=5, adversarial departures; seeds ignored";
  e.default_seeds = 1;
  e.uses_seeds = false;
  e.run = run;
  return e;
}

const Registrar registrar{make_experiment()};

}  // namespace
}  // namespace dynreg::bench
