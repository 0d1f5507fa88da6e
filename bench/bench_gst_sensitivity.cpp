// E8 — sensitivity of the ES protocol to the stabilization time and to the
// severity of pre-GST asynchrony.
//
// The protocol never knows GST; operations simply block until quorums get
// through. Three sweeps:
//   1. GST position (no churn): operations issued before GST block and then
//      complete shortly after stabilization — liveness recovers, safety
//      never wavers.
//   2. Pre-GST adversary severity (no churn): harsher pre-GST delays raise
//      latency, not violations.
//   3. GST x churn interplay: with churn on, every tick of asynchrony
//      eats at the active majority (joins cannot complete before GST), so
//      the majority-active assumption |A(t)| > n/2 only survives while the
//      asynchronous period is short relative to 1/c — an emergent
//      constraint the paper's Section 5 assumptions encode.
#include "harness/sweep.h"
#include "registry.h"

namespace dynreg::bench {
namespace {

using harness::ExperimentConfig;
using stats::Cell;

constexpr std::size_t kDefaultSeeds = 3;

ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kEventuallySync;
  cfg.timing = harness::Timing::kEventuallySynchronous;
  cfg.n = 15;
  cfg.delta = 5;
  cfg.duration = 6000;
  cfg.pre_gst_max = 300;
  cfg.churn_kind = harness::ChurnKind::kNone;
  cfg.workload.read_interval = 15;
  cfg.workload.write_interval = 80;
  return cfg;
}

ExperimentResult run(const RunOptions& opts) {
  const std::size_t seeds = opts.seeds > 0 ? opts.seeds : 1;  // resolved by run_resolved()
  ExperimentResult result;

  {
    auto base = base_config();
    apply_workload(opts, base);
    const auto points = harness::parallel_sweep(
        base, {0.0, 500.0, 1000.0, 2000.0, 4000.0},
        [](ExperimentConfig& cfg, double gst) { cfg.gst = static_cast<sim::Time>(gst); },
        seeds, opts.jobs, opts.session);
    stats::DataTable table({"GST", "read completion", "write completion",
                            "mean read latency", "p99-ish max latency", "violation rate"});
    for (const auto& p : points) {
      const auto agg = p.aggregate();
      table.add_row({Cell::num(p.x, 0), Cell::num(agg.read_completion.mean, 3),
                     Cell::num(agg.write_completion.mean, 3),
                     Cell::num(agg.read_latency.mean, 1),
                     Cell::num(agg.read_latency_p99.mean, 0),
                     Cell::num(agg.violation_rate.mean, 4)});
    }
    result.sections.push_back(
        {"gst_position", "sweep 1: stabilization time (no churn; pre-GST max delay 300)",
         std::move(table), ""});
  }

  {
    auto cfg = base_config();
    apply_workload(opts, cfg);
    cfg.gst = 2000;
    const auto points = harness::parallel_sweep(
        cfg, {10.0, 50.0, 150.0, 300.0, 600.0},
        [](ExperimentConfig& c, double m) {
          c.pre_gst_max = static_cast<sim::Duration>(m);
        },
        seeds, opts.jobs, opts.session);
    stats::DataTable table({"pre-GST max delay", "read completion", "write completion",
                            "mean read latency", "violation rate"});
    for (const auto& p : points) {
      const auto agg = p.aggregate();
      table.add_row({Cell::num(p.x, 0), Cell::num(agg.read_completion.mean, 3),
                     Cell::num(agg.write_completion.mean, 3),
                     Cell::num(agg.read_latency.mean, 1),
                     Cell::num(agg.violation_rate.mean, 4)});
    }
    result.sections.push_back(
        {"pre_gst_severity", "sweep 2: pre-GST adversary severity (no churn; GST = 2000)",
         std::move(table), ""});
  }

  {
    auto cfg = base_config();
    apply_workload(opts, cfg);
    cfg.churn_kind = harness::ChurnKind::kConstant;
    cfg.churn_rate = cfg.es_churn_threshold();
    const auto points = harness::parallel_sweep(
        cfg, {0.0, 50.0, 100.0, 250.0, 500.0, 1000.0},
        [](ExperimentConfig& c, double gst) { c.gst = static_cast<sim::Time>(gst); },
        seeds, opts.jobs, opts.session);
    stats::DataTable table({"GST", "majority survived", "joins done / begun",
                            "read completion", "violation rate"});
    for (const auto& p : points) {
      const auto agg = p.aggregate();
      // Raw fraction (not the excused-join completion rate): under heavy
      // asynchrony most joiners are churned out before activating, which
      // the excused rate would hide.
      const double raw_joins = harness::mean_of(p.runs, [](const harness::MetricsReport& r) {
        return r.joins_started == 0 ? 1.0
                                    : static_cast<double>(r.joins_completed) /
                                          static_cast<double>(r.joins_started);
      });
      table.add_row({Cell::num(p.x, 0), Cell::num(agg.majority_active_fraction, 2),
                     Cell::num(raw_joins, 3), Cell::num(agg.read_completion.mean, 3),
                     Cell::num(agg.violation_rate.mean, 4)});
    }
    result.sections.push_back(
        {"gst_churn_interplay", "sweep 3: GST x churn interplay (churn at the ES bound)",
         std::move(table),
         "Expected shape (paper): safety never depends on GST (violation rate 0\n"
         "everywhere — Theorem 4 needs no synchrony); without churn, liveness\n"
         "recovers right after stabilization at any GST, with latency absorbing\n"
         "the wait. With churn on, joins cannot complete while the network is\n"
         "asynchronous, so a long pre-GST period drains |A(t)| below n/2 and the\n"
         "system cannot recover even after GST — the majority-active assumption\n"
         "of Section 5.2 implicitly bounds churn DURING the asynchronous period.\n"});
  }

  return result;
}

Experiment make_experiment() {
  Experiment e;
  e.name = "gst_sensitivity";
  e.id = "E8";
  e.title = "GST sensitivity of the ES protocol";
  e.paper_ref = "Section 5.1 model (eventual timely delivery)";
  e.grid = "GST in {0..4000}; pre-GST max in {10..600}; GST x churn at ES bound";
  e.default_seeds = kDefaultSeeds;
  e.run = run;
  return e;
}

const Registrar registrar{make_experiment()};

}  // namespace
}  // namespace dynreg::bench
