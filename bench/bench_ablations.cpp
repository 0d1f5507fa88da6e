// E11 — ablations of the design choices the protocols embody:
//
//  (a) Regular vs atomic ES reads: what the read write-back buys (zero
//      new/old inversions) and what it costs (an extra quorum round trip).
//  (b) Footnote 4's optimized join: delta + delta' instead of 2*delta for
//      the inquiry phase.
//  (c) The reliable-channel assumption: what breaks first under omission
//      faults, per protocol.
#include "bench_util.h"
#include "dynreg/messages.h"
#include "harness/sweep.h"
#include "harness/thread_pool.h"
#include "registry.h"

namespace dynreg::bench {
namespace {

using harness::ExperimentConfig;
using harness::mean_of;
using harness::MetricsReport;
using stats::Cell;

constexpr std::size_t kDefaultSeeds = 3;
constexpr std::size_t kInversionTrials = 8;

/// Adversary forcing the textbook new/old inversion on the regular ES
/// variant.
std::unique_ptr<net::DelayModel> inversion_adversary() {
  return std::make_unique<net::AsyncAdversarialDelay>(
      200, [](sim::Time, sim::ProcessId from, sim::ProcessId to,
              const net::Payload& p) -> std::optional<sim::Duration> {
        const net::PayloadTypeId type = p.type_id();
        if (type == msg::kEsWrite && to >= 2) return 100;
        if (type == msg::kEsReply && (from == 0 || from == 1) && to == 2) return 100;
        return 2;
      });
}

/// Runs the scripted scenario once; returns true if the two sequential
/// reads came back inverted (r1 newer than r2).
bool scripted_inversion_occurs(bool atomic_reads, std::uint64_t seed) {
  EsConfig cfg;
  cfg.n = 5;
  cfg.atomic_reads = atomic_reads;
  ScriptedCluster cluster(
      seed, 5, 0.0, churn::LeavePolicy::kUniform, inversion_adversary(),
      group_factory<EsRegisterNode>(cfg));
  cluster.node(0)->write(OpContext{}, 1, [](OpOutcome) {});
  pump_until(cluster.sim, [&] { return cluster.node(1)->local_value() == 1; }, 50);
  const auto r1 = cluster.read_blocking(1, 400);
  const auto r2 = cluster.read_blocking(2, 400);
  return r1.has_value() && r2.has_value() && *r1 > *r2;
}

ResultSection ablate_atomic_reads(const RunOptions& opts, std::size_t seeds) {
  // Harness runs (latency/safety), one cell per variant.
  std::vector<ExperimentConfig> cells;
  for (const bool atomic : {false, true}) {
    ExperimentConfig cfg;
    cfg.protocol = harness::Protocol::kEventuallySync;
    cfg.timing = harness::Timing::kEventuallySynchronous;
    cfg.gst = 0;
    cfg.es_atomic_reads = atomic;
    cfg.n = 9;
    cfg.delta = 8;
    cfg.duration = 4000;
    cfg.churn_kind = harness::ChurnKind::kNone;
    cfg.workload.read_interval = 2;
    cfg.workload.write_interval = 20;
    apply_workload(opts, cfg);
    cfg.seed = 0;  // replicas run at seeds 1009, 2018, ...
    cells.push_back(cfg);
  }
  const auto grid = harness::run_grid(cells, seeds, opts.jobs, opts.session);

  // Scripted inversion trials: variant-major, trial slots pre-assigned.
  std::vector<int> inversions(2 * kInversionTrials, 0);
  harness::parallel_for(opts.jobs, inversions.size(), [&](std::size_t t) {
    const bool atomic = t >= kInversionTrials;
    const std::uint64_t seed = t % kInversionTrials + 1;
    inversions[t] = scripted_inversion_occurs(atomic, seed) ? 1 : 0;
  });

  stats::DataTable table({"ES variant", "read latency", "write latency",
                          "adversarial inversions / " + std::to_string(kInversionTrials),
                          "violation rate"});
  for (const bool atomic : {false, true}) {
    const auto& runs = grid[atomic ? 1 : 0];
    int inverted = 0;
    for (std::size_t t = 0; t < kInversionTrials; ++t) {
      inverted += inversions[(atomic ? kInversionTrials : 0) + t];
    }
    table.add_row({Cell::str(atomic ? "atomic (write-back)" : "regular (paper)"),
                   Cell::num(mean_of(runs, &MetricsReport::read_latency_mean), 2),
                   Cell::num(mean_of(runs, &MetricsReport::write_latency_mean), 2),
                   Cell::num(inverted, 0),
                   Cell::num(mean_of(runs, &MetricsReport::violation_rate), 4)});
  }
  return {"atomic_reads", "(a) regular vs atomic ES reads", std::move(table), ""};
}

ResultSection ablate_fast_join(const RunOptions& opts, std::size_t seeds) {
  const std::vector<std::optional<sim::Duration>> cases{std::nullopt, 2, 1};

  std::vector<ExperimentConfig> cells;
  for (const auto& delta_pp : cases) {
    ExperimentConfig cfg;
    cfg.protocol = harness::Protocol::kSync;
    cfg.n = 30;
    cfg.delta = 10;
    cfg.duration = 3000;
    cfg.churn_rate = 0.01;
    cfg.sync_delta_pp = delta_pp;
    cfg.workload.read_interval = 5;
    cfg.workload.write_interval = 40;
    apply_workload(opts, cfg);
    cfg.seed = 0;
    cells.push_back(cfg);
  }
  const auto grid = harness::run_grid(cells, seeds, opts.jobs, opts.session);

  stats::DataTable table({"join variant", "delta", "delta'", "mean join latency",
                          "violation rate"});
  for (std::size_t c = 0; c < cases.size(); ++c) {
    table.add_row({Cell::str(cases[c] ? "fast (footnote 4)" : "standard (2*delta)"),
                   Cell::str("10"),
                   Cell::str(cases[c] ? std::to_string(*cases[c]) : "-"),
                   Cell::num(mean_of(grid[c], &MetricsReport::join_latency_mean), 2),
                   Cell::num(mean_of(grid[c], &MetricsReport::violation_rate), 4)});
  }
  return {"fast_join", "(b) footnote 4 optimized join", std::move(table), ""};
}

ResultSection ablate_reliability(const RunOptions& opts, std::size_t seeds) {
  const std::vector<double> losses{0.0, 0.05, 0.1, 0.2, 0.4};
  constexpr std::size_t kVariants = 3;  // sync, sync+refresh, es

  auto make_config = [](double loss, std::size_t variant) {
    ExperimentConfig cfg;
    cfg.protocol = harness::Protocol::kSync;
    cfg.n = 20;
    cfg.delta = 5;
    cfg.duration = 2000;
    cfg.churn_rate = 0.005;
    cfg.loss_rate = loss;
    cfg.workload.read_interval = 5;
    cfg.workload.write_interval = 40;
    if (variant == 1) {
      // Anti-entropy extension: active processes re-broadcast their copy
      // every 10 ticks, healing replicas that missed a lost WRITE.
      cfg.sync_refresh_interval = 10;
    } else if (variant == 2) {
      cfg.protocol = harness::Protocol::kEventuallySync;
      cfg.timing = harness::Timing::kEventuallySynchronous;
      cfg.gst = 0;
      cfg.churn_rate = 0.001;
      cfg.workload.read_interval = 20;
      cfg.workload.write_interval = 100;
    }
    return cfg;
  };

  std::vector<ExperimentConfig> cells;
  for (const double loss : losses) {
    for (std::size_t variant = 0; variant < kVariants; ++variant) {
      ExperimentConfig cfg = make_config(loss, variant);
      apply_workload(opts, cfg);
      cfg.seed = 0;
      cells.push_back(cfg);
    }
  }
  const auto grid = harness::run_grid(cells, seeds, opts.jobs, opts.session);

  stats::DataTable table({"loss rate", "sync violation rate",
                          "sync+refresh violation rate", "es read completion",
                          "es violation rate"});
  for (std::size_t i = 0; i < losses.size(); ++i) {
    const std::size_t c = i * kVariants;  // the sync, sync+refresh and es cells
    table.add_row({Cell::num(losses[i], 2),
                   Cell::num(mean_of(grid[c], &MetricsReport::violation_rate), 4),
                   Cell::num(mean_of(grid[c + 1], &MetricsReport::violation_rate), 4),
                   Cell::num(mean_of(grid[c + 2], &MetricsReport::read_completion_rate), 3),
                   Cell::num(mean_of(grid[c + 2], &MetricsReport::violation_rate), 4)});
  }
  return {"reliability", "(c) reliable-channel assumption (omission faults)",
          std::move(table),
          "Expected shapes: (a) the write-back removes every inversion and roughly\n"
          "doubles read latency while write latency is unchanged; (b) join latency\n"
          "drops from ~delta+2*delta towards delta+delta+delta' with no safety\n"
          "cost; (c) the time-based sync protocol degrades to stale reads as soon\n"
          "as channels lose messages (its broadcast is unacknowledged — the paper's\n"
          "reliability assumption is load-bearing); periodic anti-entropy refresh\n"
          "recovers most of that safety for a bandwidth price, while the\n"
          "quorum-based ES protocol keeps safety at every loss rate by\n"
          "construction and only loses liveness.\n"};
}

ExperimentResult run(const RunOptions& opts) {
  const std::size_t seeds = opts.seeds > 0 ? opts.seeds : 1;  // resolved by run_resolved()
  ExperimentResult result;
  result.sections.push_back(ablate_atomic_reads(opts, seeds));
  result.sections.push_back(ablate_fast_join(opts, seeds));
  result.sections.push_back(ablate_reliability(opts, seeds));
  return result;
}

Experiment make_experiment() {
  Experiment e;
  e.name = "ablations";
  e.id = "E11";
  e.title = "design-choice ablations";
  e.paper_ref = "Section 6 extensions; footnote 4; Section 3.2 assumptions";
  e.grid = "(a) {regular, atomic} reads; (b) delta' {-, 2, 1}; (c) loss {0..0.4}";
  e.default_seeds = kDefaultSeeds;
  e.run = run;
  return e;
}

const Registrar registrar{make_experiment()};

}  // namespace
}  // namespace dynreg::bench
