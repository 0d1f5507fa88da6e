// E15 — scaling law: per-operation message cost and latency as the system
// grows, flat vs tree dissemination.
//
// The ES protocol's quorum operations broadcast to every process, so the
// delivered-copy count per operation grows linearly with n under either
// dissemination mode — the scaling law this experiment pins down. What the
// tree changes is who pays: flat dissemination makes the operation's
// initiator transmit all n-1 copies itself, while the BFS tree (fanout f)
// caps every process's per-broadcast transmit load at f and pays for it
// with O(log_f n) hops of extra delivery latency, visible in the latency
// columns.
//
// The default n grid stops at 1e4 so `run --all` stays affordable;
// --max-n=100000 extends it to the 1e5-process point.
#include <algorithm>
#include <string>

#include "harness/sweep.h"
#include "registry.h"

namespace dynreg::bench {
namespace {

using harness::ExperimentConfig;
using harness::MetricsReport;
using stats::Cell;

constexpr std::size_t kDefaultSeeds = 2;

/// Default grid; --max-n truncates or extends it (always keeping at least
/// the smallest point so the table is never empty).
std::vector<double> n_grid(const RunOptions& opts) {
  std::vector<double> grid{100, 300, 1000, 3000, 10000};
  if (opts.max_n != 0) {
    const auto cap = static_cast<double>(opts.max_n);
    grid.erase(std::remove_if(grid.begin() + 1, grid.end(),
                              [cap](double n) { return n > cap; }),
               grid.end());
    if (grid.back() < cap) grid.push_back(cap);
  }
  return grid;
}

ExperimentConfig base_config(harness::Dissemination mode) {
  ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kEventuallySync;
  cfg.timing = harness::Timing::kEventuallySynchronous;
  cfg.seed = 11;
  cfg.delta = 5;
  cfg.gst = 0;
  cfg.duration = 400;
  // No churn: every delivered copy is operation traffic, so copies/op is
  // exactly the dissemination cost (joins are E16's subject).
  cfg.churn_kind = harness::ChurnKind::kNone;
  cfg.dissemination = mode;
  cfg.tree_fanout = 4;
  // A handful of operations per run: the per-op cost is what scales with n,
  // so a fixed op count keeps the biggest cells affordable.
  cfg.workload.read_interval = 40;
  cfg.workload.write_interval = 80;
  return cfg;
}

const char* mode_tag(harness::Dissemination mode) {
  return mode == harness::Dissemination::kFlat ? "flat" : "tree";
}

double copies(const MetricsReport& r, const char* type) {
  const auto it = r.msgs_by_type.find(type);
  return it == r.msgs_by_type.end() ? 0.0 : static_cast<double>(it->second);
}

ExperimentResult run(const RunOptions& opts) {
  const std::size_t seeds = opts.seeds > 0 ? opts.seeds : 1;  // resolved by run_resolved()
  const std::vector<double> grid = n_grid(opts);

  ExperimentResult result;
  stats::DataTable summary(
      {"n", "flat msgs/op", "tree msgs/op", "flat write p50", "tree write p50"});
  std::vector<std::vector<double>> summary_cols(4, std::vector<double>(grid.size(), 0.0));

  for (const harness::Dissemination mode :
       {harness::Dissemination::kFlat, harness::Dissemination::kTree}) {
    ExperimentConfig cfg = base_config(mode);
    apply_workload(opts, cfg);
    const auto points = harness::parallel_sweep(
        cfg, grid,
        [](ExperimentConfig& c, double n) { c.n = static_cast<std::size_t>(n); },
        seeds, opts.jobs, opts.session);

    stats::DataTable table({"n", "ops", "msgs/op", "msgs/op / n", "read p50",
                            "write p50", "write p99"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& p = points[i];
      double ops = 0, msgs = 0, rp50 = 0, wp50 = 0, wp99 = 0;
      for (const MetricsReport& r : p.runs) {
        ops += static_cast<double>(r.reads_completed + r.writes_completed);
        msgs += copies(r, "es.read") + copies(r, "es.reply") +
                copies(r, "es.write") + copies(r, "es.ack");
        rp50 += r.read_latency_p50;
        wp50 += r.write_latency_p50;
        wp99 += r.write_latency_p99;
      }
      const double runs = static_cast<double>(p.runs.size());
      const double per_op = msgs / std::max(1.0, ops);
      table.add_row({Cell::num(p.x, 0), Cell::num(ops / runs, 1),
                     Cell::num(per_op, 1), Cell::num(per_op / p.x, 3),
                     Cell::num(rp50 / runs, 1), Cell::num(wp50 / runs, 1),
                     Cell::num(wp99 / runs, 1)});
      const std::size_t col = mode == harness::Dissemination::kFlat ? 0 : 1;
      summary_cols[col][i] = per_op;
      summary_cols[col + 2][i] = wp50 / runs;
    }
    result.sections.push_back(
        {std::string("es_") + mode_tag(mode),
         std::string("ES quorum ops, ") + mode_tag(mode) + " dissemination",
         std::move(table), ""});
  }

  for (std::size_t i = 0; i < grid.size(); ++i) {
    summary.add_row({Cell::num(grid[i], 0), Cell::num(summary_cols[0][i], 1),
                     Cell::num(summary_cols[1][i], 1),
                     Cell::num(summary_cols[2][i], 1),
                     Cell::num(summary_cols[3][i], 1)});
  }
  result.sections.push_back(
      {"summary", "flat vs tree",
       std::move(summary),
       "Expected shape: msgs/op grows linearly with n under both modes\n"
       "(msgs/op / n roughly constant — quorum traffic is inherently O(n));\n"
       "the tree redistributes the sends from the initiator to the tree's\n"
       "interior and pays O(log n) extra hops of write latency for it —\n"
       "plus, with the ES retransmit timer unchanged, extra rebroadcast\n"
       "rounds while the deeper quorum forms (tree msgs/op > flat)."});
  return result;
}

Experiment make_experiment() {
  Experiment e;
  e.name = "scaling_messages";
  e.id = "E15";
  e.title = "per-op message cost and latency vs n (flat vs tree)";
  e.paper_ref = "Section 5 broadcast cost; dissemination-tree extension";
  e.grid = "dissemination {flat, tree} x n {1e2..1e4; --max-n extends}";
  e.default_seeds = kDefaultSeeds;
  e.run = run;
  e.scenario = [] {
    // Representative run for the trace tooling: the tree cell, mid-grid.
    ExperimentConfig cfg = base_config(harness::Dissemination::kTree);
    cfg.n = 300;
    return cfg;
  };
  return e;
}

const Registrar registrar{make_experiment()};

}  // namespace
}  // namespace dynreg::bench
