// E17 — safety envelope under injected faults (docs/FAULTS.md).
//
// Runs each protocol against a ladder of fault classes — none, crash-recovery
// (volatile and durable restarts), an asymmetric partition, Byzantine message
// transforms, and (ES only) Byzantine transforms against the hardened
// protocol — and reports the violation counts the consistency checkers find.
//
// Expected envelope: crash/recovery and partitions are *within* the paper's
// fault model (they are churn plus message loss), so sync and ES stay
// violation-free while their churn assumptions hold; Byzantine transforms
// are *outside* every protocol's fault model, so violations appear — and the
// ES hardening guards recover only the forged-timestamp class, not
// plausibly-timestamped corruption (the paper's protocols authenticate
// nothing, Section 2).
#include "harness/sweep.h"
#include "registry.h"

namespace dynreg::bench {
namespace {

using harness::ExperimentConfig;
using stats::Cell;

constexpr std::size_t kDefaultSeeds = 3;

// The fault-class ladder. Crash rate 0.01/tick over n=15 is c ~ 0.00067 per
// process-tick — inside the ES constraint 1/(3*delta*n) ~ 0.00089 (and far
// inside sync's 1/(3*delta)), so crash scenarios stay within the churn
// envelope where the protocols promise safety.
enum Scenario : int {
  kNone = 0,
  kCrashVolatile = 1,
  kCrashDurable = 2,
  kPartition = 3,
  kByzantine = 4,
  kByzantineHardened = 5,  // ES only: validate_replies + envelope guard
};

const char* scenario_name(int s) {
  switch (s) {
    case kNone:
      return "none";
    case kCrashVolatile:
      return "crash (volatile)";
    case kCrashDurable:
      return "crash (durable)";
    case kPartition:
      return "partition (asym)";
    case kByzantine:
      return "byzantine";
    case kByzantineHardened:
      return "byzantine+guards";
  }
  return "?";
}

void apply_scenario(ExperimentConfig& cfg, double x) {
  switch (static_cast<int>(x)) {
    case kNone:
      break;
    case kCrashVolatile:
      cfg.fault.crash.rate = 0.01;
      cfg.fault.crash.recover_fraction = 1.0;
      cfg.fault.crash.recovery_delay = 20;
      cfg.fault.crash.restart = fault::RestartState::kVolatile;
      break;
    case kCrashDurable:
      cfg.fault.crash.rate = 0.01;
      cfg.fault.crash.recover_fraction = 1.0;
      cfg.fault.crash.recovery_delay = 20;
      cfg.fault.crash.restart = fault::RestartState::kDurable;
      break;
    case kPartition:
      cfg.fault.partition.rate = 0.002;
      cfg.fault.partition.duration = 150;
      cfg.fault.partition.fraction = 0.3;
      cfg.fault.partition.asymmetric = true;
      break;
    case kByzantineHardened:
      cfg.es_validate_replies = true;
      [[fallthrough]];
    case kByzantine:
      cfg.fault.byzantine.fraction = 0.25;
      cfg.fault.byzantine.transform_rate = 0.5;
      // Modest churn (inside every protocol's bound: 1/(3*delta*n) = 0.0044
      // here) keeps join traffic flowing, because the sync protocol's only
      // other value-carrying messages are the pinned honest writer's own
      // broadcasts — without joiners inquiring, its adversary has no surface.
      cfg.churn_rate = 0.003;
      break;
  }
}

ExperimentConfig base_config(harness::Protocol protocol) {
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.timing = protocol == harness::Protocol::kEventuallySync
                   ? harness::Timing::kEventuallySynchronous
                   : harness::Timing::kSynchronous;
  cfg.gst = 0;
  cfg.n = 15;
  cfg.delta = 5;
  cfg.duration = 2500;
  cfg.churn_rate = 0.0;  // membership dynamics come from the fault plan
  cfg.workload.read_interval = 10;
  cfg.workload.write_interval = 60;
  return cfg;
}

ExperimentResult run(const RunOptions& opts) {
  const std::size_t seeds = opts.seeds > 0 ? opts.seeds : 1;  // resolved by run_resolved()

  struct Row {
    harness::Protocol protocol;
    const char* label;
    std::vector<double> scenarios;
  };
  const std::vector<Row> rows{
      {harness::Protocol::kSync,
       "sync",
       {kNone, kCrashVolatile, kCrashDurable, kPartition, kByzantine}},
      {harness::Protocol::kEventuallySync,
       "es",
       {kNone, kCrashVolatile, kCrashDurable, kPartition, kByzantine,
        kByzantineHardened}},
      // ABD cannot readmit recovered processes (fixed replica set), so its
      // crash scenarios are crash-stop attrition — the Section 1 contrast.
      {harness::Protocol::kAbd, "abd", {kNone, kCrashDurable, kPartition, kByzantine}},
  };

  stats::DataTable table({"protocol", "fault class", "crashes", "recoveries",
                          "partitions", "msgs cut", "msgs transformed",
                          "read completion", "write completion",
                          "violations total", "violation rate"});
  for (const Row& row : rows) {
    ExperimentConfig base = base_config(row.protocol);
    apply_workload(opts, base);
    const auto points = harness::parallel_sweep(base, row.scenarios, apply_scenario, seeds,
                                                opts.jobs, opts.session);
    for (const auto& p : points) {
      const auto agg = p.aggregate();
      const auto mean_of = [&p](auto fn) { return harness::mean_of(p.runs, fn); };
      table.add_row(
          {Cell::str(row.label), Cell::str(scenario_name(static_cast<int>(p.x))),
           Cell::num(mean_of([](const harness::MetricsReport& r) {
                       return r.faults_crashes;
                     }),
                     1),
           Cell::num(mean_of([](const harness::MetricsReport& r) {
                       return r.faults_recoveries;
                     }),
                     1),
           Cell::num(mean_of([](const harness::MetricsReport& r) {
                       return r.faults_partitions;
                     }),
                     1),
           Cell::num(mean_of([](const harness::MetricsReport& r) {
                       return r.msgs_dropped_partition;
                     }),
                     0),
           Cell::num(mean_of([](const harness::MetricsReport& r) {
                       return r.msgs_transformed;
                     }),
                     0),
           Cell::num(agg.read_completion.mean, 3),
           Cell::num(agg.write_completion.mean, 3),
           Cell::num(static_cast<double>(agg.violations_total), 0),
           Cell::num(agg.violation_rate.mean, 4)});
    }
  }

  ExperimentResult result;
  result.sections.push_back(
      {"fault_safety", "", std::move(table),
       "Expected shape: crash/recovery and asymmetric partitions stay inside\n"
       "the paper's fault model (churn + omission), so sync and ES report zero\n"
       "violations there — durable restarts merge their image as a floor and\n"
       "volatile restarts re-learn via the join path. Byzantine transforms sit\n"
       "outside every protocol's model: violations appear for all three, and\n"
       "the ES guards (byzantine+guards) remove only the forged-far-future\n"
       "timestamp class, not plausibly-timestamped corruption.\n"});
  return result;
}

Experiment make_experiment() {
  Experiment e;
  e.name = "fault_safety";
  e.id = "E17";
  e.title = "safety envelope under injected faults";
  e.paper_ref = "fault model of Section 2; Theorem 1 / Theorems 3-4 limits";
  e.grid =
      "protocol in {sync, es, abd} x fault class in {none, crash-volatile, "
      "crash-durable, partition, byzantine[, +guards]}; n=15, delta=5";
  e.default_seeds = kDefaultSeeds;
  e.run = run;
  e.scenario = [] {
    // Record/replay target: every fault class armed at once on ES — the
    // trace-v3 acceptance artifact (crashes + a partition + transforms in
    // one recorded fault stream).
    ExperimentConfig cfg = base_config(harness::Protocol::kEventuallySync);
    cfg.fault.crash.rate = 0.01;
    cfg.fault.crash.recover_fraction = 1.0;
    cfg.fault.crash.restart = fault::RestartState::kDurable;
    cfg.fault.partition.rate = 0.002;
    cfg.fault.partition.duration = 150;
    cfg.fault.partition.fraction = 0.3;
    cfg.fault.partition.asymmetric = true;
    cfg.fault.byzantine.fraction = 0.25;
    cfg.fault.byzantine.transform_rate = 0.5;
    return cfg;
  };
  return e;
}

const Registrar registrar{make_experiment()};

}  // namespace
}  // namespace dynreg::bench
