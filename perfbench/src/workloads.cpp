#include "workloads.h"

namespace perfbench {

namespace harness = dynreg::harness;

std::optional<WorkloadId> parse_workload(const std::string& name) {
  if (name == "quorum_scale") return WorkloadId::kQuorumScale;
  if (name == "churn_sessions") return WorkloadId::kChurnSessions;
  if (name == "fault_search") return WorkloadId::kFaultSearch;
  return std::nullopt;
}

Spec make_spec(WorkloadId id, std::uint64_t seed, Size size) {
  const bool tiny = size == Size::kTiny;
  Spec spec;
  spec.id = id;
  harness::ExperimentConfig& cfg = spec.cfg;
  cfg.seed = seed;
  cfg.delta = 5;
  switch (id) {
    case WorkloadId::kQuorumScale:
      // E15's --max-n cell: a few O(n) quorum operations over a 1e5-process
      // tree, so sim, net, the arena and the ES handlers do nearly all the
      // work.
      cfg.protocol = harness::Protocol::kEventuallySync;
      cfg.timing = harness::Timing::kEventuallySynchronous;
      cfg.gst = 0;
      cfg.n = tiny ? 2000 : 100000;
      cfg.duration = tiny ? 400 : 500;
      cfg.churn_kind = harness::ChurnKind::kNone;
      cfg.dissemination = harness::Dissemination::kTree;
      cfg.tree_fanout = 4;
      cfg.workload.read_interval = 40;
      cfg.workload.write_interval = 80;
      cfg.chronicle_aggregate = true;
      spec.setup_repeats = 4;
      break;
    case WorkloadId::kChurnSessions:
      // Many cheap local reads beside serialized writes, under constant
      // churn at a twentieth of Theorem 1's bound: joins, shard FIFOs and
      // the checkers over a ~240k-op history.
      cfg.protocol = harness::Protocol::kSync;
      cfg.timing = harness::Timing::kSynchronous;
      cfg.n = tiny ? 1024 : 16384;
      cfg.shard_count = tiny ? 16 : 256;
      cfg.duration = tiny ? 200 : 300;
      cfg.churn_kind = harness::ChurnKind::kConstant;
      cfg.churn_rate = 0.05 * cfg.sync_churn_threshold();
      cfg.workload.clients = cfg.n;
      cfg.workload.think_time = 2;
      cfg.workload.key_count = tiny ? 256 : 4096;
      cfg.workload.zipf_s = 0.99;
      cfg.workload.read_frac = 0.9;
      cfg.chronicle_aggregate = true;
      spec.setup_repeats = 10;
      break;
    case WorkloadId::kFaultSearch:
      // E17's all-classes scenario without the Byzantine class, which is
      // outside the ES fault model: durable crash-recovery plus asymmetric
      // partitions, searched around recorded schedules.
      cfg.protocol = harness::Protocol::kEventuallySync;
      cfg.timing = harness::Timing::kEventuallySynchronous;
      cfg.gst = 0;
      cfg.n = 15;
      cfg.duration = 2500;
      cfg.churn_rate = 0.0;
      cfg.workload.read_interval = 10;
      cfg.workload.write_interval = 60;
      cfg.fault.crash.rate = 0.01;
      cfg.fault.crash.recover_fraction = 1.0;
      cfg.fault.crash.restart = dynreg::fault::RestartState::kDurable;
      cfg.fault.partition.rate = 0.002;
      cfg.fault.partition.duration = 150;
      cfg.fault.partition.fraction = 0.3;
      cfg.fault.partition.asymmetric = true;
      spec.bases = tiny ? 2 : 12;
      spec.search.budget = tiny ? 20 : 100;
      spec.search.jobs = 1;
      spec.setup_repeats = 5;
      break;
  }
  return spec;
}

harness::ExperimentConfig base_config(const Spec& spec, std::size_t b) {
  harness::ExperimentConfig cfg = spec.cfg;
  cfg.seed = dynreg::replay::fold64(spec.cfg.seed, b);
  return cfg;
}

dynreg::replay::SearchOptions base_search(const Spec& spec, std::size_t b) {
  dynreg::replay::SearchOptions opt = spec.search;
  opt.seed = dynreg::replay::fold64(spec.cfg.seed, b);
  return opt;
}

void add_search(SearchCounts& total, const dynreg::replay::SearchResult& result,
                std::size_t b, std::size_t budget) {
  total.executed += result.executed;
  total.violating += result.violating;
  total.inverted += result.inverted;
  if (result.first_violation && !total.first_violation) {
    total.first_violation = b * budget + *result.first_violation;
  }
}

std::uint64_t ops_completed(const harness::MetricsReport& report) {
  return report.reads_completed + report.writes_completed;
}

std::uint64_t ops_failed(const harness::MetricsReport& report) {
  return report.reads_dropped + report.writes_dropped + report.reads_timed_out +
         report.writes_timed_out;
}

Outputs outputs_of(const harness::MetricsReport& r) {
  Outputs o;
  const auto put = [&o](const std::string& name, double v) { o[name] = v; };
  put("ops.reads_issued", static_cast<double>(r.reads_issued));
  put("ops.reads_completed", static_cast<double>(r.reads_completed));
  put("ops.reads_of_bottom", static_cast<double>(r.reads_of_bottom));
  put("ops.writes_issued", static_cast<double>(r.writes_issued));
  put("ops.writes_completed", static_cast<double>(r.writes_completed));
  put("ops.failed", static_cast<double>(ops_failed(r)));
  put("ops.pending", static_cast<double>(r.reads_issued + r.writes_issued -
                                         ops_completed(r) - ops_failed(r)));
  put("ops.retries", static_cast<double>(r.op_retries));
  put("joins.started", static_cast<double>(r.joins_started));
  put("joins.completed", static_cast<double>(r.joins_completed));
  put("joins.abandoned", static_cast<double>(r.joins_abandoned));
  put("joins.latency_mean", r.join_latency_mean);
  put("latency.read_p50", r.read_latency_p50);
  put("latency.read_p99", r.read_latency_p99);
  put("latency.write_p50", r.write_latency_p50);
  put("latency.write_p99", r.write_latency_p99);
  for (const auto& [type, count] : r.msgs_by_type) {
    if (count > 0) put("msgs." + type, static_cast<double>(count));
  }
  put("consistency.reads_checked", static_cast<double>(r.regularity.reads_checked));
  put("consistency.violations", static_cast<double>(r.regularity.violations.size()));
  put("consistency.inversions", static_cast<double>(r.atomicity.inversion_count));
  put("faults.crashes", static_cast<double>(r.faults_crashes));
  put("faults.recoveries", static_cast<double>(r.faults_recoveries));
  put("faults.partitions", static_cast<double>(r.faults_partitions));
  put("faults.heals", static_cast<double>(r.faults_heals));
  put("faults.msgs_cut", static_cast<double>(r.msgs_dropped_partition));
  if (!r.shards.empty()) {
    put("shard.skew", r.shard_skew);
    put("shard.hot_p99", r.shard_hot_p99);
    put("shard.cold_p99", r.shard_cold_p99);
  }
  return o;
}

Outputs outputs_of(const SearchCounts& counts,
                   const std::vector<dynreg::replay::Trace>& bases) {
  Outputs o{
      {"search.executed", static_cast<double>(counts.executed)},
      {"search.violating", static_cast<double>(counts.violating)},
      {"search.inverted", static_cast<double>(counts.inverted)},
      {"search.first_violation",
       counts.first_violation ? static_cast<double>(*counts.first_violation) : -1.0},
  };
  for (const dynreg::replay::Trace& base : bases) {
    o["base.net_records"] += static_cast<double>(base.net.size());
    o["base.churn_records"] += static_cast<double>(base.churn.size());
    o["base.pick_records"] += static_cast<double>(base.picks.size());
    o["base.fault_records"] += static_cast<double>(base.faults.size());
  }
  return o;
}

void check_register_run(const harness::MetricsReport& report,
                        std::vector<std::string>& failures) {
  if (!report.regularity.violations.empty()) {
    failures.push_back("stale reads: " +
                       std::to_string(report.regularity.violations.size()) +
                       " regularity violations");
  }
  if (ops_completed(report) == 0) failures.push_back("no operation completed");
}

void check_search(const SearchCounts& counts, std::vector<std::string>& failures) {
  if (counts.violating > 0) {
    failures.push_back("violating schedules: " + std::to_string(counts.violating));
  }
  if (counts.executed == 0) failures.push_back("no schedule executed");
}

}  // namespace perfbench
