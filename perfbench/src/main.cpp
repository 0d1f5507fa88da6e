// dynreg_perfbench: one workload, one seed, one fresh process.
//
//   dynreg_perfbench --workload <quorum_scale|churn_sessions|fault_search>
//                    --seed <n> --trace <0|1>
//                    [--size full|tiny] [--trace-out <file>]
//
// --trace 0 (end to end) times a fixed number of set-ups, then runs the
// workload once through the public entry points (harness::run_experiment,
// which reaches shard::run_sharded for a sharded config, or
// replay::record_base + replay::search). perfbench/run.py runs as many such
// processes as fit in a run and pools them. --trace 1 runs the work
// untraced, then as a World composed from the layer APIs with a span around
// every call into a layer, then untraced again, and reports per-layer
// numbers.
//
// Prints one JSON object on stdout: the run's deterministic outputs, the
// invariant failures, attempts and failures, and the metrics. perfbench/run.py
// adds units and checks the outputs against perfbench/expected.json.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "consistency/regularity_checker.h"
#include "harness/aggregate.h"
#include "harness/experiment.h"
#include "replay/hooks.h"
#include "replay/search.h"
#include "replay/trace.h"
#include "tracer.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {
namespace {

namespace harness = dynreg::harness;
namespace replay = dynreg::replay;

struct Args {
  WorkloadId id = WorkloadId::kQuorumScale;
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  Size size = Size::kFull;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dynreg_perfbench: %s\nusage: dynreg_perfbench --workload "
               "<quorum_scale|churn_sessions|fault_search> --seed <n> "
               "--trace <0|1> [--size full|tiny] [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const std::optional<WorkloadId> id = parse_workload(value);
      if (!id) usage(("unknown workload " + value).c_str());
      a.id = *id;
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") usage("--size takes full or tiny");
      a.size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile, as the harness computes latency percentiles.
double pct(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return harness::percentile(v, p);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double timed(const std::function<void()>& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_map(const char* key, const std::map<std::string, double>& m) {
  std::printf("\"%s\": {", key);
  const char* sep = "";
  for (const auto& [name, value] : m) {
    std::printf("%s%s: %.17g", sep, json_str(name).c_str(), value);
    sep = ", ";
  }
  std::printf("}");
}

/// What one process reports.
struct Result {
  Outputs outputs;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::vector<double>> samples;
};

void print_result(const Args& a, const Result& r) {
  std::printf("{\"workload\": %s, \"seed\": %" PRIu64 ", \"trace\": %d, \"size\": %s, ",
              json_str(a.workload).c_str(), a.seed, a.trace ? 1 : 0,
              json_str(a.size == Size::kTiny ? "tiny" : "full").c_str());
  print_map("outputs", r.outputs);
  std::printf(", \"failures\": [");
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ", json_str(r.failures[i]).c_str());
  }
  std::printf("], \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", ", r.attempted,
              r.failed);
  print_map("metrics", r.metrics);
  std::printf(", \"samples\": {");
  const char* sep = "";
  for (const auto& [name, values] : r.samples) {
    std::printf("%s%s: [", sep, json_str(name).c_str());
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::printf("%s%.9g", i == 0 ? "" : ", ", values[i]);
    }
    std::printf("]");
    sep = ", ";
  }
  std::printf("}}\n");
}

/// Every repetition of one (workload, seed, size) must give the same
/// outputs; a difference is a determinism failure.
void keep_outputs(Result& r, const Outputs& outputs, const char* what) {
  if (r.outputs.empty()) {
    r.outputs = outputs;
  } else if (outputs != r.outputs) {
    r.failures.push_back(std::string(what) + " outputs differ between repetitions");
  }
}

/// Attempts and failures of a register run: an attempt is an op that
/// resolved by the horizon, a failure one that resolved without completing
/// (dropped on departure or timed out). Ops still in flight at the horizon
/// were cut by it, not failed; outputs_of() reports them as ops.pending.
void count_ops(Result& r, const harness::MetricsReport& report) {
  r.failed = ops_failed(report);
  r.attempted = ops_completed(report) + r.failed;
}

// --- end to end ---------------------------------------------------------

Result run_end_to_end(const Spec& spec) {
  Result r;
  std::vector<double>& setup = r.samples["setup_s"];
  const bool search = spec.id == WorkloadId::kFaultSearch;

  // A fixed number of set-ups, so the share of cold ones (the first faults
  // in the heap) never changes.
  std::vector<replay::Trace> bases(spec.bases);
  for (int k = 0; k < spec.setup_repeats; ++k) {
    if (search) {
      setup.push_back(timed([&] {
        for (std::size_t b = 0; b < spec.bases; ++b) {
          bases[b] = replay::record_base(base_config(spec, b));
        }
      }));
    } else {
      std::optional<World> world;  // its teardown is not set-up
      setup.push_back(timed([&] {
        world.emplace(spec.cfg, nullptr);
        world->bootstrap();
      }));
    }
  }

  // One repetition: a process keeps the speed it starts with for its whole
  // life, so further repetitions here would add no independent sample.
  // run.py runs fresh processes instead.
  const Clock::time_point t0 = Clock::now();
  double work = 0.0;  // completed ops or executed schedules
  if (search) {
    SearchCounts counts;
    for (std::size_t b = 0; b < spec.bases; ++b) {
      add_search(counts, replay::search(base_config(spec, b), bases[b], base_search(spec, b)),
                 b, spec.search.budget);
    }
    check_search(counts, r.failures);
    r.metrics["wall_s"] = seconds_since(t0);
    r.outputs = outputs_of(counts, bases);
    r.attempted = counts.executed;
    r.failed = counts.violating;
    work = static_cast<double>(counts.executed);
  } else {
    const harness::MetricsReport report = harness::run_experiment(spec.cfg);
    check_register_run(report, r.failures);
    r.metrics["wall_s"] = seconds_since(t0);
    r.outputs = outputs_of(report);
    count_ops(r, report);
    work = static_cast<double>(ops_completed(report));
  }
  r.metrics["throughput_per_s"] = work / r.metrics["wall_s"];
  r.metrics["setup_s"] = median(setup);
  r.metrics["peak_rss_mib"] = peak_rss_mib();
  return r;
}

// --- traced ---------------------------------------------------------------

/// Counters summed over every world a traced run drives.
struct LayerCounts {
  std::uint64_t events = 0;
  std::vector<double> slice_s;  // wall time of each simulated-time slice
  std::uint64_t arena_bytes = 0;
  std::uint64_t arena_created = 0;
  std::uint64_t arena_recycled = 0;
  dynreg::net::Network::Stats net;
  std::map<std::string, std::uint64_t> delivered;
};

constexpr int kSlices = 100;

/// Runs `world` to its horizon in kSlices equal simulated-time slices,
/// stepping event by event so every dispatched event is counted. The same
/// events, in the same order, as Simulation::run_until(horizon).
void drive(World& world, dynreg::sim::Time horizon, LayerCounts& c) {
  dynreg::sim::Simulation& sim = world.sim();
  for (int s = 1; s <= kSlices; ++s) {
    const dynreg::sim::Time end = horizon * static_cast<dynreg::sim::Time>(s) / kSlices;
    const Clock::time_point t0 = Clock::now();
    for (std::optional<dynreg::sim::Time> t = sim.next_event_time(); t && *t <= end;
         t = sim.next_event_time()) {
      sim.step();
      ++c.events;
    }
    sim.run_until(end);
    c.slice_s.push_back(seconds_since(t0));
  }
}

void collect(World& world, LayerCounts& c) {
  const dynreg::sim::Arena& arena = world.sim().arena();
  c.arena_bytes = std::max<std::uint64_t>(c.arena_bytes, arena.bytes_reserved());
  c.arena_created += arena.chunks_created();
  c.arena_recycled += arena.chunks_recycled();
  for (const Group& g : world.groups()) {
    const dynreg::net::Network::Stats& s = g.net->stats();
    c.net.sent += s.sent;
    c.net.delivered += s.delivered;
    c.net.dropped_departed += s.dropped_departed;
    c.net.dropped_partition += s.dropped_partition;
    for (const auto& [type, count] : g.net->delivered_by_type()) c.delivered[type] += count;
  }
}

/// The checkers once more, over each group's history, in their own span:
/// inside a sharded harvest they cannot be timed from outside. Their
/// counts must equal the harvest's.
void recheck_shards(World& world, Tracer& tr, const harness::MetricsReport& report,
                    std::vector<std::string>& failures) {
  std::size_t reads_checked = 0;
  std::size_t violations = 0;
  std::size_t inversions = 0;
  {
    Scope span(tr, "consistency.check");
    for (const Group& g : world.groups()) {
      const auto reg = dynreg::consistency::RegularityChecker{}.check(*g.history);
      const auto atom = dynreg::consistency::AtomicityChecker{}.check(*g.history);
      reads_checked += reg.reads_checked;
      violations += reg.violations.size();
      inversions += atom.inversion_count;
    }
  }
  if (reads_checked != report.regularity.reads_checked ||
      violations != report.regularity.violations.size() ||
      inversions != report.atomicity.inversion_count) {
    failures.push_back("re-run checkers disagree with the shard harvest");
  }
}

/// One traced world: build, bootstrap, run, harvest, each in its span.
harness::MetricsReport traced_world(const harness::ExperimentConfig& cfg,
                                    const replay::Trace* replay, Tracer& tr,
                                    NodeBuilds& builds, LayerCounts& c,
                                    std::vector<std::string>& failures) {
  std::optional<World> world;
  {
    Scope span(tr, "harness.build");
    world.emplace(cfg, &builds, replay);
  }
  {
    Scope span(tr, "churn.bootstrap");
    world->bootstrap();
  }
  {
    Scope span(tr, "sim.run");
    world->start();
    drive(*world, cfg.duration, c);
  }
  harness::MetricsReport report;
  {
    Scope span(tr, "harness.report");
    report = world->harvest(tr);
    if (cfg.shard_count > 0) recheck_shards(*world, tr, report, failures);
  }
  collect(*world, c);
  return report;
}

/// Sums the fields layer_metrics() reads over a search's variants.
void accumulate(harness::MetricsReport& sum, const harness::MetricsReport& r) {
  sum.reads_issued += r.reads_issued;
  sum.writes_issued += r.writes_issued;
  sum.reads_completed += r.reads_completed;
  sum.writes_completed += r.writes_completed;
  sum.reads_dropped += r.reads_dropped;
  sum.writes_dropped += r.writes_dropped;
  sum.op_retries += r.op_retries;
  sum.faults_crashes += r.faults_crashes;
  sum.faults_recoveries += r.faults_recoveries;
  sum.faults_partitions += r.faults_partitions;
  sum.faults_heals += r.faults_heals;
  sum.regularity.reads_checked += r.regularity.reads_checked;
  sum.regularity.violations.insert(sum.regularity.violations.end(),
                                   r.regularity.violations.begin(),
                                   r.regularity.violations.end());
  sum.atomicity.inversion_count += r.atomicity.inversion_count;
}

void layer_metrics(const Spec& spec, const Tracer& tr, const NodeBuilds& builds,
                   const LayerCounts& c, const harness::MetricsReport& ops,
                   std::map<std::string, double>& m) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double run_s = tr.total("sim.run");
  m["sim.events"] = d(c.events);
  m["sim.run_s"] = run_s;
  m["sim.events_per_s"] = run_s > 0 ? d(c.events) / run_s : 0.0;
  m["sim.slices"] = static_cast<double>(c.slice_s.size());
  m["sim.slice_p50_ms"] = 1e3 * pct(c.slice_s, 0.50);
  m["sim.slice_p90_ms"] = 1e3 * pct(c.slice_s, 0.90);
  m["sim.arena_bytes_reserved"] = d(c.arena_bytes);
  m["sim.arena_chunks_created"] = d(c.arena_created);
  m["sim.arena_chunks_recycled"] = d(c.arena_recycled);

  const double completed = d(ops_completed(ops));
  m["net.copies_sent"] = d(c.net.sent);
  m["net.copies_delivered"] = d(c.net.delivered);
  m["net.dropped_departed"] = d(c.net.dropped_departed);
  m["net.dropped_partition"] = d(c.net.dropped_partition);
  m["net.delivered_per_sent"] = c.net.sent > 0 ? d(c.net.delivered) / d(c.net.sent) : 0.0;
  m["net.copies_per_op"] = completed > 0 ? d(c.net.sent) / completed : 0.0;
  m["net.copies_per_s"] = run_s > 0 ? d(c.net.sent) / run_s : 0.0;
  for (const char* type : {"es.read", "es.reply", "es.write", "es.ack", "sync.write",
                           "sync.inquiry", "sync.reply"}) {
    const auto it = c.delivered.find(type);
    m[std::string("net.delivered.") + type] = it == c.delivered.end() ? 0.0 : d(it->second);
  }
  m["dynreg.node_builds"] = d(builds.count);
  m["dynreg.node_build_s"] = builds.seconds;

  m["churn.bootstrap_s"] = tr.total("churn.bootstrap");
  m["churn.joins_started"] = d(ops.joins_started);
  m["churn.joins_completed"] = d(ops.joins_completed);
  m["churn.joins_abandoned"] = d(ops.joins_abandoned);
  m["churn.join_latency_mean_ticks"] = ops.join_latency_mean;

  m["client.ops_issued"] = d(ops.reads_issued + ops.writes_issued);
  m["client.ops_completed"] = completed;
  m["client.ops_dropped"] = d(ops.reads_dropped + ops.writes_dropped);
  m["client.retries"] = d(ops.op_retries);
  m["client.read_p50_ticks"] = ops.read_latency_p50;
  m["client.read_p99_ticks"] = ops.read_latency_p99;
  m["client.write_p99_ticks"] = ops.write_latency_p99;

  const double check_s = tr.total("consistency.check");
  const bool sharded = spec.cfg.shard_count > 0;
  m["shard.harvest_s"] = sharded ? tr.total("shard.harvest") - check_s : 0.0;
  m["shard.skew"] = ops.shard_skew;
  m["shard.hot_p99_ticks"] = ops.shard_hot_p99;

  m["consistency.check_s"] = check_s;
  m["consistency.reads_checked"] = d(ops.regularity.reads_checked);
  m["consistency.violations"] = d(ops.regularity.violations.size());
  m["consistency.inversions"] = d(ops.atomicity.inversion_count);

  m["harness.build_s"] = tr.total("harness.build");
  // Self time: the report span minus the checker and shard-harvest spans
  // nested in it.
  m["harness.report_s"] = tr.self("harness.report");

  m["fault.crashes"] = d(ops.faults_crashes);
  m["fault.recoveries"] = d(ops.faults_recoveries);
  m["fault.partitions"] = d(ops.faults_partitions);
  m["fault.heals"] = d(ops.faults_heals);

  for (const char* name : {"replay.record_base_s", "replay.trace_records", "replay.perturb_s",
                           "replay.variants", "replay.variant_p50_ms",
                           "replay.variant_p99_ms", "replay.span_share"}) {
    m.emplace(name, 0.0);
  }
}

Result run_traced(const Args& a, const Spec& spec) {
  Result r;
  Tracer tr;
  NodeBuilds builds;
  LayerCounts c;
  harness::MetricsReport ops;  // summed over variants for the search
  double untraced_s = 0.0;
  double traced_s = 0.0;

  // The untraced reference runs before and after the traced run; the
  // overhead is the traced time minus their mean, so drift of the machine's
  // speed across the three runs cancels to first order.
  if (spec.id == WorkloadId::kFaultSearch) {
    std::vector<replay::Trace> bases(spec.bases);
    const auto untraced = [&] {
      SearchCounts want;
      const double s = timed([&] {
        for (std::size_t b = 0; b < spec.bases; ++b) {
          bases[b] = replay::record_base(base_config(spec, b));
          add_search(want,
                     replay::search(base_config(spec, b), bases[b], base_search(spec, b)), b,
                     spec.search.budget);
        }
      });
      check_search(want, r.failures);
      keep_outputs(r, outputs_of(want, bases), "search");
      return s;
    };
    untraced_s = untraced();

    // Traced: the same records, then search's variant loop, each variant a
    // composed world driven by the perturbed schedule.
    const Clock::time_point t0 = Clock::now();
    SearchCounts got;
    for (std::size_t b = 0; b < spec.bases; ++b) {
      const harness::ExperimentConfig cfg = base_config(spec, b);
      const replay::SearchOptions opt = base_search(spec, b);
      {
        Scope span(tr, "replay.record_base");
        bases[b] = replay::record_base(cfg);
      }
      for (std::size_t i = 0; i < opt.budget; ++i) {
        Scope variant_span(tr, "replay.variant");
        replay::Trace variant;
        {
          Scope span(tr, "replay.perturb");
          variant = replay::perturb(bases[b], replay::fold64(opt.seed, i), opt);
        }
        const harness::MetricsReport report =
            traced_world(cfg, &variant, tr, builds, c, r.failures);
        // At the tiny size every variant also runs through run_experiment
        // with the same replay hook, and the two reports must agree.
        if (a.size == Size::kTiny) {
          replay::RunHooks hooks;
          hooks.replay = &variant;
          if (outputs_of(harness::run_experiment(cfg, hooks)) != outputs_of(report)) {
            r.failures.push_back("variant " + std::to_string(b * opt.budget + i) +
                                 ": composed world disagrees with run_experiment");
          }
        }
        replay::SearchResult one;
        one.executed = 1;
        one.violating = replay::violates(report) ? 1 : 0;
        one.inverted = report.atomicity.inversion_count > 0 ? 1 : 0;
        if (one.violating > 0) one.first_violation = i;
        add_search(got, one, b, opt.budget);
        accumulate(ops, report);
      }
    }
    traced_s = seconds_since(t0);
    if (outputs_of(got, bases) != r.outputs) {
      r.failures.push_back("traced variant loop disagrees with replay::search");
    }
    r.attempted = got.executed;
    r.failed = got.violating;
    layer_metrics(spec, tr, builds, c, ops, r.metrics);

    const std::vector<double> variants = tr.durations("replay.variant");
    r.metrics["replay.record_base_s"] = tr.total("replay.record_base");
    double records = 0.0;
    for (const auto& [name, value] : r.outputs) {
      if (name.rfind("base.", 0) == 0) records += value;
    }
    r.metrics["replay.trace_records"] = records;
    r.metrics["replay.perturb_s"] = tr.total("replay.perturb");
    r.metrics["replay.variants"] = static_cast<double>(variants.size());
    r.metrics["replay.variant_p50_ms"] = 1e3 * pct(variants, 0.50);
    r.metrics["replay.variant_p99_ms"] = 1e3 * pct(variants, 0.99);
    r.metrics["replay.span_share"] =
        (tr.total("replay.record_base") + tr.total("replay.variant")) / traced_s;
    untraced_s = 0.5 * (untraced_s + untraced());
  } else {
    const auto untraced = [&] {
      harness::MetricsReport want;
      const double s = timed([&] { want = harness::run_experiment(spec.cfg); });
      check_register_run(want, r.failures);
      keep_outputs(r, outputs_of(want), "run_experiment");
      count_ops(r, want);
      return s;
    };
    untraced_s = untraced();

    const Clock::time_point t0 = Clock::now();
    ops = traced_world(spec.cfg, nullptr, tr, builds, c, r.failures);
    traced_s = seconds_since(t0);
    if (outputs_of(ops) != r.outputs) {
      r.failures.push_back("composed world disagrees with harness::run_experiment");
    }
    layer_metrics(spec, tr, builds, c, ops, r.metrics);
    untraced_s = 0.5 * (untraced_s + untraced());
  }

  r.metrics["trace.untraced_wall_s"] = untraced_s;  // mean of the two
  r.metrics["trace.traced_wall_s"] = traced_s;
  r.metrics["trace.overhead_s"] = traced_s - untraced_s;
  r.metrics["trace.spans"] = static_cast<double>(tr.size());
  r.metrics["sim.run_share"] = traced_s > 0 ? tr.total("sim.run") / traced_s : 0.0;
  r.metrics["consistency.check_share"] =
      traced_s > 0 ? tr.total("consistency.check") / traced_s : 0.0;
  if (!a.trace_out.empty() && !tr.write(a.trace_out, r.metrics)) {
    r.failures.push_back("cannot write " + a.trace_out);
  }
  return r;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  const Spec spec = make_spec(args.id, args.seed, args.size);
  const Result result = args.trace ? run_traced(args, spec) : run_end_to_end(spec);
  print_result(args, result);
  return 0;
}
