// dynreg_exp — the unified experiment CLI.
//
//   dynreg_exp list
//       Tabulates every registered experiment: name, paper claim, grid.
//   dynreg_exp run <name>... [--seeds=N] [--jobs=N] [--format=F] [--out=DIR]
//              [--workload=W] [--clients=N] [--think=N] [--burst=ON/OFF]
//              [--max-n=N] [--op-deadline=N] [--retry-attempts=N]
//              [--retry-backoff=[exp:]N] [--shards=N] [--zipf=S]
//              [--read-frac=F]
//   dynreg_exp run --all [options]
//       Runs experiments. --seeds sets replicas per sweep point (0/omitted:
//       experiment default); --jobs caps parallel replicas (0: one per
//       hardware thread; default 0); --format is table (default), json, or
//       csv; --out writes <name>.json / <name>.csv / <name>.txt files into
//       DIR instead of stdout. Workload overrides reshape the read traffic
//       of every run_experiment-based experiment: --workload is open
//       (default), closed, or bursty; --clients and --think configure the
//       closed-loop engine; --burst=ON/OFF sets the bursty on/off phase
//       lengths in ticks. --op-deadline arms a per-operation timeout;
//       --retry-attempts budgets re-issues of a timed-out attempt;
//       --retry-backoff=N waits a fixed N ticks between attempts and
//       --retry-backoff=exp:N backs off exponentially (N * 2^k, capped,
//       plus deterministic jitter) — see docs/FAULTS.md. Scripted
//       constructions (E1, E2, E5) ignore all workload overrides.
//       Sharded-keyspace knobs (E19, E20; docs/ARCHITECTURE.md): --shards
//       overrides the shard count, --zipf the zipfian skew exponent of the
//       keyed workload, --read-frac its read fraction in [0, 1].
//   dynreg_exp record <name> --out=FILE [--seeds=N] [--jobs=N] [--shards=N]
//       Runs one experiment with every schedule decision captured, writes
//       the trace set to FILE, and prints the run's JSON to stdout.
//   dynreg_exp replay FILE [--jobs=N] [--shards=N]
//       Re-runs the experiment recorded in FILE driven from its traces and
//       prints the JSON to stdout — byte-identical to the record's, at any
//       --jobs. Exit 1 on any audit-hash mismatch. (see docs/REPLAY.md)
//       Traces are keyed by config, so a recording made with --shards
//       replays with the same --shards.
//   dynreg_exp search <name|FILE> [--budget=N] [--seed=N] [--jobs=N]
//              [--slack=N] [--out=FILE]
//       Adversarial schedule search: records the experiment's scenario run
//       (or loads a scenario FILE), then replays --budget perturbed
//       variants hunting for regularity violations; --out saves the first
//       violating schedule as a scenario trace file.
//   dynreg_exp minimize FILE [--out=FILE] [--max-tests=N]
//       Delta-debugs a violating scenario trace down to its essential
//       decisions and prints the counterexample narrative; --out saves the
//       minimized trace.
//
// Aggregated results are byte-identical across --jobs values: parallelism
// only changes wall-clock time, never output (see docs/ARCHITECTURE.md).
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "emit.h"
#include "registry.h"
#include "replay/minimize.h"
#include "replay/search.h"
#include "replay/session.h"
#include "replay/trace_io.h"
#include "stats/table.h"

namespace {

using namespace dynreg;
using bench::Experiment;
using bench::ExperimentRegistry;
using bench::RunOptions;

enum class Format { kTable, kJson, kCsv };

int usage(std::ostream& os, int code) {
  os << "usage: dynreg_exp list\n"
        "       dynreg_exp run (<name>... | --all) [--seeds=N] [--jobs=N]\n"
        "                  [--format=table|json|csv] [--out=DIR]\n"
        "                  [--workload=open|closed|bursty] [--clients=N]\n"
        "                  [--think=N] [--burst=ON/OFF] [--max-n=N]\n"
        "                  [--op-deadline=N] [--retry-attempts=N]\n"
        "                  [--retry-backoff=[exp:]N] [--shards=N] [--zipf=S]\n"
        "                  [--read-frac=F]\n"
        "       dynreg_exp record <name> --out=FILE [--seeds=N] [--jobs=N]\n"
        "                  [--shards=N]\n"
        "       dynreg_exp replay FILE [--jobs=N] [--shards=N]\n"
        "       dynreg_exp search <name|FILE> [--budget=N] [--seed=N] [--jobs=N]\n"
        "                  [--slack=N] [--out=FILE]\n"
        "       dynreg_exp minimize FILE [--out=FILE] [--max-tests=N]\n";
  return code;
}

int cmd_list() {
  stats::Table table({"name", "id", "reproduces", "seeds", "parameter grid"});
  for (const Experiment* e : ExperimentRegistry::instance().list()) {
    table.add_row({e->name, e->id, e->paper_ref, std::to_string(e->default_seeds),
                   e->grid});
  }
  std::cout << table.to_string();
  return 0;
}

/// Parses "--flag=value"; returns the value when `arg` starts with the flag.
std::optional<std::string> flag_value(const std::string& arg, const std::string& flag) {
  const std::string prefix = flag + "=";
  if (arg.rfind(prefix, 0) != 0) return std::nullopt;
  return arg.substr(prefix.size());
}

std::optional<std::size_t> parse_count(const std::string& s) {
  // Digits only: std::stoul would silently wrap "-1" to SIZE_MAX.
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  try {
    return static_cast<std::size_t>(std::stoul(s));
  } catch (...) {
    return std::nullopt;  // out of range
  }
}

std::optional<double> parse_fraction(const std::string& s) {
  // Non-negative decimals only ("0.99", "1"); rejects signs and exponents so
  // a typo cannot smuggle a surprising value in.
  if (s.empty() || s.find_first_not_of("0123456789.") != std::string::npos ||
      s.find('.') != s.rfind('.')) {
    return std::nullopt;
  }
  try {
    return std::stod(s);
  } catch (...) {
    return std::nullopt;
  }
}

/// --shards=N, shared by run, record and replay. False (after saying why)
/// on a bad value.
bool parse_shards(const std::string& value, RunOptions& opts) {
  const auto n = parse_count(value);
  if (!n || *n == 0) {
    std::cerr << "bad --shards value: " << value << "\n";
    return false;
  }
  opts.workload.shards = *n;
  return true;
}

int cmd_run(const std::vector<std::string>& args) {
  RunOptions opts;
  opts.jobs = 0;  // parallel by default; output is jobs-independent
  Format format = Format::kTable;
  std::optional<std::string> out_dir;
  std::vector<std::string> names;
  bool all = false;

  for (const std::string& arg : args) {
    if (auto v = flag_value(arg, "--seeds")) {
      const auto n = parse_count(*v);
      if (!n) {
        std::cerr << "bad --seeds value: " << *v << "\n";
        return 2;
      }
      opts.seeds = *n;
    } else if (auto vj = flag_value(arg, "--jobs")) {
      const auto n = parse_count(*vj);
      if (!n) {
        std::cerr << "bad --jobs value: " << *vj << "\n";
        return 2;
      }
      opts.jobs = *n;
    } else if (auto vf = flag_value(arg, "--format")) {
      if (*vf == "table") {
        format = Format::kTable;
      } else if (*vf == "json") {
        format = Format::kJson;
      } else if (*vf == "csv") {
        format = Format::kCsv;
      } else {
        std::cerr << "bad --format value: " << *vf << " (table|json|csv)\n";
        return 2;
      }
    } else if (auto vw = flag_value(arg, "--workload")) {
      if (*vw == "open") {
        opts.workload.kind = workload::Kind::kOpenLoop;
      } else if (*vw == "closed") {
        opts.workload.kind = workload::Kind::kClosedLoop;
      } else if (*vw == "bursty") {
        opts.workload.kind = workload::Kind::kBursty;
      } else {
        std::cerr << "bad --workload value: " << *vw << " (open|closed|bursty)\n";
        return 2;
      }
    } else if (auto vc = flag_value(arg, "--clients")) {
      const auto n = parse_count(*vc);
      if (!n || *n == 0) {
        std::cerr << "bad --clients value: " << *vc << "\n";
        return 2;
      }
      opts.workload.clients = *n;
    } else if (auto vt = flag_value(arg, "--think")) {
      const auto n = parse_count(*vt);
      if (!n) {
        std::cerr << "bad --think value: " << *vt << "\n";
        return 2;
      }
      opts.workload.think = static_cast<sim::Duration>(*n);
    } else if (auto vb = flag_value(arg, "--burst")) {
      const auto slash = vb->find('/');
      const auto on = parse_count(vb->substr(0, slash));
      std::optional<std::size_t> off;
      if (slash != std::string::npos) off = parse_count(vb->substr(slash + 1));
      if (!on || !off) {
        std::cerr << "bad --burst value: " << *vb << " (expected ON/OFF ticks)\n";
        return 2;
      }
      opts.workload.burst_on = static_cast<sim::Duration>(*on);
      opts.workload.burst_off = static_cast<sim::Duration>(*off);
    } else if (auto vd = flag_value(arg, "--op-deadline")) {
      const auto n = parse_count(*vd);
      if (!n) {
        std::cerr << "bad --op-deadline value: " << *vd << "\n";
        return 2;
      }
      opts.workload.op_deadline = static_cast<sim::Duration>(*n);
    } else if (auto va = flag_value(arg, "--retry-attempts")) {
      const auto n = parse_count(*va);
      if (!n || *n == 0) {
        std::cerr << "bad --retry-attempts value: " << *va << "\n";
        return 2;
      }
      opts.workload.retry_attempts = static_cast<std::uint32_t>(*n);
    } else if (auto vr = flag_value(arg, "--retry-backoff")) {
      // "--retry-backoff=10" = fixed 10-tick gap between attempts;
      // "--retry-backoff=exp:10" = 10 * 2^k with deterministic jitter.
      std::string spec = *vr;
      bool exponential = false;
      if (spec.rfind("exp:", 0) == 0) {
        exponential = true;
        spec = spec.substr(4);
      }
      const auto n = parse_count(spec);
      if (!n) {
        std::cerr << "bad --retry-backoff value: " << *vr
                  << " (expected N or exp:N ticks)\n";
        return 2;
      }
      opts.workload.retry_backoff = static_cast<sim::Duration>(*n);
      opts.workload.retry_exponential = exponential;
    } else if (auto vsh = flag_value(arg, "--shards")) {
      if (!parse_shards(*vsh, opts)) return 2;
    } else if (auto vz = flag_value(arg, "--zipf")) {
      const auto f = parse_fraction(*vz);
      if (!f) {
        std::cerr << "bad --zipf value: " << *vz << "\n";
        return 2;
      }
      opts.workload.zipf = *f;
    } else if (auto vrf = flag_value(arg, "--read-frac")) {
      const auto f = parse_fraction(*vrf);
      if (!f || *f > 1.0) {
        std::cerr << "bad --read-frac value: " << *vrf << " (expected [0, 1])\n";
        return 2;
      }
      opts.workload.read_frac = *f;
    } else if (auto vm = flag_value(arg, "--max-n")) {
      const auto n = parse_count(*vm);
      if (!n || *n == 0) {
        std::cerr << "bad --max-n value: " << *vm << "\n";
        return 2;
      }
      opts.max_n = *n;
    } else if (auto vo = flag_value(arg, "--out")) {
      out_dir = *vo;
    } else if (arg == "--all") {
      all = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage(std::cerr, 2);
    } else {
      names.push_back(arg);
    }
  }

  std::vector<const Experiment*> todo;
  if (all) {
    todo = ExperimentRegistry::instance().list();
  } else {
    if (names.empty()) return usage(std::cerr, 2);
    for (const std::string& name : names) {
      const Experiment* e = ExperimentRegistry::instance().find(name);
      if (e == nullptr) {
        std::cerr << "unknown experiment: " << name << " (see `dynreg_exp list`)\n";
        return 1;
      }
      todo.push_back(e);
    }
  }

  if (out_dir) std::filesystem::create_directories(*out_dir);

  // Multiple JSON documents on one stdout stream would not parse as a
  // whole; wrap them in a top-level array.
  const bool wrap_json = format == Format::kJson && !out_dir && todo.size() > 1;
  if (wrap_json) std::cout << "[\n";
  bool first = true;

  for (const Experiment* e : todo) {
    const std::size_t seeds = bench::effective_seeds(*e, opts);
    const bench::ExperimentResult result = bench::run_resolved(*e, opts);

    std::string payload;
    std::string extension;
    switch (format) {
      case Format::kTable: {
        if (!out_dir) {
          print_console(*e, result, std::cout);
          continue;
        }
        std::ostringstream os;
        print_console(*e, result, os);
        payload = os.str();
        extension = ".txt";
        break;
      }
      case Format::kJson:
        payload = bench::to_json(*e, seeds, result);
        extension = ".json";
        break;
      case Format::kCsv:
        payload = bench::to_csv(result);
        extension = ".csv";
        break;
    }
    if (out_dir) {
      const std::filesystem::path path =
          std::filesystem::path(*out_dir) / (e->name + extension);
      std::ofstream file(path, std::ios::binary);
      if (!file) {
        std::cerr << "cannot write " << path.string() << "\n";
        return 1;
      }
      file << payload;
      std::cerr << "wrote " << path.string() << "\n";
    } else {
      if (wrap_json) {
        if (!first) std::cout << ",\n";
        while (!payload.empty() && payload.back() == '\n') payload.pop_back();
      }
      std::cout << payload;
      if (wrap_json) std::cout << "\n";
      first = false;
    }
  }
  if (wrap_json) std::cout << "]\n";
  return 0;
}

/// Looks an experiment up by CLI name or paper id ("E4").
const Experiment* resolve_experiment(const std::string& key) {
  if (const Experiment* e = ExperimentRegistry::instance().find(key)) return e;
  for (const Experiment* e : ExperimentRegistry::instance().list()) {
    if (e->id == key) return e;
  }
  return nullptr;
}

std::size_t total_decisions(const std::vector<replay::Trace>& traces) {
  std::size_t total = 0;
  for (const replay::Trace& t : traces) total += t.size();
  return total;
}

int cmd_record(const std::vector<std::string>& args) {
  RunOptions opts;
  opts.jobs = 0;
  std::optional<std::string> out;
  std::vector<std::string> names;
  for (const std::string& arg : args) {
    if (auto v = flag_value(arg, "--seeds")) {
      const auto n = parse_count(*v);
      if (!n) return std::cerr << "bad --seeds value: " << *v << "\n", 2;
      opts.seeds = *n;
    } else if (auto vj = flag_value(arg, "--jobs")) {
      const auto n = parse_count(*vj);
      if (!n) return std::cerr << "bad --jobs value: " << *vj << "\n", 2;
      opts.jobs = *n;
    } else if (auto vsh = flag_value(arg, "--shards")) {
      if (!parse_shards(*vsh, opts)) return 2;
    } else if (auto vo = flag_value(arg, "--out")) {
      out = *vo;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage(std::cerr, 2);
    } else {
      names.push_back(arg);
    }
  }
  if (names.size() != 1 || !out) return usage(std::cerr, 2);
  const Experiment* e = resolve_experiment(names[0]);
  if (e == nullptr) {
    std::cerr << "unknown experiment: " << names[0] << " (see `dynreg_exp list`)\n";
    return 1;
  }

  replay::Session& session = replay::Session::instance();
  session.begin_record();
  const std::size_t seeds = bench::effective_seeds(*e, opts);
  const bench::ExperimentResult result = bench::run_resolved(*e, opts);
  replay::TraceFile file;
  file.experiment = e->name;
  file.seeds = {seeds};
  file.traces = session.collected();
  session.end();

  try {
    replay::write_file(*out, file);
  } catch (const replay::TraceError& err) {
    std::cerr << "record: " << err.what() << "\n";
    return 1;
  }
  std::cerr << "recorded " << file.traces.size() << " trace(s), "
            << total_decisions(file.traces) << " decision(s) -> " << *out << "\n";
  std::cout << bench::to_json(*e, seeds, result);
  return 0;
}

int cmd_replay(const std::vector<std::string>& args) {
  RunOptions opts;
  opts.jobs = 0;
  std::vector<std::string> paths;
  for (const std::string& arg : args) {
    if (auto vj = flag_value(arg, "--jobs")) {
      const auto n = parse_count(*vj);
      if (!n) return std::cerr << "bad --jobs value: " << *vj << "\n", 2;
      opts.jobs = *n;
    } else if (auto vsh = flag_value(arg, "--shards")) {
      if (!parse_shards(*vsh, opts)) return 2;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage(std::cerr, 2);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 1) return usage(std::cerr, 2);

  replay::TraceFile file;
  try {
    file = replay::read_file(paths[0]);
  } catch (const replay::TraceError& err) {
    std::cerr << "replay: " << err.what() << "\n";
    return 1;
  }
  const Experiment* e = resolve_experiment(file.experiment);
  if (e == nullptr) {
    std::cerr << "replay: trace file records unknown experiment '" << file.experiment
              << "'\n";
    return 1;
  }
  if (file.seeds.size() != 1) {
    std::cerr << "replay: trace file is a scenario artifact, not an experiment "
                 "recording (use `dynreg_exp search`/`minimize` on it)\n";
    return 1;
  }
  opts.seeds = static_cast<std::size_t>(file.seeds[0]);

  replay::Session& session = replay::Session::instance();
  session.begin_replay(std::move(file.traces));
  bench::ExperimentResult result;
  try {
    result = bench::run_resolved(*e, opts);
  } catch (const replay::TraceError& err) {
    session.end();
    std::cerr << "replay: " << err.what() << "\n";
    return 1;
  }
  const std::size_t replays = session.replays();
  const std::size_t mismatches = session.hash_mismatches();
  session.end();

  std::cerr << "replayed " << replays << " run(s), " << mismatches
            << " audit-hash mismatch(es)\n";
  std::cout << bench::to_json(*e, opts.seeds, result);
  return mismatches == 0 ? 0 : 1;
}

int cmd_search(const std::vector<std::string>& args) {
  replay::SearchOptions sopt;
  sopt.jobs = 0;
  std::optional<std::string> out;
  std::vector<std::string> targets;
  for (const std::string& arg : args) {
    if (auto v = flag_value(arg, "--budget")) {
      const auto n = parse_count(*v);
      if (!n || *n == 0) return std::cerr << "bad --budget value: " << *v << "\n", 2;
      sopt.budget = *n;
    } else if (auto vs = flag_value(arg, "--seed")) {
      const auto n = parse_count(*vs);
      if (!n) return std::cerr << "bad --seed value: " << *vs << "\n", 2;
      sopt.seed = static_cast<std::uint64_t>(*n);
    } else if (auto vj = flag_value(arg, "--jobs")) {
      const auto n = parse_count(*vj);
      if (!n) return std::cerr << "bad --jobs value: " << *vj << "\n", 2;
      sopt.jobs = *n;
    } else if (auto vk = flag_value(arg, "--slack")) {
      const auto n = parse_count(*vk);
      if (!n) return std::cerr << "bad --slack value: " << *vk << "\n", 2;
      sopt.delay_slack = static_cast<sim::Duration>(*n);
    } else if (auto vo = flag_value(arg, "--out")) {
      out = *vo;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage(std::cerr, 2);
    } else {
      targets.push_back(arg);
    }
  }
  if (targets.size() != 1) return usage(std::cerr, 2);

  // The target is an experiment (search its scenario config) or a scenario
  // trace file written by an earlier `search --out`.
  harness::ExperimentConfig cfg;
  std::optional<replay::Trace> base;
  if (const Experiment* e = resolve_experiment(targets[0])) {
    if (!e->scenario) {
      std::cerr << "search: experiment " << e->name
                << " has no scenario config to perturb\n";
      return 1;
    }
    cfg = e->scenario();
  } else {
    replay::TraceFile file;
    try {
      file = replay::read_file(targets[0]);
    } catch (const replay::TraceError& err) {
      std::cerr << "search: '" << targets[0]
                << "' is neither a known experiment nor a readable trace file ("
                << err.what() << ")\n";
      return 1;
    }
    if (!file.config || file.traces.empty()) {
      std::cerr << "search: " << targets[0]
                << " has no embedded scenario config (record one with "
                   "`dynreg_exp search <experiment> --out=FILE`)\n";
      return 1;
    }
    cfg = *file.config;
    base = std::move(file.traces[0]);
  }
  if (!base) base = replay::record_base(cfg);

  const auto t0 = std::chrono::steady_clock::now();  // dynreg-lint: allow(wall-clock): throughput report only; search results are jobs- and time-independent
  const replay::SearchResult res = replay::search(cfg, *base, sopt);
  const auto t1 = std::chrono::steady_clock::now();  // dynreg-lint: allow(wall-clock): throughput report only
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  std::cout << "searched " << res.executed << " perturbed schedule(s): "
            << res.violating << " violating, " << res.inverted
            << " with new/old inversions, " << res.distinct_schedules
            << " distinct schedule(s)\n";
  if (secs > 0.0) {
    std::cout << "throughput: "
              << static_cast<std::size_t>(static_cast<double>(res.executed) / secs)
              << " schedules/s\n";
  }
  if (res.first_violation) {
    std::cout << "first violating variant: #" << *res.first_violation << " ("
              << res.counterexample.size() << " recorded decisions, "
              << res.counterexample_report.regularity.violations.size()
              << " stale read(s))\n";
    if (out) {
      replay::TraceFile file;
      file.config = cfg;
      file.traces = {res.counterexample};
      try {
        replay::write_file(*out, file);
      } catch (const replay::TraceError& err) {
        std::cerr << "search: " << err.what() << "\n";
        return 1;
      }
      std::cerr << "wrote counterexample -> " << *out << "\n";
    }
  } else {
    std::cout << "no violating schedule found within the budget\n";
    if (out) std::cerr << "nothing to write to " << *out << "\n";
  }
  return 0;
}

int cmd_minimize(const std::vector<std::string>& args) {
  replay::MinimizeOptions mopt;
  std::optional<std::string> out;
  std::vector<std::string> paths;
  for (const std::string& arg : args) {
    if (auto v = flag_value(arg, "--max-tests")) {
      const auto n = parse_count(*v);
      if (!n || *n == 0) return std::cerr << "bad --max-tests value: " << *v << "\n", 2;
      mopt.max_tests = *n;
    } else if (auto vo = flag_value(arg, "--out")) {
      out = *vo;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage(std::cerr, 2);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 1) return usage(std::cerr, 2);

  replay::TraceFile file;
  try {
    file = replay::read_file(paths[0]);
  } catch (const replay::TraceError& err) {
    std::cerr << "minimize: " << err.what() << "\n";
    return 1;
  }
  if (!file.config || file.traces.empty()) {
    std::cerr << "minimize: " << paths[0]
              << " has no embedded scenario config; minimize expects a "
                 "counterexample written by `dynreg_exp search --out`\n";
    return 1;
  }

  const replay::MinimizeResult res =
      replay::minimize(*file.config, file.traces[0], mopt);
  std::cout << res.narrative;
  std::cerr << "minimized " << res.atoms << " atom(s) to " << res.essential
            << " essential decision(s) in " << res.tests << " replay(s)\n";
  if (!res.violating) {
    std::cerr << "minimize: input trace does not violate regularity on replay\n";
    return 1;
  }
  if (out) {
    replay::TraceFile min_file;
    min_file.config = *file.config;
    min_file.traces = {res.trace};
    try {
      replay::write_file(*out, min_file);
    } catch (const replay::TraceError& err) {
      std::cerr << "minimize: " << err.what() << "\n";
      return 1;
    }
    std::cerr << "wrote minimized trace -> " << *out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage(std::cerr, 2);
  const std::vector<std::string> rest{args.begin() + 1, args.end()};
  if (args[0] == "list") return cmd_list();
  if (args[0] == "run") return cmd_run(rest);
  if (args[0] == "record") return cmd_record(rest);
  if (args[0] == "replay") return cmd_replay(rest);
  if (args[0] == "search") return cmd_search(rest);
  if (args[0] == "minimize") return cmd_minimize(rest);
  if (args[0] == "--help" || args[0] == "-h" || args[0] == "help") {
    return usage(std::cout, 0);
  }
  std::cerr << "unknown command: " << args[0] << "\n";
  return usage(std::cerr, 2);
}
