// dynreg_exp — the unified experiment CLI over the experiment registry.
//
// `dynreg_exp --help` prints the usage, generated from the flag table
// below; README.md ("dynreg_exp CLI") explains the commands and flags.
// Aggregated results are byte-identical across --jobs values: parallelism
// only changes wall-clock time, never output (see docs/ARCHITECTURE.md).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "emit.h"
#include "harness/experiment.h"
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
using bench::FlagValue;
using bench::RunOptions;
using harness::ExperimentConfig;

enum class Format { kTable, kJson, kCsv };  // in --format's choice order

/// What one command line asks for: its operands and every field a flag sets.
struct Invocation {
  std::vector<std::string> operands;
  RunOptions run;  ///< --seeds, --jobs, --max-n and the config overrides
  Format format = Format::kTable;
  std::optional<std::string> out;
  bool all = false;
  replay::SearchOptions search;
  replay::MinimizeOptions minimize;
};

/// Subcommands as bits, so a flag row can name every command accepting it.
enum : unsigned { kList = 1, kRun = 2, kRecord = 4, kReplay = 8, kSearch = 16, kMinimize = 32 };

/// A flag's value grammar (see parse_value).
enum class Grammar {
  kSwitch,    ///< no value: "--all"
  kCount,     ///< digits
  kPositive,  ///< digits, not 0
  kDecimal,   ///< non-negative decimal, no sign or exponent
  kFraction,  ///< decimal in [0, 1]
  kChoice,    ///< one of the '|'-separated words in `meta`
  kOnOff,     ///< two counts, "ON/OFF"
  kBackoff,   ///< a count, optionally prefixed "exp:"
  kPath,      ///< non-empty
};

/// One CLI flag and the one field it sets: a field of the Invocation
/// (`set`), or one of every ExperimentConfig the experiment builds
/// (`configure`, deferred through RunOptions::overrides to apply_workload).
struct Flag {
  const char* name;
  Grammar grammar;
  const char* meta;   ///< the value in the usage; kChoice: the choices
  unsigned commands;  ///< the subcommands accepting it
  const char* help;
  void (*set)(Invocation&, const FlagValue&);
  void (*configure)(ExperimentConfig&, const FlagValue&) = nullptr;
  unsigned required = 0;  ///< the subcommands refusing to run without it
};

const Flag kFlags[] = {
    {"--all", Grammar::kSwitch, "", kRun, "run every experiment instead of named ones",
     [](Invocation& i, const FlagValue&) { i.all = true; }},
    {"--seeds", Grammar::kCount, "N", kRun | kRecord,
     "replicas per sweep point (0: the default)",
     [](Invocation& i, const FlagValue& v) { i.run.seeds = v.n; }},
    {"--jobs", Grammar::kCount, "N", kRun | kRecord | kReplay | kSearch,
     "workers (0, the default: one per core)",
     [](Invocation& i, const FlagValue& v) { i.run.jobs = v.n; }},
    {"--format", Grammar::kChoice, "table|json|csv", kRun, "result format (default table)",
     [](Invocation& i, const FlagValue& v) { i.format = static_cast<Format>(v.n); }},
    {"--out", Grammar::kPath, "PATH", kRun | kRecord | kSearch | kMinimize,
     "run: directory for the results; else trace file",
     [](Invocation& i, const FlagValue& v) { i.out = v.text; }, nullptr, kRecord},
    {"--max-n", Grammar::kPositive, "N", kRun, "cap or extend the n grids of E15, E16, E19, E20",
     [](Invocation& i, const FlagValue& v) { i.run.max_n = v.n; }},
    // Workload::Kind lists its engines in the choice order.
    {"--workload", Grammar::kChoice, "open|closed|bursty", kRun, "read-traffic engine",
     nullptr,
     [](ExperimentConfig& c, const FlagValue& v) {
       c.workload.kind = static_cast<workload::Kind>(v.n);
     }},
    {"--clients", Grammar::kPositive, "N", kRun, "closed-loop client sessions", nullptr,
     [](ExperimentConfig& c, const FlagValue& v) { c.workload.clients = v.n; }},
    {"--think", Grammar::kCount, "N", kRun, "closed-loop think time, in ticks", nullptr,
     [](ExperimentConfig& c, const FlagValue& v) { c.workload.think_time = v.n; }},
    {"--burst", Grammar::kOnOff, "ON/OFF", kRun, "bursty on and off phases, in ticks", nullptr,
     [](ExperimentConfig& c, const FlagValue& v) {
       c.workload.burst_on = v.n;
       c.workload.burst_off = v.m;
     }},
    {"--op-deadline", Grammar::kCount, "N", kRun, "per-operation deadline, in ticks", nullptr,
     [](ExperimentConfig& c, const FlagValue& v) { c.workload.op_deadline = v.n; }},
    {"--retry-attempts", Grammar::kPositive, "N", kRun, "attempts per operation", nullptr,
     [](ExperimentConfig& c, const FlagValue& v) {
       c.workload.retry_max_attempts = static_cast<std::uint32_t>(v.n);
     }},
    {"--retry-backoff", Grammar::kBackoff, "[exp:]N", kRun,
     "ticks between attempts; exp: doubles them", nullptr,
     [](ExperimentConfig& c, const FlagValue& v) {
       c.workload.retry_backoff = v.n;
       c.workload.retry_exponential = v.exp;
     }},
    {"--shards", Grammar::kPositive, "N", kRun | kRecord | kReplay,
     "shard count (replay: the recorded one)", nullptr,
     [](ExperimentConfig& c, const FlagValue& v) { c.shard_count = v.n; }},
    {"--zipf", Grammar::kDecimal, "S", kRun, "zipfian skew of the keyed workload", nullptr,
     [](ExperimentConfig& c, const FlagValue& v) { c.workload.zipf_s = v.x; }},
    {"--read-frac", Grammar::kFraction, "F", kRun, "read fraction of the keyed workload",
     nullptr, [](ExperimentConfig& c, const FlagValue& v) { c.workload.read_frac = v.x; }},
    {"--budget", Grammar::kPositive, "N", kSearch, "perturbed schedules to run",
     [](Invocation& i, const FlagValue& v) { i.search.budget = v.n; }},
    {"--seed", Grammar::kCount, "N", kSearch, "root seed of the perturbations",
     [](Invocation& i, const FlagValue& v) { i.search.seed = v.n; }},
    {"--slack", Grammar::kCount, "N", kSearch, "delay headroom past the recorded bound",
     [](Invocation& i, const FlagValue& v) { i.search.delay_slack = v.n; }},
    {"--max-tests", Grammar::kPositive, "N", kMinimize, "replays the minimizer may run",
     [](Invocation& i, const FlagValue& v) { i.minimize.max_tests = v.n; }},
};

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

std::optional<double> parse_decimal(const std::string& s) {
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

/// Validates `text` against `f`'s grammar into `v`; false on a bad value.
bool parse_value(const Flag& f, const std::string& text, FlagValue& v) {
  switch (f.grammar) {
    case Grammar::kSwitch:
      return false;
    case Grammar::kCount:
    case Grammar::kPositive: {
      const auto n = parse_count(text);
      if (!n || (f.grammar == Grammar::kPositive && *n == 0)) return false;
      v.n = *n;
      return true;
    }
    case Grammar::kDecimal:
    case Grammar::kFraction: {
      const auto x = parse_decimal(text);
      if (!x || (f.grammar == Grammar::kFraction && *x > 1.0)) return false;
      v.x = *x;
      return true;
    }
    case Grammar::kChoice: {
      std::istringstream choices(f.meta);
      std::string choice;
      for (v.n = 0; std::getline(choices, choice, '|'); ++v.n) {
        if (choice == text) return true;
      }
      return false;
    }
    case Grammar::kOnOff: {
      const auto slash = text.find('/');
      if (slash == std::string::npos) return false;
      const auto on = parse_count(text.substr(0, slash));
      const auto off = parse_count(text.substr(slash + 1));
      if (!on || !off) return false;
      v.n = *on;
      v.m = *off;
      return true;
    }
    case Grammar::kBackoff: {
      v.exp = text.rfind("exp:", 0) == 0;
      const auto n = parse_count(v.exp ? text.substr(4) : text);
      if (!n) return false;
      v.n = *n;
      return true;
    }
    case Grammar::kPath:
      v.text = text;
      return !text.empty();
  }
  return false;
}

/// What a bad value's message adds after the value.
std::string hint(const Flag& f) {
  switch (f.grammar) {
    case Grammar::kFraction:
      return " (expected [0, 1])";
    case Grammar::kChoice:
      return std::string(" (") + f.meta + ")";
    case Grammar::kOnOff:
      return " (expected ON/OFF ticks)";
    case Grammar::kBackoff:
      return " (expected N or exp:N ticks)";
    case Grammar::kPath:
      return " (expected a path)";
    default:
      return "";
  }
}

/// "--name=META", or just "--name" for a switch.
std::string spelling(const Flag& f) {
  return f.grammar == Grammar::kSwitch ? f.name : std::string(f.name) + "=" + f.meta;
}

int usage(std::ostream& os, int code);

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

int cmd_list(const Invocation&) {
  stats::Table table({"name", "id", "reproduces", "seeds", "parameter grid"});
  for (const Experiment* e : ExperimentRegistry::instance().list()) {
    table.add_row({e->name, e->id, e->paper_ref, std::to_string(e->default_seeds),
                   e->grid});
  }
  std::cout << table.to_string();
  return 0;
}

int cmd_run(const Invocation& inv) {
  // Experiments are named or --all, never both.
  if (inv.all != inv.operands.empty()) return usage(std::cerr, 2);
  std::vector<const Experiment*> todo;
  if (inv.all) {
    todo = ExperimentRegistry::instance().list();
  } else {
    for (const std::string& name : inv.operands) {
      const Experiment* e = ExperimentRegistry::instance().find(name);
      if (e == nullptr) {
        std::cerr << "unknown experiment: " << name << " (see `dynreg_exp list`)\n";
        return 1;
      }
      todo.push_back(e);
    }
  }

  const std::optional<std::string>& out_dir = inv.out;
  if (out_dir) {
    std::error_code ec;
    std::filesystem::create_directories(*out_dir, ec);
    if (ec) {
      std::cerr << "cannot create " << *out_dir << ": " << ec.message() << "\n";
      return 1;
    }
  }

  // Multiple JSON documents on one stdout stream would not parse as a
  // whole; wrap them in a top-level array.
  const bool wrap_json = inv.format == Format::kJson && !out_dir && todo.size() > 1;
  if (wrap_json) std::cout << "[\n";
  bool first = true;

  for (const Experiment* e : todo) {
    const std::size_t seeds = bench::effective_seeds(*e, inv.run);
    const bench::ExperimentResult result = bench::run_resolved(*e, inv.run);

    std::string payload;
    std::string extension;
    switch (inv.format) {
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

int cmd_record(const Invocation& inv) {
  const Experiment* e = resolve_experiment(inv.operands[0]);
  if (e == nullptr) {
    std::cerr << "unknown experiment: " << inv.operands[0] << " (see `dynreg_exp list`)\n";
    return 1;
  }

  replay::Session session;  // recording
  RunOptions opts = inv.run;
  opts.session = &session;
  const std::size_t seeds = bench::effective_seeds(*e, opts);
  const bench::ExperimentResult result = bench::run_resolved(*e, opts);
  replay::TraceFile file;
  file.experiment = e->name;
  file.seeds = {seeds};
  file.traces = session.collected();

  try {
    replay::write_file(*inv.out, file);
  } catch (const replay::TraceError& err) {
    std::cerr << "record: " << err.what() << "\n";
    return 1;
  }
  std::cerr << "recorded " << file.traces.size() << " trace(s), "
            << total_decisions(file.traces) << " decision(s) -> " << *inv.out << "\n";
  std::cout << bench::to_json(*e, seeds, result);
  return 0;
}

int cmd_replay(const Invocation& inv) {
  replay::TraceFile file;
  try {
    file = replay::read_file(inv.operands[0]);
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
  replay::Session session(std::move(file.traces));
  RunOptions opts = inv.run;
  opts.seeds = static_cast<std::size_t>(file.seeds[0]);
  opts.session = &session;
  bench::ExperimentResult result;
  try {
    result = bench::run_resolved(*e, opts);
  } catch (const replay::TraceError& err) {
    std::cerr << "replay: " << err.what() << "\n";
    return 1;
  }
  const std::size_t mismatches = session.hash_mismatches();
  std::cerr << "replayed " << session.replays() << " run(s), " << mismatches
            << " audit-hash mismatch(es)\n";
  std::cout << bench::to_json(*e, opts.seeds, result);
  return mismatches == 0 ? 0 : 1;
}

int cmd_search(const Invocation& inv) {
  const std::string& target = inv.operands[0];
  replay::SearchOptions sopt = inv.search;
  sopt.jobs = inv.run.jobs;

  // The target is an experiment (search its scenario config) or a scenario
  // trace file written by an earlier `search --out`.
  ExperimentConfig cfg;
  std::optional<replay::Trace> base;
  if (const Experiment* e = resolve_experiment(target)) {
    if (!e->scenario) {
      std::cerr << "search: experiment " << e->name
                << " has no scenario config to perturb\n";
      return 1;
    }
    cfg = e->scenario();
  } else {
    replay::TraceFile file;
    try {
      file = replay::read_file(target);
    } catch (const replay::TraceError& err) {
      std::cerr << "search: '" << target
                << "' is neither a known experiment nor a readable trace file ("
                << err.what() << ")\n";
      return 1;
    }
    if (!file.config || file.traces.empty()) {
      std::cerr << "search: " << target
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
    if (inv.out) {
      replay::TraceFile file;
      file.config = cfg;
      file.traces = {res.counterexample};
      try {
        replay::write_file(*inv.out, file);
      } catch (const replay::TraceError& err) {
        std::cerr << "search: " << err.what() << "\n";
        return 1;
      }
      std::cerr << "wrote counterexample -> " << *inv.out << "\n";
    }
  } else {
    std::cout << "no violating schedule found within the budget\n";
    if (inv.out) std::cerr << "nothing to write to " << *inv.out << "\n";
  }
  return 0;
}

int cmd_minimize(const Invocation& inv) {
  const std::string& path = inv.operands[0];
  replay::TraceFile file;
  try {
    file = replay::read_file(path);
  } catch (const replay::TraceError& err) {
    std::cerr << "minimize: " << err.what() << "\n";
    return 1;
  }
  if (!file.config || file.traces.empty()) {
    std::cerr << "minimize: " << path
              << " has no embedded scenario config; minimize expects a "
                 "counterexample written by `dynreg_exp search --out`\n";
    return 1;
  }

  const replay::MinimizeResult res =
      replay::minimize(*file.config, file.traces[0], inv.minimize);
  std::cout << res.narrative;
  std::cerr << "minimized " << res.atoms << " atom(s) to " << res.essential
            << " essential decision(s) in " << res.tests << " replay(s)\n";
  if (!res.violating) {
    std::cerr << "minimize: input trace does not violate regularity on replay\n";
    return 1;
  }
  if (inv.out) {
    replay::TraceFile min_file;
    min_file.config = *file.config;
    min_file.traces = {res.trace};
    try {
      replay::write_file(*inv.out, min_file);
    } catch (const replay::TraceError& err) {
      std::cerr << "minimize: " << err.what() << "\n";
      return 1;
    }
    std::cerr << "wrote minimized trace -> " << *inv.out << "\n";
  }
  return 0;
}

struct Command {
  const char* name;
  unsigned bit;
  const char* operands;  ///< the positional arguments in the usage
  int arity;             ///< how many it takes; -1: any (cmd_run checks)
  int (*run)(const Invocation&);
};

const Command kCommands[] = {
    {"list", kList, "", 0, cmd_list},
    {"run", kRun, "<name>...", -1, cmd_run},
    {"record", kRecord, "<name>", 1, cmd_record},
    {"replay", kReplay, "FILE", 1, cmd_replay},
    {"search", kSearch, "<name|FILE>", 1, cmd_search},
    {"minimize", kMinimize, "FILE", 1, cmd_minimize},
};

int usage(std::ostream& os, int code) {
  // One synopsis per command, wrapped at 80 columns, then one help line per
  // flag.
  for (const Command& c : kCommands) {
    std::string line = std::string(&c == kCommands ? "usage: " : "       ") +
                       "dynreg_exp " + c.name;
    const std::string indent(line.size(), ' ');
    if (*c.operands != '\0') line += std::string(" ") + c.operands;
    for (const Flag& f : kFlags) {
      if ((f.commands & c.bit) == 0) continue;
      const std::string word = (f.required & c.bit) ? spelling(f) : "[" + spelling(f) + "]";
      if (line.size() + 1 + word.size() > 80) {
        os << line << "\n";
        line = indent;
      }
      line += " " + word;
    }
    os << line << "\n";
  }
  std::size_t width = 0;
  for (const Flag& f : kFlags) width = std::max(width, spelling(f).size());
  os << "\nflags:\n";
  for (const Flag& f : kFlags) {
    std::string s = spelling(f);
    s.resize(width + 2, ' ');
    os << "  " << s << f.help << "\n";
  }
  return code;
}

/// The row naming `name` among the flags `command` accepts; a switch only
/// matches without a value, any other flag only with one.
const Flag* find_flag(const std::string& name, bool has_value, unsigned command) {
  for (const Flag& f : kFlags) {
    if (name == f.name && (f.commands & command) != 0 &&
        has_value == (f.grammar != Grammar::kSwitch)) {
      return &f;
    }
  }
  return nullptr;
}

/// Parses `args` against the flags `c` accepts into `inv`. Returns the exit
/// code, after saying why, when the command line is bad; nullopt otherwise.
std::optional<int> parse(const Command& c, const std::vector<std::string>& args,
                         Invocation& inv) {
  std::vector<const Flag*> seen;
  for (const std::string& arg : args) {
    if (arg.empty() || arg[0] != '-') {
      inv.operands.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const Flag* f = find_flag(arg.substr(0, eq), eq != std::string::npos, c.bit);
    if (f == nullptr) {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage(std::cerr, 2);
    }
    FlagValue v;
    if (eq != std::string::npos) {
      const std::string text = arg.substr(eq + 1);
      if (!parse_value(*f, text, v)) {
        std::cerr << "bad " << f->name << " value: " << text << hint(*f) << "\n";
        return 2;
      }
    }
    if (f->configure != nullptr) {
      inv.run.overrides.push_back({f->configure, v});
    } else {
      f->set(inv, v);
    }
    seen.push_back(f);
  }
  for (const Flag& f : kFlags) {
    if ((f.required & c.bit) != 0 && std::find(seen.begin(), seen.end(), &f) == seen.end()) {
      return usage(std::cerr, 2);
    }
  }
  if (c.arity >= 0 && inv.operands.size() != static_cast<std::size_t>(c.arity)) {
    return usage(std::cerr, 2);
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage(std::cerr, 2);
  for (const Command& c : kCommands) {
    if (args[0] != c.name) continue;
    Invocation inv;
    inv.run.jobs = 0;  // parallel by default; output is jobs-independent
    if (const auto code = parse(c, {args.begin() + 1, args.end()}, inv)) return *code;
    try {
      return c.run(inv);
    } catch (const std::invalid_argument& err) {  // a config the run cannot honour
      std::cerr << c.name << ": " << err.what() << "\n";
      return 1;
    }
  }
  if (args[0] == "--help" || args[0] == "-h" || args[0] == "help") {
    return usage(std::cout, 0);
  }
  std::cerr << "unknown command: " << args[0] << "\n";
  return usage(std::cerr, 2);
}
