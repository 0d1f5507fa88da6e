// The experiment registry: one place where every paper-reproduction
// experiment declares its name, the claim it reproduces, its parameter
// grid, and a run function. The dynreg_exp CLI is a thin driver over this
// table.
//
// Run functions receive RunOptions (seed count, worker count) and return
// structured sections (stats::DataTable) instead of printing — the driver
// chooses the output format (console table, JSON, CSV). Determinism
// contract: for a fixed seed count the returned result is byte-identically
// serializable regardless of `jobs`.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "stats/data_table.h"

namespace dynreg::harness {
struct ExperimentConfig;
}  // namespace dynreg::harness

namespace dynreg::replay {
class Session;
}  // namespace dynreg::replay

namespace dynreg::bench {

/// A CLI flag value after dynreg_exp validated it against the flag's
/// grammar: counts in `n` (an ON/OFF pair's OFF in `m`), decimals in `x`,
/// an "exp:" backoff prefix in `exp`, paths in `text`.
struct FlagValue {
  std::size_t n = 0;
  std::size_t m = 0;
  double x = 0.0;
  bool exp = false;
  std::string text;
};

/// One CLI override of ExperimentConfig fields (--workload, --shards, ...):
/// the flag's captureless setter plus its validated value.
struct ConfigOverride {
  void (*apply)(harness::ExperimentConfig&, const FlagValue&) = nullptr;
  FlagValue value;
};

/// CLI-controlled execution knobs handed to every experiment run function.
struct RunOptions {
  /// Seeds (replicas) per sweep point; 0 means the experiment's default.
  /// Drivers resolve the default via run_resolved() before invoking run, so
  /// run functions see a nonzero value (they fall back to 1 if called
  /// directly with 0). Scripted scenario experiments (deterministic
  /// constructions, no seed dimension) ignore this.
  std::size_t seeds = 0;
  /// Max replicas in flight at once; 0 means one per hardware thread.
  std::size_t jobs = 1;
  /// Ceiling for system-size (n) grids in the scaling experiments (E15,
  /// E16): the default grids stop at an affordable size; passing a larger
  /// --max-n extends them to it (e.g. --max-n=100000 adds a 1e5 point).
  /// 0 means each experiment's default grid. Other experiments ignore it.
  std::size_t max_n = 0;
  /// CLI overrides in command-line order; apply_workload() applies them.
  /// Scripted deterministic constructions (E1, E2, E5) never call it.
  std::vector<ConfigOverride> overrides;
  /// The record/replay session of a `dynreg_exp record|replay` invocation;
  /// null for a plain run. Run functions hand it to every run they want in
  /// the recording (sweeps, harness::run_in_session, ScriptedCluster).
  replay::Session* session = nullptr;
};

/// One table of results plus the paper-shape commentary attached to it.
struct ResultSection {
  /// Stable snake_case identifier (used for CSV file names and JSON keys).
  std::string name;
  /// Optional human heading printed above the table ("" for the main section).
  std::string title;
  stats::DataTable table;
  /// "Expected shape (paper): ..." commentary; console output only.
  std::string note;
};

struct ExperimentResult {
  std::vector<ResultSection> sections;
};

/// A registered experiment: metadata for `dynreg_exp list` plus the run fn.
struct Experiment {
  std::string name;       ///< CLI name, e.g. "sync_churn_sweep".
  std::string id;         ///< Paper-experiment tag, e.g. "E3".
  std::string title;      ///< One-line description.
  std::string paper_ref;  ///< The claim reproduced, e.g. "Theorem 1, Section 3".
  std::string grid;       ///< Human summary of the parameter grid swept.
  std::size_t default_seeds = 3;
  /// False for scripted deterministic constructions whose run function
  /// ignores RunOptions::seeds (E1, E2, E5); emitted metadata then reports
  /// 1 replica instead of echoing a seed count that had no effect.
  bool uses_seeds = true;
  std::function<ExperimentResult(const RunOptions&)> run;
  /// Optional: one representative harness config for this experiment, used
  /// by the trace tooling (`dynreg_exp record|replay|search|minimize`) as
  /// the schedule-perturbation target. Unset for experiments with no single
  /// representative run (scripted constructions, micro-benchmarks).
  std::function<harness::ExperimentConfig()> scenario;
};

/// Process-wide experiment table. Experiments self-register at static
/// initialization time via Registrar; the bench sources are compiled into
/// an OBJECT library so no registration is dropped by the linker.
class ExperimentRegistry {
 public:
  static ExperimentRegistry& instance();

  void add(Experiment e);

  /// Looks an experiment up by CLI name; nullptr when unknown.
  const Experiment* find(const std::string& name) const;

  /// All experiments, ordered by id then name (E1, E2, ... — the paper's
  /// presentation order).
  std::vector<const Experiment*> list() const;

 private:
  std::map<std::string, Experiment> by_name_;
};

/// `static Registrar r{exp};` at namespace scope registers `exp`.
struct Registrar {
  explicit Registrar(Experiment e);
};

/// The seed count a run will actually use (opts.seeds, defaulted).
std::size_t effective_seeds(const Experiment& e, const RunOptions& opts);

/// Applies opts.overrides to cfg in order (fields no flag names keep the
/// experiment's own defaults). Every run_experiment-based run function calls
/// this on each base config it builds.
void apply_workload(const RunOptions& opts, harness::ExperimentConfig& cfg);

/// Invokes e.run with opts.seeds resolved via effective_seeds — the one
/// place the default is applied, so run functions just read opts.seeds and
/// the "seeds" metadata the emitters report always matches what ran.
ExperimentResult run_resolved(const Experiment& e, RunOptions opts);

}  // namespace dynreg::bench
