// The benchmark's three workloads: their configurations (a pure function of
// workload, seed and size), the deterministic outputs each run is checked
// by, and the paper invariants every run must keep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/metrics.h"
#include "replay/search.h"
#include "replay/trace.h"

namespace perfbench {

enum class WorkloadId { kQuorumScale, kChurnSessions, kFaultSearch };

/// kFull is what the benchmark measures; kTiny keeps each workload's shape
/// at a size the benchmark's own tests run in seconds.
enum class Size { kFull, kTiny };

struct Spec {
  WorkloadId id = WorkloadId::kQuorumScale;
  dynreg::harness::ExperimentConfig cfg;
  /// fault_search only: `bases` independent base schedules, base b recorded
  /// from base_config(spec, b) and searched with base_search(spec, b), each
  /// with search.budget variants. Many bases per run keep one seed's base
  /// from deciding the run's cost.
  dynreg::replay::SearchOptions search;
  std::size_t bases = 0;
  /// Set-ups timed per end-to-end process, before its repetition; run.py
  /// reports the median over every set-up of every process of a run.
  int setup_repeats = 1;
};

std::optional<WorkloadId> parse_workload(const std::string& name);
Spec make_spec(WorkloadId id, std::uint64_t seed, Size size);

/// A run's deterministic outputs by name: equal on every run of one
/// (workload, seed, size), on any machine.
using Outputs = std::map<std::string, double>;

dynreg::harness::ExperimentConfig base_config(const Spec& spec, std::size_t b);
dynreg::replay::SearchOptions base_search(const Spec& spec, std::size_t b);

/// What the searches of one run found; first_violation numbers the variants
/// of every base in order (base b's variant i is b * budget + i).
struct SearchCounts {
  std::size_t executed = 0;
  std::size_t violating = 0;
  std::size_t inverted = 0;
  std::optional<std::size_t> first_violation;
};

/// Adds base b's search result to `total`.
void add_search(SearchCounts& total, const dynreg::replay::SearchResult& result,
                std::size_t b, std::size_t budget);

std::uint64_t ops_completed(const dynreg::harness::MetricsReport& report);
/// Operations that resolved with a failure outcome (dropped on departure or
/// timed out). Operations still in flight at the horizon are not counted.
std::uint64_t ops_failed(const dynreg::harness::MetricsReport& report);

Outputs outputs_of(const dynreg::harness::MetricsReport& report);
Outputs outputs_of(const SearchCounts& counts,
                   const std::vector<dynreg::replay::Trace>& bases);

/// Appends one line to `failures` per invariant the run breaks: a stale read
/// (both register workloads run below their protocol's churn bound), or no
/// completed operation at all.
void check_register_run(const dynreg::harness::MetricsReport& report,
                        std::vector<std::string>& failures);
/// The fault scenario stays inside the ES fault model: no schedule may
/// violate regularity.
void check_search(const SearchCounts& counts, std::vector<std::string>& failures);

}  // namespace perfbench
