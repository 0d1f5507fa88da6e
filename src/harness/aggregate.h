// Cross-seed aggregation of MetricsReports.
//
// A sweep point runs the same configuration under many seeds; this module
// condenses those per-seed MetricsReports into distribution summaries
// (mean/stddev/min/max/p50/p99) without losing the signals that must not be
// averaged: safety violations are reported as a total across seeds and as
// the worst single seed, because "0.3 mean violations" hides the one seed
// where the register broke.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "harness/metrics.h"

namespace dynreg::harness {

/// Distribution summary of one metric over the seeds of a sweep point.
struct Aggregate {
  double mean = 0.0;
  /// Sample standard deviation (n-1 denominator); 0 when fewer than 2 samples.
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Percentiles by the nearest-rank convention used for per-run latency
  /// percentiles: sorted[min(n-1, floor(p*n))].
  double p50 = 0.0;
  double p99 = 0.0;
};

/// Summarizes `samples` (order irrelevant). An empty vector yields all zeros.
Aggregate aggregate(std::vector<double> samples);

/// Nearest-rank percentile over non-empty sorted samples:
/// sorted[min(n-1, floor(p*n))] — the one convention used everywhere
/// (per-run latency percentiles and cross-seed Aggregate percentiles).
double percentile(const std::vector<double>& sorted, double p);

/// Exact histogram of latency samples in whole ticks, as the client records
/// them: a count per tick, so the samples of a run need neither be copied
/// nor sorted. Its percentile() equals percentile() over the sorted
/// samples, and total() their double sum, bit for bit while the integer
/// total stays below 2^53.
class TickHistogram {
 public:
  /// Adds one sample; it must be a whole, non-negative number of ticks.
  void add(double ticks);
  void add(const std::vector<double>& samples) {
    for (const double s : samples) add(s);
  }
  /// Forgets every sample, keeping the storage.
  void clear();

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double total() const { return static_cast<double>(total_); }
  /// Nearest-rank percentile, as percentile(); count() must be nonzero.
  [[nodiscard]] double percentile(double p) const;

 private:
  /// counts_[t] samples of t ticks, grown to the largest sample seen. A
  /// latency cannot outlast the run, so the column is at most one count
  /// per tick of the run's duration.
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t total_ = 0;
};

/// Everything dynreg_exp reports per sweep point: one Aggregate per scalar
/// metric, plus the non-averageable safety counters.
struct AggregatedMetrics {
  std::size_t seeds = 0;

  Aggregate read_completion;
  Aggregate write_completion;
  Aggregate join_completion;
  Aggregate read_latency;       // over per-seed means
  Aggregate read_latency_p50;   // over per-seed p50s
  Aggregate read_latency_p99;   // over per-seed p99s
  Aggregate write_latency;
  Aggregate write_latency_p50;
  Aggregate write_latency_p99;
  Aggregate join_latency;
  Aggregate violation_rate;
  Aggregate reads_of_bottom;
  Aggregate min_active_3delta;
  /// Per-seed failed attempts by typed outcome (reads + writes combined).
  Aggregate ops_dropped;
  Aggregate ops_timed_out;
  Aggregate op_retries;

  /// Regularity violations summed over every seed. Any nonzero value means
  /// some run's register was unsafe, however good the mean rate looks.
  std::uint64_t violations_total = 0;
  /// Worst single seed — the adversary's best draw.
  std::uint64_t violations_max_seed = 0;
  /// New/old inversions, same non-averaged treatment.
  std::uint64_t inversions_total = 0;
  std::uint64_t inversions_max_seed = 0;
  /// Fraction of seeds in which |A(t)| > n/2 held throughout the run.
  double majority_active_fraction = 0.0;
};

/// Aggregates the per-seed reports of one sweep point.
AggregatedMetrics aggregate_metrics(const std::vector<MetricsReport>& runs);

}  // namespace dynreg::harness
