#include "harness/aggregate.h"

#include <algorithm>
#include <cmath>

namespace dynreg::harness {

namespace {

// Every projection below is a captureless lambda, so a plain function
// pointer erases them without any allocation or indirection table.
Aggregate over_runs(const std::vector<MetricsReport>& runs,
                    double (*fn)(const MetricsReport&)) {
  std::vector<double> samples;
  samples.reserve(runs.size());
  for (const auto& r : runs) samples.push_back(fn(r));
  return aggregate(std::move(samples));
}

}  // namespace

double percentile(const std::vector<double>& sorted, double p) {
  const std::size_t n = sorted.size();
  const auto idx = std::min(n - 1, static_cast<std::size_t>(p * static_cast<double>(n)));
  return sorted[idx];
}

Aggregate aggregate(std::vector<double> samples) {
  Aggregate a;
  if (samples.empty()) return a;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());

  double total = 0.0;
  for (const double s : samples) total += s;
  a.mean = total / n;

  if (samples.size() >= 2) {
    double sq = 0.0;
    for (const double s : samples) sq += (s - a.mean) * (s - a.mean);
    a.stddev = std::sqrt(sq / (n - 1.0));
  }

  a.min = samples.front();
  a.max = samples.back();
  a.p50 = percentile(samples, 0.50);
  a.p99 = percentile(samples, 0.99);
  return a;
}

AggregatedMetrics aggregate_metrics(const std::vector<MetricsReport>& runs) {
  AggregatedMetrics m;
  m.seeds = runs.size();
  if (runs.empty()) return m;

  m.read_completion = over_runs(runs, [](const auto& r) { return r.read_completion_rate(); });
  m.write_completion =
      over_runs(runs, [](const auto& r) { return r.write_completion_rate(); });
  m.join_completion =
      over_runs(runs, [](const auto& r) { return r.join_completion_rate(); });
  m.read_latency = over_runs(runs, [](const auto& r) { return r.read_latency_mean; });
  m.read_latency_p50 = over_runs(runs, [](const auto& r) { return r.read_latency_p50; });
  m.read_latency_p99 = over_runs(runs, [](const auto& r) { return r.read_latency_p99; });
  m.write_latency = over_runs(runs, [](const auto& r) { return r.write_latency_mean; });
  m.write_latency_p50 =
      over_runs(runs, [](const auto& r) { return r.write_latency_p50; });
  m.write_latency_p99 =
      over_runs(runs, [](const auto& r) { return r.write_latency_p99; });
  m.join_latency = over_runs(runs, [](const auto& r) { return r.join_latency_mean; });
  m.ops_dropped = over_runs(runs, [](const auto& r) {
    return static_cast<double>(r.reads_dropped + r.writes_dropped);
  });
  m.ops_timed_out = over_runs(runs, [](const auto& r) {
    return static_cast<double>(r.reads_timed_out + r.writes_timed_out);
  });
  m.op_retries =
      over_runs(runs, [](const auto& r) { return static_cast<double>(r.op_retries); });
  m.violation_rate = over_runs(runs, [](const auto& r) { return r.violation_rate(); });
  m.reads_of_bottom =
      over_runs(runs, [](const auto& r) { return static_cast<double>(r.reads_of_bottom); });
  m.min_active_3delta = over_runs(runs, [](const auto& r) { return r.min_active_3delta; });

  std::size_t majority_ok = 0;
  for (const auto& r : runs) {
    const auto violations = static_cast<std::uint64_t>(r.regularity.violations.size());
    m.violations_total += violations;
    m.violations_max_seed = std::max(m.violations_max_seed, violations);
    const auto inversions = static_cast<std::uint64_t>(r.atomicity.inversion_count);
    m.inversions_total += inversions;
    m.inversions_max_seed = std::max(m.inversions_max_seed, inversions);
    if (r.majority_active_always) ++majority_ok;
  }
  m.majority_active_fraction =
      static_cast<double>(majority_ok) / static_cast<double>(runs.size());
  return m;
}

}  // namespace dynreg::harness
