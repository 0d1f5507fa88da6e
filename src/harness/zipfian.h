// Deterministic zipfian key sampler for the keyed workload engine
// (src/shard/keyed_workload.h): rank r in [0, keys) is drawn with
// probability proportional to 1/(r+1)^s, via a precomputed CDF and one
// binary search per draw.
//
// Randomness placement: the picker owns a PRIVATE splitmix64 stream seeded
// by the caller (fold the run seed with a salt), and NEVER draws from the
// run's sim::Rng. Key choices are therefore invisible to the record/replay
// decision streams — the same placement as the client's retry jitter
// (client::RetryPolicy) — so sharded runs record and replay without a new
// trace stream, and the picker's sequence is identical at any --jobs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/rng.h"

namespace dynreg::workload {

class ZipfianPicker {
 public:
  /// `keys` ranks with exponent `s` (s = 0 is uniform). `seed` should be a
  /// salted fold of the run seed, never the raw run Rng state. keys == 0 is
  /// treated as 1 (a degenerate single-key space).
  ZipfianPicker(std::size_t keys, double s, std::uint64_t seed) : rng_(seed) {
    const std::size_t k = keys == 0 ? 1 : keys;
    cdf_.reserve(k);
    double total = 0.0;
    for (std::size_t r = 0; r < k; ++r) {
      // A negative exponent makes the coldest rank the heaviest, and
      // 1/(r+1)^s overflows to inf for large |s|: divide every weight by
      // the largest one, k^(-s), so each stays in (0, 1].
      total += s < 0 ? std::pow(static_cast<double>(r + 1) / static_cast<double>(k), -s)
                     : 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    cdf_.back() = 1.0;  // guard against accumulated rounding
  }

  /// Draws one rank (one private-stream draw). Rank 0 is the hottest key.
  std::size_t next() {
    const double u = rng_.uniform01();
    const std::size_t r = static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(r, cdf_.size() - 1);
  }

  /// One uniform [0,1) draw from the same private stream — the keyed
  /// engine's read/write-mix coin, kept here so a keyed workload consumes
  /// exactly one sanctioned stream.
  double uniform01() { return rng_.uniform01(); }

  /// P(rank) under the configured distribution (for the chi-square test).
  [[nodiscard]] double probability(std::size_t rank) const {
    return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
  }

  [[nodiscard]] std::size_t keys() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // cdf_[r] = P(rank <= r)
  sim::Rng rng_;             // private stream; never the run's Rng
};

}  // namespace dynreg::workload
