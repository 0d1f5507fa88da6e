// Deterministic zipfian key sampler for the keyed workload engine
// (src/shard/keyed_workload.h): rank r in [0, keys) is drawn with
// probability proportional to 1/(r+1)^s, via a precomputed CDF and a
// guide table that starts each draw's search within about one CDF entry of
// its answer (Chen and Asau's guide-table method).
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
    // guide_[j] = the first rank whose CDF exceeds j / m, for m the largest
    // power of two no larger than k / 4 (1 below four keys): a 4 KiB table
    // for 4096 keys, whose draws scan about k / 2m = 2 ranks past their
    // cell's entry on average. cdf_[r] <= j / m exactly when
    // ceil(cdf_[r] * m) <= j, and that ceiling grows with r, so each rank
    // marks the cell of its ceiling with its count of ranks so far and a
    // running maximum fills the cells between. Neither sweep has a branch
    // that the CDF's steps make hard to predict.
    std::size_t m = 1;
    while (m <= k / 8) m *= 2;
    guide_.assign(m, 0);
    for (std::size_t r = 0; r < k; ++r) {
      const double x = cdf_[r] * static_cast<double>(m);  // exact: m is a power of two
      auto c = static_cast<std::size_t>(x);
      c += static_cast<double>(c) < x;  // ceil(x)
      if (c < m) guide_[c] = static_cast<std::uint32_t>(r + 1);
    }
    std::uint32_t first = 0;
    for (std::uint32_t& g : guide_) {
      first = std::max(first, g);
      g = first;
    }
  }

  /// Draws one rank (one private-stream draw). Rank 0 is the hottest key.
  std::size_t next() { return rank(rng_.uniform01()); }

  /// The rank a uniform draw u in [0, 1) maps to: the first rank whose CDF
  /// exceeds u, exactly what std::upper_bound over the CDF returns. u * m
  /// is exact for a power of two m, so u lies in [j / m, (j + 1) / m) for
  /// j = floor(u * m), and the answer is at least guide_[j]; the scan from
  /// there ends by the last rank, whose CDF is 1.
  [[nodiscard]] std::size_t rank(double u) const {
    std::size_t r = guide_[static_cast<std::size_t>(u * static_cast<double>(guide_.size()))];
    while (cdf_[r] <= u) ++r;
    return r;
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

  /// cdf()[r] = P(rank <= r); the last entry is exactly 1.
  [[nodiscard]] const std::vector<double>& cdf() const { return cdf_; }

 private:
  std::vector<double> cdf_;  // cdf_[r] = P(rank <= r)
  // See the constructor. A rank fits 32 bits: 2^32 CDF entries would take
  // 32 GiB.
  std::vector<std::uint32_t> guide_;
  sim::Rng rng_;             // private stream; never the run's Rng
};

}  // namespace dynreg::workload
