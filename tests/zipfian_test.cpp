// workload::ZipfianPicker: the keyed workload's private-stream sampler.
// Distributional correctness (chi-square against the analytic pmf at
// s = 0.99), determinism across instances (the cross-jobs property: two
// pickers with the same seed produce the same sequence), the rank-0
// head carrying the expected traffic share, negative exponents (the
// coldest rank heaviest) staying finite however large |s| is, and the
// guide-table draw returning exactly what a binary search over the CDF does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "harness/zipfian.h"

namespace dynreg::workload {
namespace {

TEST(Zipfian, ProbabilitiesFormADistribution) {
  const ZipfianPicker p(64, 0.99, 1);
  double total = 0.0;
  for (std::size_t r = 0; r < p.keys(); ++r) {
    EXPECT_GT(p.probability(r), 0.0) << r;
    if (r > 0) {
      EXPECT_LT(p.probability(r), p.probability(r - 1)) << r;
    }
    total += p.probability(r);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Zipfian, ChiSquareAtS099MatchesAnalyticPmf) {
  constexpr std::size_t kKeys = 32;
  constexpr std::size_t kDraws = 200000;
  ZipfianPicker p(kKeys, 0.99, 42);
  std::vector<std::size_t> observed(kKeys, 0);
  for (std::size_t i = 0; i < kDraws; ++i) {
    const std::size_t r = p.next();
    ASSERT_LT(r, kKeys);
    ++observed[r];
  }
  double chi2 = 0.0;
  for (std::size_t r = 0; r < kKeys; ++r) {
    const double expected = p.probability(r) * static_cast<double>(kDraws);
    ASSERT_GT(expected, 5.0) << "cell too thin for chi-square at rank " << r;
    const double d = static_cast<double>(observed[r]) - expected;
    chi2 += d * d / expected;
  }
  // 31 degrees of freedom: the 99.9th percentile is ~61.1. A correct
  // sampler fails this with p < 0.001 (and the draw is deterministic, so
  // the test never flakes).
  EXPECT_LT(chi2, 61.1);
}

TEST(Zipfian, HeadRankDominatesUnderSkew) {
  ZipfianPicker p(64, 0.99, 7);
  std::size_t head = 0;
  constexpr std::size_t kDraws = 50000;
  for (std::size_t i = 0; i < kDraws; ++i) {
    if (p.next() == 0) ++head;
  }
  const double share = static_cast<double>(head) / kDraws;
  // P(0) ~ 0.21 for 64 keys at s = 0.99; uniform would give 0.0156.
  EXPECT_GT(share, 0.15);
  EXPECT_LT(share, 0.30);
}

TEST(Zipfian, SameSeedSameSequenceAcrossInstances) {
  // The cross-jobs determinism property: the picker's stream depends only
  // on its constructor arguments, never on global state or draw context.
  ZipfianPicker a(128, 0.99, 1234);
  ZipfianPicker b(128, 0.99, 1234);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next()) << i;
    ASSERT_EQ(a.uniform01(), b.uniform01()) << i;
  }
}

TEST(Zipfian, DifferentSeedsDiverge) {
  ZipfianPicker a(128, 0.99, 1);
  ZipfianPicker b(128, 0.99, 2);
  bool diverged = false;
  for (int i = 0; i < 100 && !diverged; ++i) diverged = a.next() != b.next();
  EXPECT_TRUE(diverged);
}

TEST(Zipfian, ZeroExponentIsUniform) {
  const ZipfianPicker p(16, 0.0, 1);
  for (std::size_t r = 0; r < p.keys(); ++r) {
    EXPECT_NEAR(p.probability(r), 1.0 / 16.0, 1e-12) << r;
  }
}

TEST(Zipfian, NegativeExponentWeightsRankByItsPower) {
  const ZipfianPicker p(4, -1.0, 1);  // P(r) proportional to r + 1
  for (std::size_t r = 0; r < p.keys(); ++r) {
    EXPECT_NEAR(p.probability(r), static_cast<double>(r + 1) / 10.0, 1e-12) << r;
  }
}

TEST(Zipfian, LargeNegativeExponentStaysFinite) {
  // 1000^400 overflows a double; P(999) = 1 / sum_r ((r+1)/1000)^400,
  // about 0.3304.
  ZipfianPicker p(1000, -400.0, 1);
  for (std::size_t r = 0; r < p.keys(); ++r) {
    ASSERT_TRUE(std::isfinite(p.probability(r))) << r;
  }
  EXPECT_NEAR(p.probability(999), 0.3304, 1e-3);
  std::size_t coldest = 0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) coldest += p.next() == 999 ? 1 : 0;
  EXPECT_GT(coldest, kDraws * 3 / 10);
  EXPECT_LT(coldest, kDraws * 4 / 10);
}

TEST(Zipfian, DegenerateSingleKeySpace) {
  ZipfianPicker p(0, 0.99, 1);  // keys == 0 treated as 1
  EXPECT_EQ(p.keys(), 1u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(p.next(), 0u);
}

/// What next() returned before the guide table: a binary search of the CDF.
std::size_t binary_search_rank(const ZipfianPicker& p, double u) {
  const auto& cdf = p.cdf();
  const auto r = static_cast<std::size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                                          cdf.begin());
  return std::min(r, cdf.size() - 1);
}

/// rank(u) against the binary search at every CDF entry and every guide
/// cell edge j / m (any power of two m up to twice the key count), on both
/// sides of each, and at the ends of [0, 1).
void expect_exact_at_boundaries(const ZipfianPicker& p) {
  std::vector<double> us{0.0, std::nextafter(1.0, 0.0)};
  for (const double c : p.cdf()) {
    us.push_back(std::nextafter(c, 0.0));
    if (c < 1.0) {
      us.push_back(c);
      us.push_back(std::nextafter(c, 1.0));
    }
  }
  for (std::size_t m = 1; m <= 2 * p.keys(); m *= 2) {
    for (std::size_t j = 1; j < m; ++j) {
      const double edge = static_cast<double>(j) / static_cast<double>(m);
      us.push_back(edge);
      us.push_back(std::nextafter(edge, 0.0));
    }
  }
  for (const double u : us) {
    ASSERT_LT(u, 1.0);
    ASSERT_EQ(p.rank(u), binary_search_rank(p, u)) << "u = " << u;
  }
}

TEST(Zipfian, GuidedDrawEqualsBinarySearchAtEveryBoundary) {
  for (const double s : {0.0, 0.99, -1.5, -400.0}) {
    for (const std::size_t keys : {1, 2, 3, 1000, 4096}) {
      SCOPED_TRACE(testing::Message() << "s = " << s << ", keys = " << keys);
      expect_exact_at_boundaries(ZipfianPicker(keys, s, 1));
    }
  }
}

TEST(Zipfian, GuidedDrawEqualsBinarySearchOverAMillionDraws) {
  // A twin picker on the same seed replays each draw's u.
  constexpr int kDraws = 1000000;
  for (const double s : {0.0, 0.99, -1.5}) {
    SCOPED_TRACE(testing::Message() << "s = " << s);
    ZipfianPicker p(4096, s, 99);
    ZipfianPicker twin(4096, s, 99);
    for (int i = 0; i < kDraws; ++i) {
      const std::size_t r = p.next();
      ASSERT_EQ(r, binary_search_rank(twin, twin.uniform01())) << "draw " << i;
    }
  }
  ZipfianPicker single(1, 0.99, 5);
  for (int i = 0; i < kDraws; ++i) ASSERT_EQ(single.next(), 0u) << "draw " << i;
}

}  // namespace
}  // namespace dynreg::workload
