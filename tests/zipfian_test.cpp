// workload::ZipfianPicker: the keyed workload's private-stream sampler.
// Distributional correctness (chi-square against the analytic pmf at
// s = 0.99), determinism across instances (the cross-jobs property: two
// pickers with the same seed produce the same sequence), and the rank-0
// head carrying the expected traffic share.
#include <gtest/gtest.h>

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

TEST(Zipfian, DegenerateSingleKeySpace) {
  ZipfianPicker p(0, 0.99, 1);  // keys == 0 treated as 1
  EXPECT_EQ(p.keys(), 1u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(p.next(), 0u);
}

}  // namespace
}  // namespace dynreg::workload
