// parallel_for stress: many threads claiming indices and catching
// exceptions at once. The assertions are ordinary, but the real consumer is
// the TSan preset (cmake --preset tsan) — these tests deliberately provoke
// the orderings a data race would need: helpers racing each other for the
// index counter, result slots written on one thread and read on another,
// and exception propagation under contention.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "harness/parallel_for.h"

namespace dynreg::harness {
namespace {

TEST(ParallelForStress, ParallelForAllIndicesOnceUnderContention) {
  // Every index is claimed once: every slot written exactly once, any jobs.
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    constexpr std::size_t kCount = 10'000;
    std::vector<unsigned char> hit(kCount, 0);
    parallel_for(jobs, kCount, [&hit](std::size_t i) { ++hit[i]; });
    EXPECT_EQ(std::accumulate(hit.begin(), hit.end(), std::size_t{0}), kCount)
        << "jobs=" << jobs;
  }
}

TEST(ParallelForStress, ParallelForPropagatesExceptionUnderContention) {
  // The first thrown exception must surface on the calling thread after all
  // bodies finish — the rethrow path synchronizes with every worker.
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(
      parallel_for(4, 1'000,
                   [&ran](std::size_t i) {
                     ran.fetch_add(1, std::memory_order_relaxed);
                     if (i % 250 == 100) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  EXPECT_EQ(ran.load(), 1'000u);
}

}  // namespace
}  // namespace dynreg::harness
