// Pins the sort-once + sweep RegularityChecker to the original quadratic
// algorithm: the reference below is a line-for-line copy of the pre-rewrite
// checker, and both run over the same recorded histories — randomized
// multi-writer workloads with incomplete ops, duplicate values, boundary
// ties and bottom reads. Violation counts, per-violation fields, and the
// concurrent-pair count must be identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "consistency/history.h"
#include "consistency/regularity_checker.h"

namespace dynreg::consistency {
namespace {

/// The pre-optimization checker, kept verbatim as the semantic reference.
RegularityReport reference_check(const History& history) {
  RegularityReport report;
  const auto& writes = history.writes();
  const auto& reads = history.reads();

  for (std::size_t i = 1; i < writes.size(); ++i) {
    for (std::size_t j = i + 1; j < writes.size(); ++j) {
      const auto& a = writes[i];
      const auto& b = writes[j];
      const bool disjoint =
          (a.end() && *a.end() < b.begin) || (b.end() && *b.end() < a.begin);
      if (!disjoint) ++report.concurrent_write_pairs;
    }
  }

  for (std::size_t ri = 0; ri < reads.size(); ++ri) {
    const auto& r = reads[ri];
    if (!r.end()) continue;
    ++report.reads_checked;

    sim::Time latest_begin = 0;
    for (const auto& w : writes) {
      if (w.end() && *w.end() < r.begin) latest_begin = std::max(latest_begin, w.begin);
    }

    std::set<Value> legal;
    for (const auto& w : writes) {
      const bool completed_before = w.end() && *w.end() < r.begin;
      const bool concurrent = !completed_before && w.begin <= *r.end();
      if (concurrent) {
        legal.insert(w.value);
      } else if (completed_before && *w.end() >= latest_begin) {
        legal.insert(w.value);
      }
    }

    if (legal.count(r.value) == 0) {
      Violation v;
      v.read = ri;
      v.returned = r.value;
      v.detail = r.value == kBottom ? "read returned bottom" : "stale read";
      report.violations.push_back(v);
    }
  }
  return report;
}

void expect_reports_identical(const History& history) {
  const RegularityReport expected = reference_check(history);
  const RegularityReport actual = RegularityChecker{}.check(history);

  EXPECT_EQ(actual.reads_checked, expected.reads_checked);
  EXPECT_EQ(actual.concurrent_write_pairs, expected.concurrent_write_pairs);
  ASSERT_EQ(actual.violations.size(), expected.violations.size());
  for (std::size_t i = 0; i < expected.violations.size(); ++i) {
    EXPECT_EQ(actual.violations[i].read, expected.violations[i].read);
    EXPECT_EQ(actual.violations[i].returned, expected.violations[i].returned);
    EXPECT_EQ(actual.violations[i].detail, expected.violations[i].detail);
  }
}

/// Randomized history: overlapping multi-writer writes (some incomplete,
/// some with duplicate values), reads returning a mix of plausible, stale,
/// duplicate and bottom values, with frequent equal-tick boundaries.
History make_random_history(std::uint32_t seed, std::size_t n_writes, std::size_t n_reads) {
  std::mt19937 rng(seed);
  History history(0);
  std::vector<Value> issued{0};

  sim::Time t = 1;
  for (std::size_t i = 0; i < n_writes; ++i) {
    t += rng() % 4;  // frequent same-tick begins
    // Duplicate an earlier value 1 time in 8, otherwise a fresh one.
    const Value v = (rng() % 8 == 0 && !issued.empty())
                        ? issued[rng() % issued.size()]
                        : static_cast<Value>(100 + i);
    issued.push_back(v);
    const auto id = history.begin_write(rng() % 5, t, v);
    if (rng() % 6 != 0) {  // 1 in 6 writes never completes
      history.complete_write(id, t + rng() % 7);  // may end the tick it began
    }
  }

  const sim::Time horizon = t + 10;
  for (std::size_t i = 0; i < n_reads; ++i) {
    const sim::Time begin = rng() % horizon;
    const auto id = history.begin_read(5 + rng() % 5, begin);
    if (rng() % 8 == 0) continue;  // some reads never complete
    const sim::Time end = begin + rng() % 9;
    // Mostly some issued value (stale or fresh), occasionally bottom or a
    // value nobody wrote.
    Value v;
    switch (rng() % 10) {
      case 0:
        v = kBottom;
        break;
      case 1:
        v = static_cast<Value>(99999);
        break;
      default:
        v = issued[rng() % issued.size()];
        break;
    }
    history.complete_read(id, end, v);
  }
  return history;
}

TEST(RegularityEquivalence, EmptyAndTinyHistories) {
  expect_reports_identical(History(0));

  History one_write(0);
  const auto w = one_write.begin_write(0, 5, 1);
  one_write.complete_write(w, 7);
  expect_reports_identical(one_write);

  History read_only(0);
  const auto r = read_only.begin_read(1, 3);
  read_only.complete_read(r, 4, 0);
  expect_reports_identical(read_only);
}

TEST(RegularityEquivalence, RandomizedHistoriesMatchReference) {
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    expect_reports_identical(make_random_history(seed, 40, 120));
  }
}

TEST(RegularityEquivalence, LargeHistoryMatchesReference) {
  expect_reports_identical(make_random_history(424242, 200, 1000));
}

}  // namespace
}  // namespace dynreg::consistency
