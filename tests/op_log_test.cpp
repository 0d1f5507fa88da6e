// The per-operation logs: History's 32 B records in fixed chunks, the
// client's 32 B result row, and the harvest's exact tick histograms.
//
// The checkers are pinned to their vector-backed form: the reference below
// is the code of RegularityChecker::check and AtomicityChecker::check,
// verbatim but for comments, as it read a History of two std::vectors of
// 40 B records (std::optional end). Both run over the same random
// client-shaped histories — several writers, retried attempts whose first
// interval stays open, completions landing in earlier chunks — and every
// report field must be identical.
// TickHistogram is pinned the same way to percentile() over the sorted
// samples and to the double sum of the samples.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "client/client.h"
#include "consistency/history.h"
#include "consistency/regularity_checker.h"
#include "harness/aggregate.h"

namespace dynreg {
namespace {

using consistency::History;
using consistency::InversionReport;
using consistency::OpId;
using consistency::RegularityReport;
using consistency::Violation;

// ---------------------------------------------------------------------------
// The vector-backed history and its checkers.

struct VectorHistory {
  struct WriteOp {
    sim::ProcessId writer = 0;
    sim::Time begin = 0;
    std::optional<sim::Time> end;  // unset: never completed
    Value value = kBottom;
  };
  struct ReadOp {
    sim::ProcessId reader = 0;
    sim::Time begin = 0;
    std::optional<sim::Time> end;  // unset: never completed
    Value value = kBottom;
  };
  const std::vector<WriteOp>& writes() const { return writes_; }
  const std::vector<ReadOp>& reads() const { return reads_; }

  std::vector<WriteOp> writes_;
  std::vector<ReadOp> reads_;
};

VectorHistory copy_of(const History& h) {
  VectorHistory v;
  for (const History::Op& w : h.writes()) {
    v.writes_.push_back({w.process, w.begin, w.end(), w.value});
  }
  for (const History::Op& r : h.reads()) {
    v.reads_.push_back({r.process, r.begin, r.end(), r.value});
  }
  return v;
}

RegularityReport reference_regularity(const VectorHistory& history) {
  RegularityReport report;
  const auto& writes = history.writes();
  const auto& reads = history.reads();

  struct CompletedWrite {
    sim::Time end = 0;
    sim::Time begin = 0;
  };
  std::vector<CompletedWrite> by_end;
  by_end.reserve(writes.size());
  for (const auto& w : writes) {
    if (w.end) by_end.push_back(CompletedWrite{*w.end, w.begin});
  }
  std::sort(by_end.begin(), by_end.end(),
            [](const CompletedWrite& a, const CompletedWrite& b) { return a.end < b.end; });
  std::vector<sim::Time> prefix_max_begin(by_end.size());
  sim::Time running = 0;
  for (std::size_t i = 0; i < by_end.size(); ++i) {
    running = std::max(running, by_end[i].begin);
    prefix_max_begin[i] = running;
  }
  const auto completed_before = [&by_end](sim::Time at) {
    return static_cast<std::size_t>(
        std::lower_bound(by_end.begin(), by_end.end(), at,
                         [](const CompletedWrite& w, sim::Time t) { return w.end < t; }) -
        by_end.begin());
  };

  {
    std::vector<sim::Time> real_ends;
    real_ends.reserve(writes.size());
    for (std::size_t i = 1; i < writes.size(); ++i) {
      if (writes[i].end) real_ends.push_back(*writes[i].end);
    }
    std::sort(real_ends.begin(), real_ends.end());
    const std::size_t m = writes.empty() ? 0 : writes.size() - 1;
    std::size_t disjoint = 0;
    for (std::size_t i = 1; i < writes.size(); ++i) {
      disjoint += static_cast<std::size_t>(
          std::lower_bound(real_ends.begin(), real_ends.end(), writes[i].begin) -
          real_ends.begin());
    }
    report.concurrent_write_pairs = m * (m - 1) / 2 - disjoint;
  }

  std::vector<std::pair<Value, std::size_t>> writes_by_value;
  writes_by_value.reserve(writes.size());
  for (std::size_t wi = 0; wi < writes.size(); ++wi) {
    writes_by_value.emplace_back(writes[wi].value, wi);
  }
  std::sort(writes_by_value.begin(), writes_by_value.end());

  for (std::size_t ri = 0; ri < reads.size(); ++ri) {
    const auto& r = reads[ri];
    if (!r.end) continue;
    ++report.reads_checked;

    const std::size_t k = completed_before(r.begin);
    const sim::Time latest_begin = k == 0 ? 0 : prefix_max_begin[k - 1];

    bool legal = false;
    for (auto it = std::lower_bound(
             writes_by_value.begin(), writes_by_value.end(), r.value,
             [](const std::pair<Value, std::size_t>& p, Value v) { return p.first < v; });
         it != writes_by_value.end() && it->first == r.value; ++it) {
      const auto& w = writes[it->second];
      const bool w_completed_before = w.end && *w.end < r.begin;
      if (w_completed_before ? *w.end >= latest_begin : w.begin <= *r.end) {
        legal = true;
        break;
      }
    }

    if (!legal) {
      Violation v;
      v.read = ri;
      v.returned = r.value;
      v.detail = r.value == kBottom ? "read returned bottom" : "stale read";
      report.violations.push_back(v);
    }
  }
  return report;
}

InversionReport reference_inversions(const VectorHistory& history) {
  InversionReport report;
  const auto& writes = history.writes();
  const auto& reads = history.reads();

  std::map<Value, std::size_t> write_index;
  for (std::size_t wi = 0; wi < writes.size(); ++wi) {
    write_index.emplace(writes[wi].value, wi);
  }

  struct Entry {
    sim::Time begin = 0;
    sim::Time end = 0;
    std::size_t widx = 0;
  };
  std::vector<Entry> done;
  for (const auto& r : reads) {
    if (!r.end) continue;
    const auto it = write_index.find(r.value);
    if (it == write_index.end()) continue;
    done.push_back(Entry{r.begin, *r.end, it->second});
  }
  report.reads_checked = done.size();

  std::vector<std::size_t> by_end(done.size());
  for (std::size_t i = 0; i < done.size(); ++i) by_end[i] = i;
  std::sort(by_end.begin(), by_end.end(), [&done](std::size_t a, std::size_t b) {
    return done[a].end < done[b].end;
  });
  std::vector<std::size_t> by_begin(done.size());
  for (std::size_t i = 0; i < done.size(); ++i) by_begin[i] = i;
  std::sort(by_begin.begin(), by_begin.end(), [&done](std::size_t a, std::size_t b) {
    return done[a].begin < done[b].begin;
  });

  std::size_t cursor = 0;
  sim::Time max_prev_write_begin = 0;
  bool any_seen = false;
  for (const std::size_t i : by_begin) {
    while (cursor < by_end.size() && done[by_end[cursor]].end < done[i].begin) {
      max_prev_write_begin =
          std::max(max_prev_write_begin, writes[done[by_end[cursor]].widx].begin);
      any_seen = true;
      ++cursor;
    }
    const auto& w = writes[done[i].widx];
    if (any_seen && w.end && *w.end < max_prev_write_begin) ++report.inversion_count;
  }
  return report;
}

// ---------------------------------------------------------------------------
// Random client-shaped histories.

/// Operations as a client issues them: `writers` writers and eight readers
/// each run a closed loop of attempts over time. An attempt fails one time
/// in six and is retried after a backoff (a read by another process), so
/// the failed attempt's interval stays open beside its retry. Completions
/// arrive in completion order, long after later attempts began, so they
/// land in earlier chunks than the newest record. Values are unique per
/// write, with a few bottom and unwritten values among the reads.
History random_client_history(std::uint32_t seed, std::size_t ops, std::size_t writers) {
  std::mt19937 rng(seed);
  History h(0);
  struct Pending {
    sim::Time end;
    bool write;
    OpId id;
  };
  std::vector<Pending> pending;
  std::vector<Value> written{0};
  Value next_value = 1;
  sim::Time t = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    t += rng() % 3;
    const bool write = rng() % 4 == 0;
    const sim::Time latency = 1 + rng() % 40;
    const bool fails = rng() % 6 == 0;
    if (write) {
      const Value v = next_value++;
      const auto writer = static_cast<sim::ProcessId>(rng() % writers);
      OpId id = h.begin_write(writer, t, v);
      if (fails) id = h.begin_write(writer, t + latency, v);  // retry; first stays open
      if (rng() % 10 != 0) {
        pending.push_back({t + (fails ? latency : 0) + latency, true, id});
      }
      written.push_back(v);
    } else {
      const auto reader = static_cast<sim::ProcessId>(writers + rng() % 8);
      OpId id = h.begin_read(reader, t);
      if (fails) id = h.begin_read(reader + 8, t + latency);  // re-targeted retry
      pending.push_back({t + (fails ? latency : 0) + latency, false, id});
    }
    // Deliver every completion due by now, in completion order.
    std::stable_sort(pending.begin(), pending.end(),
                     [](const Pending& a, const Pending& b) { return a.end < b.end; });
    std::size_t done = 0;
    while (done < pending.size() && pending[done].end <= t) {
      const Pending& p = pending[done++];
      if (p.write) {
        h.complete_write(p.id, p.end);
      } else {
        Value v;
        switch (rng() % 12) {
          case 0:
            v = kBottom;
            break;
          case 1:
            v = 99999;
            break;
          default:
            // Mostly recent values, sometimes stale ones.
            v = written[written.size() - 1 - rng() % std::min<std::size_t>(written.size(), 6)];
            break;
        }
        h.complete_read(p.id, p.end, v);
      }
    }
    pending.erase(pending.begin(), pending.begin() + static_cast<std::ptrdiff_t>(done));
  }
  return h;  // whatever is still pending stays open at the horizon
}

/// Compares the two forms on `h`; returns the (violations, inversions) seen.
std::pair<std::size_t, std::size_t> expect_checkers_identical(const History& h) {
  const VectorHistory v = copy_of(h);
  const RegularityReport want = reference_regularity(v);
  const RegularityReport got = consistency::RegularityChecker{}.check(h);
  EXPECT_EQ(got.reads_checked, want.reads_checked);
  EXPECT_EQ(got.concurrent_write_pairs, want.concurrent_write_pairs);
  EXPECT_EQ(got.violations.size(), want.violations.size());
  if (got.violations.size() != want.violations.size()) return {0, 0};
  for (std::size_t i = 0; i < want.violations.size(); ++i) {
    EXPECT_EQ(got.violations[i].read, want.violations[i].read);
    EXPECT_EQ(got.violations[i].returned, want.violations[i].returned);
    EXPECT_EQ(got.violations[i].detail, want.violations[i].detail);
  }
  const InversionReport want_inv = reference_inversions(v);
  const InversionReport got_inv = consistency::AtomicityChecker{}.check(h);
  EXPECT_EQ(got_inv.reads_checked, want_inv.reads_checked);
  EXPECT_EQ(got_inv.inversion_count, want_inv.inversion_count);
  return {want.violations.size(), want_inv.inversion_count};
}

TEST(OpLog, RecordsFitInThirtyTwoBytes) {
  EXPECT_LE(sizeof(History::Op), 32u);
}

TEST(OpLog, HistoryRecordsKeepTheirFieldsAcrossChunks) {
  History h(7);
  // Enough of each kind for several chunks; every record completes only
  // after all of them began, so each completion writes an earlier chunk.
  constexpr std::size_t kOps = 300;
  for (std::size_t i = 0; i < kOps; ++i) {
    EXPECT_EQ(h.begin_write(static_cast<sim::ProcessId>(i % 3), 10 + i, 100 + i), i + 1);
    EXPECT_EQ(h.begin_read(static_cast<sim::ProcessId>(i % 5), 20 + i), i);
  }
  const History::Op* first_read = &h.reads()[0];
  for (std::size_t i = kOps; i-- > 0;) {
    if (i % 7 == 3) continue;  // left open
    h.complete_write(i + 1, 1000 + i);
    h.complete_read(i, 2000 + i, static_cast<Value>(i));
  }
  EXPECT_EQ(&h.reads()[0], first_read) << "a whole chunk's records never move";

  ASSERT_EQ(h.writes().size(), kOps + 1);
  ASSERT_EQ(h.reads().size(), kOps);
  EXPECT_EQ(h.records(), 2 * kOps + 1);
  EXPECT_EQ(h.initial_value(), 7);
  EXPECT_EQ(h.writes()[0].end(), std::optional<sim::Time>{0});
  for (std::size_t i = 0; i < kOps; ++i) {
    const History::Op& w = h.writes()[i + 1];
    const History::Op& r = h.reads()[i];
    EXPECT_EQ(w.process, i % 3);
    EXPECT_EQ(w.begin, 10 + i);
    EXPECT_EQ(w.value, static_cast<Value>(100 + i));
    EXPECT_EQ(r.process, i % 5);
    EXPECT_EQ(r.begin, 20 + i);
    if (i % 7 == 3) {
      EXPECT_FALSE(w.end().has_value()) << i;
      EXPECT_FALSE(r.end().has_value()) << i;
      EXPECT_EQ(r.value, kBottom) << i;
    } else {
      EXPECT_EQ(w.end(), std::optional<sim::Time>{1000 + i}) << i;
      EXPECT_EQ(r.end(), std::optional<sim::Time>{2000 + i}) << i;
      EXPECT_EQ(r.value, static_cast<Value>(i)) << i;
    }
  }
  // Iteration visits the records in id order, across chunk boundaries.
  std::size_t n = 0;
  for (const History::Op& r : h.reads()) EXPECT_EQ(r.begin, 20 + n++);
  EXPECT_EQ(n, kOps);
  EXPECT_EQ(h.reads().back().begin, 20 + kOps - 1);
  // Whole chunks only: 301 writes and 300 reads fill ten 32-record chunks.
  EXPECT_EQ(h.bytes_held(), 20 * 32 * sizeof(History::Op));
}

TEST(OpLog, AShortLogHoldsLittle) {
  // A log's first chunk doubles from one record, so a new History holds
  // its pseudo-write alone and a few reads hold the next power of two.
  History h(0);
  EXPECT_EQ(h.bytes_held(), sizeof(History::Op));
  for (sim::Time t = 1; t <= 3; ++t) (void)h.begin_read(1, t);
  EXPECT_EQ(h.bytes_held(), (1 + 4) * sizeof(History::Op));
  for (sim::Time t = 4; t <= 33; ++t) (void)h.begin_read(1, t);
  EXPECT_EQ(h.bytes_held(), (1 + 64) * sizeof(History::Op));
  for (std::size_t i = 0; i < h.reads().size(); ++i) EXPECT_EQ(h.reads()[i].begin, i + 1);
}

TEST(OpLog, CheckersMatchTheVectorHistoryOnRandomClientHistories) {
  (void)expect_checkers_identical(History(0));
  std::size_t violations = 0;
  std::size_t inversions = 0;
  for (std::uint32_t seed = 1; seed <= 60; ++seed) {
    const std::size_t writers = 1 + seed % 4;
    const History h = random_client_history(seed, 50 + 37 * (seed % 13), writers);
    const auto [v, i] = expect_checkers_identical(h);
    violations += v;
    inversions += i;
    if (HasFailure()) {
      ADD_FAILURE() << "seed " << seed;
      return;
    }
  }
  // The histories exercise both verdicts, not only clean runs.
  EXPECT_GT(violations, 0u);
  EXPECT_GT(inversions, 0u);
}

// ---------------------------------------------------------------------------
// TickHistogram against percentile() over the sorted samples.

void expect_histogram_matches(const std::vector<double>& samples) {
  harness::TickHistogram h;
  h.add(samples);
  ASSERT_EQ(h.count(), samples.size());
  double total = 0.0;
  for (const double s : samples) total += s;
  EXPECT_EQ(h.total(), total);
  if (samples.empty()) return;
  EXPECT_EQ(h.total() / static_cast<double>(h.count()),
            total / static_cast<double>(samples.size()));
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (const double p : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.percentile(p), harness::percentile(sorted, p))
        << "p=" << p << " n=" << samples.size();
  }
}

TEST(OpLog, HistogramOfNoSamplesIsEmpty) {
  harness::TickHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.total(), 0.0);
  h.add(std::vector<double>{});
  EXPECT_EQ(h.count(), 0u);
}

TEST(OpLog, HistogramOfOneSample) {
  expect_histogram_matches({0.0});
  expect_histogram_matches({17.0});
}

TEST(OpLog, HistogramWhereTheRankIsAWholeNumber) {
  // n = 100: p·n is exactly 50 and 99, the ranks nearest-rank rounds at.
  std::vector<double> samples;
  for (int i = 0; i < 100; ++i) samples.push_back(static_cast<double>((i * 37) % 23));
  expect_histogram_matches(samples);
  harness::TickHistogram h;
  h.add(samples);
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(h.percentile(0.50), samples[50]);
  EXPECT_EQ(h.percentile(0.99), samples[99]);
}

TEST(OpLog, HistogramMatchesSortedSamplesOnRandomIntegers) {
  std::mt19937 rng(11);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = rng() % 3000;
    // Mostly short latencies, some sets with very long ones.
    const std::uint32_t spread = round % 4 == 0 ? 200000 : 1 + rng() % 500;
    std::vector<double> samples;
    for (std::size_t i = 0; i < n; ++i) samples.push_back(static_cast<double>(rng() % spread));
    expect_histogram_matches(samples);
    if (HasFailure()) {
      ADD_FAILURE() << "round " << round;
      return;
    }
  }
}

TEST(OpLog, ClearedHistogramForgetsItsSamples) {
  harness::TickHistogram h;
  h.add(std::vector<double>{5, 9, 700000});
  h.clear();
  h.add(std::vector<double>{3, 4});
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.total(), 7.0);
  EXPECT_EQ(h.percentile(0.99), 4.0);
}

}  // namespace
}  // namespace dynreg
