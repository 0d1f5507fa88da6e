#include "consistency/regularity_checker.h"

#include <algorithm>
#include <map>

namespace dynreg::consistency {

RegularityReport RegularityChecker::check(const History& history) const {
  RegularityReport report;
  const auto& writes = history.writes();
  const auto& reads = history.reads();

  // Everything below is sort-once + indexed lookup; the previous
  // implementation rescanned the whole write vector per pair and per read,
  // which was quadratic in long sweep histories. Ends are compared raw: an
  // open interval's end is History::kNever, later than every time, so
  // `ended_at < t` is false for it exactly as the optional test was.

  // Completed writes ordered by end time, with a running prefix-max of
  // their begin times. Answers, by binary search on r.begin, both "how many
  // writes completed strictly before this read began" and "what is the
  // latest begin among them" (B*).
  struct CompletedWrite {
    sim::Time end = 0;
    sim::Time begin = 0;
  };
  std::vector<CompletedWrite> by_end;
  by_end.reserve(writes.size());
  for (const auto& w : writes) {
    if (w.ended_at != History::kNever) {
      by_end.push_back(CompletedWrite{w.ended_at, w.begin});
    }
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
    // Number of writes with end strictly < at == index of the first end >= at.
    return static_cast<std::size_t>(
        std::lower_bound(by_end.begin(), by_end.end(), at,
                         [](const CompletedWrite& w, sim::Time t) { return w.end < t; }) -
        by_end.begin());
  };

  // Concurrent-write pairs (real writes only — the initial pseudo-write at
  // index 0 is excluded; incomplete writes extend to infinity). Two write
  // intervals are disjoint iff one completes strictly before the other
  // begins, and at most one of the two orderings can hold, so
  //   concurrent = all pairs - sum over writes of |{completed ends < begin}|.
  // Counted over the real writes only, hence the dedicated sorted-ends
  // array rather than by_end (which serves the reads and includes index 0).
  // The logs are walked in order rather than indexed: a walk reads each
  // chunk's address once.
  {
    auto first_real = writes.begin();
    if (first_real != writes.end()) ++first_real;
    std::vector<sim::Time> real_ends;
    real_ends.reserve(writes.size());
    for (auto w = first_real; w != writes.end(); ++w) {
      if (w->ended_at != History::kNever) real_ends.push_back(w->ended_at);
    }
    std::sort(real_ends.begin(), real_ends.end());
    const std::size_t m = writes.empty() ? 0 : writes.size() - 1;
    std::size_t disjoint = 0;
    for (auto w = first_real; w != writes.end(); ++w) {
      disjoint += static_cast<std::size_t>(
          std::lower_bound(real_ends.begin(), real_ends.end(), w->begin) -
          real_ends.begin());
    }
    report.concurrent_write_pairs = m * (m - 1) / 2 - disjoint;
  }

  // Writes indexed by value, so the legality test for a read touches only
  // the writes that could have produced its value (the workload driver
  // issues globally unique values, so typically exactly one). A sorted
  // array + binary search rather than a hash map, which would allocate a
  // node per write. Each entry carries the write's interval, so the scan
  // below never goes back to the write log; it asks only whether any write
  // of the value is legal, so the order within a value does not matter.
  struct ValueWrite {
    Value value = 0;
    sim::Time begin = 0;
    sim::Time end = 0;
  };
  std::vector<ValueWrite> writes_by_value;
  writes_by_value.reserve(writes.size());
  for (const auto& w : writes) writes_by_value.push_back(ValueWrite{w.value, w.begin, w.ended_at});
  std::sort(writes_by_value.begin(), writes_by_value.end(),
            [](const ValueWrite& a, const ValueWrite& b) { return a.value < b.value; });

  std::size_t ri = 0;
  for (const auto& r : reads) {
    const std::size_t read_id = ri++;
    if (r.ended_at == History::kNever) continue;  // only completed reads are constrained
    ++report.reads_checked;

    // B* = the latest begin among writes completed strictly before the read
    // began. A completed write is superseded iff some such write began
    // strictly after it ended; equivalently iff its end < B*. Boundary ties
    // (a write completing exactly when the read begins) count as concurrent,
    // so same-tick event ordering inside the simulator can never manufacture
    // a violation.
    const std::size_t k = completed_before(r.begin);
    const sim::Time latest_begin = k == 0 ? 0 : prefix_max_begin[k - 1];

    // The returned value is legal iff some write of that value is either
    // concurrent with the read or completed-before but not superseded.
    bool legal = false;
    for (auto w = std::lower_bound(
             writes_by_value.begin(), writes_by_value.end(), r.value,
             [](const ValueWrite& e, Value v) { return e.value < v; });
         w != writes_by_value.end() && w->value == r.value; ++w) {
      const bool w_completed_before = w->end < r.begin;
      if (w_completed_before ? w->end >= latest_begin : w->begin <= r.ended_at) {
        legal = true;
        break;
      }
    }

    if (!legal) {
      Violation v;
      v.read = read_id;
      v.returned = r.value;
      v.detail = r.value == kBottom ? "read returned bottom" : "stale read";
      report.violations.push_back(v);
    }
  }
  return report;
}

InversionReport AtomicityChecker::check(const History& history) const {
  InversionReport report;
  const auto& writes = history.writes();
  const auto& reads = history.reads();

  // Map each returned value to the write that produced it. The workload
  // driver issues globally unique values, so the mapping is unambiguous;
  // reads of unknown values (e.g. bottom) are excluded from the analysis.
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
    if (r.ended_at == History::kNever) continue;
    const auto it = write_index.find(r.value);
    if (it == write_index.end()) continue;
    done.push_back(Entry{r.begin, r.ended_at, it->second});
  }
  report.reads_checked = done.size();

  // A read is inverted if some read that finished strictly before it began
  // returned a strictly newer write — "newer" in the completed-before
  // partial order (w precedes w' iff w completed before w' began), which is
  // well defined for concurrent multi-writer histories where insertion
  // order is not recency. Sweep reads by begin time while keeping a running
  // prefix-max of the returned writes' begin times ordered by read end.
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
    // Inverted iff this read's write completed before an earlier-returned
    // write even began. Incomplete writes precede nothing.
    if (any_seen && w.ended_at < max_prev_write_begin) ++report.inversion_count;
  }
  return report;
}

}  // namespace dynreg::consistency
