#include "churn/chronicle.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace dynreg::churn {

namespace {

/// min of the running prefix sum over diff[0..last] (the shared sweep of
/// both min_active queries). Empty-history sentinel collapses to 0.
std::size_t min_prefix(const std::vector<std::int64_t>& diff, sim::Time last) {
  std::int64_t running = 0;
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (sim::Time t = 0; t <= last; ++t) {
    running += diff[static_cast<std::size_t>(t)];
    best = std::min(best, running);
  }
  return best == std::numeric_limits<std::int64_t>::max()
             ? 0
             : static_cast<std::size_t>(std::max<std::int64_t>(0, best));
}

}  // namespace

void Chronicle::note_enter(sim::ProcessId id, sim::Time at, bool initial) {
  Record r;
  r.entered = at;
  r.initial = initial;
  // Ids are handed out contiguously, so this is a push_back in the common
  // case; the resize keeps the dense-index invariant if one is ever skipped.
  if (id >= records_.size()) records_.resize(id + 1);
  records_[id] = r;
}

void Chronicle::note_activated(sim::ProcessId id, sim::Time at) {
  records_[id].activated_at = at;
}

void Chronicle::note_left(sim::ProcessId id, sim::Time at) { records_[id].left_at = at; }

std::size_t Chronicle::active_at(sim::Time t) const {
  std::size_t n = 0;
  for (const Record& r : records_) {
    if (r.activated_at != kNever && r.activated_at <= t &&
        (r.left_at == kNever || r.left_at > t)) {
      ++n;
    }
  }
  return n;
}

std::size_t Chronicle::active_through(sim::Time t1, sim::Time t2) const {
  // A process is active over the half-open interval [activated, left), the
  // same convention as active_at, so A(t1, t2) is a subset of every A(t)
  // with t in [t1, t2].
  std::size_t n = 0;
  for (const Record& r : records_) {
    if (r.activated_at != kNever && r.activated_at <= t1 &&
        (r.left_at == kNever || r.left_at > t2)) {
      ++n;
    }
  }
  return n;
}

std::size_t Chronicle::min_active_through_window(sim::Duration window,
                                                sim::Time horizon) const {
  if (horizon < window) return active_through(0, window);
  const sim::Time last_start = horizon - window;
  // A record counts for window-start t iff activated <= t and left > t +
  // window, i.e. for the contiguous range t in [activated, left - window - 1].
  std::vector<std::int64_t> diff(static_cast<std::size_t>(last_start) + 2, 0);
  for (const Record& r : records_) {
    if (r.activated_at == kNever) continue;
    const sim::Time lo = r.activated_at;
    if (lo > last_start) continue;
    sim::Time hi = last_start;
    if (r.left_at != kNever) {
      if (r.left_at <= lo + window) continue;  // never covers a full window
      hi = std::min<sim::Time>(hi, r.left_at - window - 1);
    }
    diff[static_cast<std::size_t>(lo)] += 1;
    diff[static_cast<std::size_t>(hi) + 1] -= 1;
  }
  return min_prefix(diff, last_start);
}

std::size_t Chronicle::min_active_at(sim::Time horizon) const {
  std::vector<std::int64_t> diff(static_cast<std::size_t>(horizon) + 2, 0);
  for (const Record& r : records_) {
    if (r.activated_at == kNever || r.activated_at > horizon) continue;
    diff[static_cast<std::size_t>(r.activated_at)] += 1;
    if (r.left_at != kNever && r.left_at <= horizon) {
      diff[static_cast<std::size_t>(r.left_at)] -= 1;
    }
  }
  return min_prefix(diff, horizon);
}

}  // namespace dynreg::churn
