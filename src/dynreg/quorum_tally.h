// QuorumTally: the set of distinct processes that answered one quorum round
// (read replies, write acks, join replies), reduced to the two operations
// the protocols use — insert an id, read the count.
//
// Process ids are dense and never reused (churn::System hands them out in
// increasing order), so a bitmap indexed by id, grown on demand, is both
// exact and small: at most max_id / 8 bytes per tally, and one bit test per
// reply where an ordered set pays a tree insert (a 50k-node tree per
// pending operation at n = 1e5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.h"  // ProcessId

namespace dynreg {

class QuorumTally {
 public:
  QuorumTally() = default;
  // Move-only. A move empties the source's bitmap and count together, so a
  // moved-from tally is a valid, empty tally.
  QuorumTally(QuorumTally&& other) noexcept
      : words_(std::exchange(other.words_, {})),
        count_(std::exchange(other.count_, 0)) {}
  QuorumTally& operator=(QuorumTally&& other) noexcept {
    words_ = std::exchange(other.words_, {});
    count_ = std::exchange(other.count_, 0);
    return *this;
  }

  /// Counts `id` once; returns whether it was new. Repeated answers from the
  /// same process (retransmitted requests draw duplicate replies) are no-ops.
  bool insert(sim::ProcessId id) {
    const std::size_t word = id / 64;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    const std::uint64_t bit = std::uint64_t{1} << (id % 64);
    if ((words_[word] & bit) != 0) return false;
    words_[word] |= bit;
    ++count_;
    return true;
  }

  /// Number of distinct ids inserted.
  [[nodiscard]] std::size_t size() const { return count_; }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t count_ = 0;
};

}  // namespace dynreg
