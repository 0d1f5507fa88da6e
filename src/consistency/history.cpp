#include "consistency/history.h"

#include <algorithm>
#include <utility>

namespace dynreg::consistency {

OpId History::Log::append(const Op& op) {
  if (size_ == capacity_) grow();
  (*this)[size_] = op;
  return size_++;
}

void History::Log::grow() {
  // Default-initialised: a trivial Op is left unwritten until appended.
  if (capacity_ >= kChunk) {
    more_.push_back(std::unique_ptr<Op[]>(new Op[kChunk]));
    capacity_ += kChunk;
    return;
  }
  // The first chunk doubles from one record to kChunk: the only records
  // ever copied, at most kChunk - 1 of them.
  const std::size_t capacity = capacity_ == 0 ? 1 : 2 * capacity_;
  std::unique_ptr<Op[]> first(new Op[capacity]);
  if (first_) std::copy_n(first_.get(), size_, first.get());
  first_ = std::move(first);
  capacity_ = capacity;
}

History::History(Value initial) { writes_.append({0, 0, initial, 0}); }

OpId History::begin_write(sim::ProcessId writer, sim::Time at, Value v) {
  return writes_.append({at, kNever, v, writer});
}

void History::complete_write(OpId id, sim::Time at) { writes_[id].ended_at = at; }

OpId History::begin_read(sim::ProcessId reader, sim::Time at) {
  return reads_.append({at, kNever, kBottom, reader});
}

void History::complete_read(OpId id, sim::Time at, Value v) {
  Op& r = reads_[id];
  r.ended_at = at;
  r.value = v;
}

}  // namespace dynreg::consistency
