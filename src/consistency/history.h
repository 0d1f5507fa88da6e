// Operation history: the ground-truth log of read/write invocations and
// responses, recorded by the experiment driver (never by protocol nodes).
// The checkers run over it post-hoc.
//
// Each attempt is one 32 B Op — begin, end, value and process — written
// once, where it stays. A time that has not happened is the kNever
// sentinel rather than an empty std::optional, which would take the record
// to 40 B; end() gives the optional view back. Writes and reads each live
// in a Log of fixed-size chunks allocated on first use, so a long run pays
// no doubling slack and no reallocation copy. Only a log's first chunk
// grows, by doubling from one record, so a group that records little holds
// little and a History is built with one 32 B allocation. Nothing is ever
// retired: records() is also the history's high-water mark.
#pragma once

#include <cstddef>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "dynreg/types.h"
#include "sim/simulation.h"

namespace dynreg::consistency {

using OpId = std::size_t;

class History {
 public:
  /// The time of a response that has not happened (yet).
  static constexpr sim::Time kNever = std::numeric_limits<sim::Time>::max();

  /// One write or read attempt. Trivial, so a new chunk is not written
  /// until its records are.
  struct Op {
    sim::Time begin;
    sim::Time ended_at;  // kNever: never completed
    Value value;  // a read's stays kBottom until it completes
    sim::ProcessId process;  // the writer, or the process read from

    [[nodiscard]] std::optional<sim::Time> end() const {
      return ended_at == kNever ? std::nullopt : std::optional<sim::Time>(ended_at);
    }
  };

  /// One kind of record, in invocation order, in chunks that never move
  /// once full.
  class Log {
   public:
    class const_iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Op;
      using difference_type = std::ptrdiff_t;
      using pointer = const Op*;
      using reference = const Op&;

      const Op& operator*() const { return *rec_; }
      const Op* operator->() const { return rec_; }
      const_iterator& operator++() {
        ++rec_;
        if (++i_ % kChunk == 0 && i_ < log_->size_) rec_ = log_->chunk(i_ / kChunk);
        return *this;
      }
      bool operator==(const const_iterator& o) const { return i_ == o.i_; }
      bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

     private:
      friend class Log;
      const_iterator(const Log* log, const Op* rec, std::size_t i)
          : log_(log), rec_(rec), i_(i) {}
      const Log* log_;
      /// Record i_ itself, so a walk looks a chunk up once per chunk and
      /// the next record's address never waits on a load.
      const Op* rec_;
      std::size_t i_;
    };

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    const Op& operator[](std::size_t i) const { return chunk(i / kChunk)[i % kChunk]; }
    [[nodiscard]] const Op& back() const { return (*this)[size_ - 1]; }
    [[nodiscard]] const_iterator begin() const { return {this, first_.get(), 0}; }
    [[nodiscard]] const_iterator end() const { return {this, nullptr, size_}; }
    /// Bytes of the chunks allocated so far, unused records included.
    [[nodiscard]] std::size_t bytes_held() const { return capacity_ * sizeof(Op); }

   private:
    friend class History;
    /// Records per chunk: 1 KiB, as the client's row chunks, so a group's
    /// partly filled last chunks cost little even when a run has hundreds
    /// of groups. A power of two, so the first chunk's doubling meets it.
    static constexpr std::size_t kChunk = 32;

    Op& operator[](std::size_t i) { return chunk(i / kChunk)[i % kChunk]; }
    Op* chunk(std::size_t c) const { return c == 0 ? first_.get() : more_[c - 1].get(); }
    /// Appends `op`; returns its id.
    OpId append(const Op& op);
    /// Makes room for one more record.
    void grow();

    /// The first chunk, held apart from the table of the rest so that a
    /// log of up to kChunk records costs one allocation, as a vector did.
    std::unique_ptr<Op[]> first_;
    std::vector<std::unique_ptr<Op[]>> more_;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;  // records allocated
  };

  /// The register's initial value is modeled as a pseudo-write (index 0)
  /// that began and completed at time 0 before everything else.
  explicit History(Value initial);

  /// Records a write invocation; returns the id to pass to complete_write.
  /// Writes that never complete stay open (end unset) and are treated as
  /// concurrent with everything after their begin.
  OpId begin_write(sim::ProcessId writer, sim::Time at, Value v);
  void complete_write(OpId id, sim::Time at);

  /// Records a read invocation; the returned value is supplied at
  /// completion time (reads that never complete are never checked).
  OpId begin_read(sim::ProcessId reader, sim::Time at);
  void complete_read(OpId id, sim::Time at, Value v);

  /// All writes; writes()[0] is the initial pseudo-write.
  [[nodiscard]] const Log& writes() const { return writes_; }
  [[nodiscard]] const Log& reads() const { return reads_; }
  [[nodiscard]] Value initial_value() const { return writes_[0].value; }

  /// Records held: every write and read attempt, the pseudo-write included.
  [[nodiscard]] std::size_t records() const { return writes_.size() + reads_.size(); }
  /// Bytes of record storage held, unused records of the last chunks included.
  [[nodiscard]] std::size_t bytes_held() const {
    return writes_.bytes_held() + reads_.bytes_held();
  }

 private:
  Log writes_;
  Log reads_;
};
static_assert(sizeof(History::Op) <= 32, "History::Op grew");

}  // namespace dynreg::consistency
