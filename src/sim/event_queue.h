// Time-ordered event queue with stable FIFO ordering among events scheduled
// for the same instant. Stability is load-bearing: several benches (e.g. the
// Figure 3 adversary) rely on "an event scheduled earlier runs first" to pin
// down races exactly at window boundaries.
//
// Hot-path layout (see docs/PERFORMANCE.md). Two tiers, one total order:
//
//  - Near tier: a timing-wheel ring of kWindow per-tick FIFO buckets
//    covering [base_time, base_time + kWindow). Each bucket is an unrolled
//    list of cache-line-sized slot blocks with a consume cursor: push
//    appends, pop reads at the cursor and software-prefetches the tasks a
//    few slots ahead, and a two-level bitmap finds the next non-empty tick —
//    all O(1), no comparisons at all. (The previous per-slot intrusive list
//    serialized two dependent cache misses per pop; at 1e6 queued events
//    that pointer chase was the whole throughput cliff. Blocks preserve the
//    exact append order while letting prefetches run ahead.) Virtually every
//    event a simulation schedules (delays are small, clocks move forward)
//    lands here.
//  - Far tier: an implicit 4-ary min-heap of small POD entries keyed on a
//    packed (time, seq) 128-bit key, so sift comparisons are single
//    wide-integer compares. It holds the rare events outside the ring
//    window (far future, or scheduled into the past of the wheel base).
//
// The callables themselves never move through either structure: they live
// in InlineTask slots (no per-event heap allocation for captures up to
// InlineTask::kInlineCapacity) inside a free-list slab pool with stable,
// 64-byte-aligned addresses (one cache line per task), referenced by 32-bit
// slot index.
//
// FIFO correctness across tiers: a far-tier event at time t is always older
// than any ring event at t (a push lands in the ring only while t is inside
// the window, and the window never moves backwards past a live ring time),
// so on equal times the far tier pops first; within a bucket the slot array
// is consumed in append order, which is FIFO; within the far tier the seq
// half of the key is FIFO. This reproduces the old (time, seq)
// priority-queue order bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "sim/inline_task.h"

namespace dynreg::sim {

using Time = std::uint64_t;
using Duration = std::uint64_t;
using ProcessId = std::uint32_t;

// Packed (time, seq) ordering key for the far tier. With 128-bit integers
// available the comparison in the sift loops is a single wide-integer
// compare; the fallback is an equivalent two-field lexicographic compare.
#if defined(__SIZEOF_INT128__)
using EventKey = unsigned __int128;
constexpr EventKey make_event_key(Time time, std::uint64_t seq) {
  return (static_cast<EventKey>(time) << 64) | seq;
}
constexpr Time event_key_time(EventKey key) { return static_cast<Time>(key >> 64); }
#else
struct EventKey {
  Time time = 0;
  std::uint64_t seq = 0;
  friend constexpr bool operator<(const EventKey& a, const EventKey& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }
};
constexpr EventKey make_event_key(Time time, std::uint64_t seq) {
  return EventKey{time, seq};
}
constexpr Time event_key_time(EventKey key) { return key.time; }
#endif

struct Event {
  Time time = 0;
  InlineTask fn;
};

class EventQueue {
 public:
  /// Ring span in ticks. Every delay model in the library produces delays
  /// far below this, so out-of-window events are the exception, not the
  /// rule. Must be a power of two.
  static constexpr std::uint32_t kWindow = 2048;

  EventQueue() = default;

  /// Destroys any still-pending callables by draining the queue. Task-slab
  /// storage is raw and recycled wholesale (see TaskPool::Slab), so live
  /// captures must be destroyed individually here, not by the pool.
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Accepts any `void()` callable; captures up to InlineTask::kInlineCapacity
  /// bytes are stored without allocating.
  template <typename F>
  void push(Time time, F&& fn) {
    const std::uint32_t slot = pool_.acquire(std::forward<F>(fn));
    insert(time, slot);
    ++size_;
  }

  /// Removes and returns the earliest event (FIFO among equal times).
  /// Precondition: !empty().
  Event pop();

  /// Removes the earliest event and invokes its callable in place — the
  /// simulation-loop fast path. Pool slots have stable addresses, so the
  /// callable runs where it sits (no move-out, no temporary Event) even if
  /// it pushes new events while executing. If `now_out` is non-null it is
  /// set to the event's time *before* the callable runs, so a caller
  /// owning a clock advances it without a second queue scan and the
  /// running event observes the new time. Precondition: !empty().
  void run_top(Time* now_out = nullptr);

  /// The callable of the newest event queued at `time` in the near tier, or
  /// nullptr when the ring holds none there: nothing queued at `time`,
  /// `time` outside the window, or only far-tier events at it. (An
  /// in-window tick's ring events are all younger than its far-tier ones,
  /// so a non-null result is the newest event at `time` overall.) The
  /// callable stays put until it runs and may be amended in place.
  InlineTask* newest_at(Time time) {
    if (time < base_time_ || time - base_time_ >= kWindow) return nullptr;
    const Bucket& bucket = ring_[time & (kWindow - 1)];
    if (bucket.head == kNil) return nullptr;
    return &pool_.task(blocks_[bucket.tail].slots[bucket.fill - 1]);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// The most events held at once, the running one included (its slot is
  /// recycled after it returns): the task slots the pool has carved, since
  /// a slot is carved only when none is free.
  [[nodiscard]] std::size_t peak_size() const { return pool_.slots(); }

  /// Task slabs carved so far, and whether slab `i` was advised onto huge
  /// pages (every slab but the first).
  [[nodiscard]] std::size_t slab_count() const { return pool_.slab_count(); }
  [[nodiscard]] bool slab_huge(std::size_t i) const { return pool_.slab_huge(i); }

  /// Time of the earliest pending event. Precondition: !empty().
  Time next_time() const;

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint32_t kWords = kWindow / 64;

  // One tick's events: an unrolled list of cache-line blocks from the shared
  // block pool, consumed in append order. Unlike a per-bucket std::vector
  // this never mallocs on the push path (blocks recycle through free_blocks_)
  // and unlike the old per-slot intrusive list it costs one pointer chase per
  // kBlockSlots pops instead of per pop, with the slots in between laid out
  // sequentially for prefetching.
  struct alignas(64) SlotBlock {
    SlotBlock() {}  // NOLINT(modernize-use-equals-default) — leaves `slots`
                    // uninitialized on purpose: alloc_block() sets `next`,
                    // and only slots[0..fill) are ever read.
    std::array<std::uint32_t, 15> slots;
    std::uint32_t next;  // block index in blocks_
  };
  static_assert(sizeof(SlotBlock) == 64, "one cache line per block");
  static constexpr std::uint32_t kBlockSlots = 15;

  struct Bucket {
    std::uint32_t head = kNil;  // block index being consumed
    std::uint32_t tail = kNil;  // block index being filled
    std::uint32_t take = 0;     // consume index within head block
    std::uint32_t fill = 0;     // append index within tail block
  };

  struct FarEntry {
    EventKey key;
    std::uint32_t slot;
  };

  // Fixed-capacity slabs of recycled InlineTask slots. Slab granularity
  // keeps slot addresses stable (no mass relocation on growth) and the free
  // list makes steady-state push/pop allocation-free. Each slab is one
  // 2 MiB-aligned region (64-byte lines for the tasks fall out of that).
  // Every slab after the first is madvise(MADV_HUGEPAGE)d on Linux: popping
  // a large bucket reads tasks roughly one slab stride apart, and with 4 KiB
  // pages every one of those reads costs a TLB walk on this access pattern —
  // the walks, not the line fetches, were the 1e6-event throughput cliff.
  // The first slab is left on 4 KiB pages: a queue that never holds more
  // than kSlabSize tasks (every perfbench workload peaks far below it) then
  // costs only the pages it touches, not a whole 2 MiB huge page.
  class TaskPool {
   public:
    template <typename F>
    std::uint32_t acquire(F&& fn) {
      if (!free_.empty()) {
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        task(slot).assign(std::forward<F>(fn));
        return slot;
      }
      if (size_ == slabs_.size() * kSlabSize) {
        slabs_.push_back(std::make_unique<Slab>(/*huge_pages=*/!slabs_.empty()));
      }
      const std::uint32_t slot = size_++;
      // First use of this slot: begin the task's lifetime lazily. Slab
      // storage is raw — constructing 32k tasks eagerly would touch the
      // whole 2 MiB slab up front, which dwarfs small simulations.
      auto* t = new (&slabs_[slot / kSlabSize]->tasks[slot % kSlabSize]) InlineTask();
      t->assign(std::forward<F>(fn));
      return slot;
    }

    /// Moves the callable out and returns the slot to the free list.
    InlineTask release(std::uint32_t slot) {
      InlineTask fn = std::move(task(slot));
      free_.push_back(slot);
      return fn;
    }

    /// Stable reference into the slab (valid across pool growth).
    InlineTask& task(std::uint32_t slot) {
      return slabs_[slot / kSlabSize]->tasks[slot % kSlabSize];
    }

    /// Address for software prefetch only (never dereferenced by callers).
    [[nodiscard]] const void* task_addr(std::uint32_t slot) const {
      return &slabs_[slot / kSlabSize]->tasks[slot % kSlabSize];
    }

    /// Slots carved so far, free or in use.
    [[nodiscard]] std::uint32_t slots() const { return size_; }

    [[nodiscard]] std::size_t slab_count() const { return slabs_.size(); }
    [[nodiscard]] bool slab_huge(std::size_t i) const { return slabs_[i]->huge; }

    /// Destroys the callable and recycles the slot.
    void recycle(std::uint32_t slot) {
      task(slot).reset();
      free_.push_back(slot);
    }

   private:
    static constexpr std::uint32_t kSlabSize = 32768;  // 2 MiB of tasks

    // One slab of RAW task storage. Tasks are constructed lazily in
    // acquire() (first use of each slot) and the queue drains itself on
    // destruction, so neither slab construction nor slab destruction ever
    // touches the 2 MiB region; retired regions go to a small thread-local
    // cache, kept apart by advice, and fresh simulations reuse
    // already-faulted pages of the same kind.
    struct Slab {
      explicit Slab(bool huge_pages);
      ~Slab();
      Slab(const Slab&) = delete;
      Slab& operator=(const Slab&) = delete;
      InlineTask* tasks = nullptr;
      bool huge;  // madvise(MADV_HUGEPAGE)d
    };

    std::vector<std::unique_ptr<Slab>> slabs_;
    std::vector<std::uint32_t> free_;
    std::uint32_t size_ = 0;
  };

  std::uint32_t alloc_block();
  void insert(Time time, std::uint32_t slot);
  /// Detaches the earliest event and returns (time, slot), advancing the
  /// wheel base. The caller consumes the slot.
  std::pair<Time, std::uint32_t> take_top();

  // --- ring tier ---
  std::uint32_t base_slot() const {
    return static_cast<std::uint32_t>(base_time_) & (kWindow - 1);
  }
  Time slot_to_time(std::uint32_t s) const {
    return base_time_ + ((s + kWindow - base_slot()) & (kWindow - 1));
  }
  void set_bit(std::uint32_t s) {
    bits_[s >> 6] |= 1ull << (s & 63);
    summary_ |= 1ull << (s >> 6);
  }
  void clear_bit(std::uint32_t s) {
    bits_[s >> 6] &= ~(1ull << (s & 63));
    if (bits_[s >> 6] == 0) summary_ &= ~(1ull << (s >> 6));
  }
  std::uint32_t find_next_bucket() const;  // precondition: ring_count_ > 0
  [[nodiscard]] Time ring_next_time() const { return slot_to_time(find_next_bucket()); }

  // --- far tier (4-ary implicit heap; children of i are 4i+1 .. 4i+4) ---
  void far_push(EventKey key, std::uint32_t slot);
  FarEntry far_take_top();
  [[nodiscard]] Time far_next_time() const { return event_key_time(far_.front().key); }

  std::array<Bucket, kWindow> ring_{};
  std::vector<SlotBlock> blocks_;        // shared bucket-block pool
  std::vector<std::uint32_t> free_blocks_;
  std::array<std::uint64_t, kWords> bits_{};
  std::uint64_t summary_ = 0;
  Time base_time_ = 0;       // ring covers [base_time_, base_time_ + kWindow)
  std::size_t ring_count_ = 0;

  std::vector<FarEntry> far_;
  std::uint64_t next_seq_ = 0;  // FIFO stamp for far-tier entries

  TaskPool pool_;
  std::size_t size_ = 0;
};

}  // namespace dynreg::sim
