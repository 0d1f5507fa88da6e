#include "sim/event_queue.h"

#include <array>
#include <cstdlib>
#include <new>
#include <utility>

#include "sim/prefetch.h"

#if defined(__linux__)
#include <sys/mman.h>
#define DYNREG_SLAB_MMAP 1
#endif

namespace dynreg::sim {

namespace {

constexpr std::size_t kArity = 4;

// How many slots ahead of the consume cursor to prefetch inside a bucket.
// Large buckets hold slots ~1 slab stride apart in pop order (tens of KB),
// so without prefetch every dispatch eats a full demand miss; looking a few
// slots ahead keeps that many misses in flight instead of one.
constexpr std::uint32_t kBucketPrefetch = 12;

inline std::uint32_t ctz64(std::uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<std::uint32_t>(__builtin_ctzll(x));
#else
  std::uint32_t n = 0;
  while ((x & 1) == 0) {
    x >>= 1;
    ++n;
  }
  return n;
#endif
}

constexpr std::size_t kSlabBytes = 2 * 1024 * 1024;  // == kSlabSize tasks

#ifdef DYNREG_SLAB_MMAP
void* map_slab_region(bool huge) {
  // Over-map by one huge page so a 2 MiB-aligned span can be handed back;
  // transparent huge pages only back 2 MiB-aligned virtual ranges.
  const std::size_t over = kSlabBytes + kSlabBytes;
  void* raw = ::mmap(nullptr, over, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc{};
  const auto addr = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned = (addr + kSlabBytes - 1) & ~(kSlabBytes - 1);
  if (aligned != addr) ::munmap(raw, aligned - addr);
  const std::uintptr_t tail = aligned + kSlabBytes;
  if (addr + over != tail) {
    ::munmap(reinterpret_cast<void*>(tail), addr + over - tail);
  }
  void* p = reinterpret_cast<void*>(aligned);
  if (huge) ::madvise(p, kSlabBytes, MADV_HUGEPAGE);  // advisory; harmless if ignored
  return p;
}

void unmap_slab_region(void* p) { ::munmap(p, kSlabBytes); }
#else
void* map_slab_region(bool /*huge*/) {
  return ::operator new(kSlabBytes, std::align_val_t{64});
}

void unmap_slab_region(void* p) {
  ::operator delete(p, std::align_val_t{64});
}
#endif

// Thread-local cache of retired slab regions: a fresh EventQueue (one per
// Simulation; benchmarks and sweeps build thousands) reuses an
// already-faulted region instead of paying fault + zero-fill per slab.
// Regions are kept by advice, so a first slab never gets a huge page back
// (regions[1] holds the advised ones). Capped so an occasional huge
// simulation does not pin its high-water mark forever; owning the vectors
// through a destructor returns the regions when the (pooled job) thread
// exits.
struct SlabCache {
  static constexpr std::size_t kMaxRegions = 32;  // 64 MiB per thread
  std::array<std::vector<void*>, 2> regions;
  ~SlabCache() {
    for (const auto& kind : regions) {
      for (void* p : kind) unmap_slab_region(p);
    }
  }
};

SlabCache& slab_cache() {
  thread_local SlabCache cache;
  return cache;
}

}  // namespace

EventQueue::TaskPool::Slab::Slab(bool huge_pages) : huge(huge_pages) {
  static_assert(std::size_t{kSlabSize} * sizeof(InlineTask) == kSlabBytes,
                "slab region holds exactly kSlabSize one-line tasks");
  auto& cache = slab_cache().regions[huge];
  void* p;
  if (!cache.empty()) {
    p = cache.back();
    cache.pop_back();
  } else {
    p = map_slab_region(huge);
  }
  tasks = static_cast<InlineTask*>(p);
}

EventQueue::TaskPool::Slab::~Slab() {
  // Every constructed task in the region is empty by now (the queue drains
  // itself first), so their no-op destructors are elided and the raw region
  // is recycled wholesale.
  auto& regions = slab_cache().regions;
  if (regions[0].size() + regions[1].size() < SlabCache::kMaxRegions) {
    regions[huge].push_back(tasks);
  } else {
    unmap_slab_region(tasks);
  }
}

EventQueue::~EventQueue() {
  while (size_ != 0) {
    const auto [time, slot] = take_top();
    (void)time;
    pool_.recycle(slot);
  }
}

std::uint32_t EventQueue::alloc_block() {
  if (!free_blocks_.empty()) {
    const std::uint32_t b = free_blocks_.back();
    free_blocks_.pop_back();
    blocks_[b].next = kNil;
    return b;
  }
  blocks_.emplace_back();
  return static_cast<std::uint32_t>(blocks_.size() - 1);
}

void EventQueue::insert(Time time, std::uint32_t slot) {
  if (size_ == 0) {
    // Empty queue: the window can jump straight to the new event (in either
    // direction), keeping sparse far-apart schedules (e.g. one timer at a
    // time) on the O(1) ring path.
    base_time_ = time;
  }
  if (time >= base_time_ && time - base_time_ < kWindow) {
    const auto b = static_cast<std::uint32_t>(time & (kWindow - 1));
    Bucket& bucket = ring_[b];
    if (bucket.head == kNil) {
      const std::uint32_t blk = alloc_block();  // may grow blocks_
      bucket.head = bucket.tail = blk;
      bucket.take = bucket.fill = 0;
      set_bit(b);
    } else if (bucket.fill == kBlockSlots) {
      const std::uint32_t blk = alloc_block();  // may grow blocks_
      blocks_[bucket.tail].next = blk;
      bucket.tail = blk;
      bucket.fill = 0;
    }
    blocks_[bucket.tail].slots[bucket.fill++] = slot;
    ++ring_count_;
  } else {
    // Out of window: far future, or in the past of the wheel base (the
    // simulation never does the latter, but the standalone queue allows it).
    far_push(make_event_key(time, next_seq_++), slot);
  }
}

std::uint32_t EventQueue::find_next_bucket() const {
  const std::uint32_t from = base_slot();
  const std::uint32_t w = from >> 6;
  // Bits below `from` in the wheel are *wrapped* (later) times, so mask them
  // off in the first word and only reach them through the wrap-around scan.
  const std::uint64_t first = bits_[w] & (~0ull << (from & 63));
  if (first != 0) return (w << 6) | ctz64(first);
  const std::uint64_t later_words =
      summary_ & (w + 1 < kWords ? ~0ull << (w + 1) : 0ull);
  if (later_words != 0) {
    const std::uint32_t w2 = ctz64(later_words);
    return (w2 << 6) | ctz64(bits_[w2]);
  }
  const std::uint32_t w3 = ctz64(summary_);  // wrap around
  return (w3 << 6) | ctz64(bits_[w3]);
}

std::pair<Time, std::uint32_t> EventQueue::take_top() {
  // The far tier wins ties: an equal-time far entry is always the older one
  // (see the FIFO argument in the header).
  if (ring_count_ != 0) {
    const Time ring_time = ring_next_time();
    if (far_.empty() || ring_time < far_next_time()) {
      const auto b = static_cast<std::uint32_t>(ring_time & (kWindow - 1));
      Bucket& bucket = ring_[b];
      SlotBlock& blk = blocks_[bucket.head];
      const std::uint32_t slot = blk.slots[bucket.take++];
      const std::uint32_t head_count =
          bucket.head == bucket.tail ? bucket.fill : kBlockSlots;
      if (bucket.take == head_count) {
        const std::uint32_t drained = bucket.head;
        if (bucket.head == bucket.tail) {
          bucket.head = bucket.tail = kNil;  // bucket empty; refills next lap
          bucket.take = bucket.fill = 0;
          clear_bit(b);
        } else {
          bucket.head = blk.next;
          bucket.take = 0;
        }
        free_blocks_.push_back(drained);
      } else {
        // Keep kBucketPrefetch task fetches in flight. Indices
        // [take+K, head_count) are reached within this block, indices
        // [0, K) of the successor via the spill branch, and index K — in
        // neither window, since `take` starts at 1 — by the one-off fetch
        // on block entry, which also requests the successor's line early
        // so the spill reads rarely stall.
        if (bucket.take == 1) {
          if (bucket.head != bucket.tail) prefetch_ro(&blocks_[blk.next]);
          if (kBucketPrefetch < head_count) {
            prefetch_ro(pool_.task_addr(blk.slots[kBucketPrefetch]));
          }
        }
        const std::uint32_t ahead = bucket.take + kBucketPrefetch;
        if (ahead < head_count) {
          prefetch_ro(pool_.task_addr(blk.slots[ahead]));
        } else if (bucket.head != bucket.tail) {
          const SlotBlock& nb = blocks_[blk.next];
          const std::uint32_t ncount =
              blk.next == bucket.tail ? bucket.fill : kBlockSlots;
          const std::uint32_t nidx = ahead - head_count;
          if (nidx < ncount) prefetch_ro(pool_.task_addr(nb.slots[nidx]));
        }
      }
      --ring_count_;
      --size_;
      base_time_ = ring_time;  // slides the window; ring min, so no event is left behind
      return {ring_time, slot};
    }
  }
  const FarEntry top = far_take_top();
  const Time t = event_key_time(top.key);
  // A far entry can be in the wheel's past (standalone pushes); never move
  // the base backwards, live ring events must stay inside the window.
  if (t > base_time_) base_time_ = t;
  --size_;
  return {t, top.slot};
}

Event EventQueue::pop() {
  const auto [time, slot] = take_top();
  return Event{time, pool_.release(slot)};
}

void EventQueue::run_top(Time* now_out) {
  const auto [time, slot] = take_top();
  if (now_out != nullptr) *now_out = time;  // the event must see the advanced clock
  // The callable may push new events (growing pool and tiers); pool slots
  // are address-stable, so running it in place is safe. Recycle only after
  // it returns — a running event cannot pop, so its slot can't be reused
  // under it.
  pool_.task(slot)();
  pool_.recycle(slot);
}

Time EventQueue::next_time() const {
  if (ring_count_ == 0) return far_next_time();
  const Time ring_time = ring_next_time();
  if (!far_.empty() && far_next_time() < ring_time) return far_next_time();
  return ring_time;
}

void EventQueue::far_push(EventKey key, std::uint32_t slot) {
  // Hole-based sift-up: move parents down until `key` fits, then write the
  // new entry once.
  std::size_t pos = far_.size();
  far_.push_back(FarEntry{key, slot});
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!(key < far_[parent].key)) break;
    far_[pos] = far_[parent];
    pos = parent;
  }
  far_[pos] = FarEntry{key, slot};
}

EventQueue::FarEntry EventQueue::far_take_top() {
  // Standard delete-min: drop the last entry into the root hole and sift it
  // down past any smaller child.
  const FarEntry top = far_.front();
  const FarEntry last = far_.back();
  far_.pop_back();
  const std::size_t n = far_.size();
  if (n != 0) {
    FarEntry* const h = far_.data();
    std::size_t pos = 0;
    for (;;) {
      const std::size_t first_child = pos * kArity + 1;
      if (first_child >= n) break;
      std::size_t min_child = first_child;
      const std::size_t end = first_child + kArity < n ? first_child + kArity : n;
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (h[c].key < h[min_child].key) min_child = c;
      }
      if (!(h[min_child].key < last.key)) break;
      h[pos] = h[min_child];
      pos = min_child;
      // The next iteration compares the children of min_child; start their
      // lines toward the core while this iteration's stores retire.
      if (min_child * kArity + 1 < n) prefetch_ro(&h[min_child * kArity + 1]);
    }
    h[pos] = last;
  }
  return top;
}

}  // namespace dynreg::sim
