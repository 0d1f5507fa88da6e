// The simulation's two allocators, one per kind of object.
//
// Arena: chunked bump allocation for the network's broadcast batches and
// reply spills (net/network.h), each owned by one queued event and freed
// when that event has run. Replaces per-event heap traffic.
//
// Lifetime contract (see docs/ARCHITECTURE.md, "Arena ownership"):
//   * allocate() returns storage valid until deallocate() is called on it.
//   * A chunk whose allocations are all freed is reclaimed at once: its
//     used bytes are poison-filled with kPoisonByte (plain builds), so a
//     use-after-free read sees 0xDD garbage deterministically, and the
//     chunk is reused before a new one is reserved (the bump target starts
//     over in place). Under AddressSanitizer the allocation span is
//     poisoned at deallocate() time instead, so ASan traps the earliest
//     possible misuse. Nothing may read an allocation after freeing it, in
//     any build.
//
// Determinism: the arena draws no randomness and its behaviour depends only
// on the sequence of allocate/deallocate calls, which is itself a pure
// function of the (config, seed) event stream.
//
// BlockPool (below): fixed 64 B blocks, each reused as soon as it is freed,
// for every message payload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace dynreg::sim {

class Arena {
 public:
  static constexpr unsigned char kPoisonByte = 0xDD;
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `size` bytes aligned to `align`. Never returns nullptr
  /// (throws std::bad_alloc on OS exhaustion, like operator new).
  [[nodiscard]] void* allocate(std::size_t size, std::size_t align);

  /// Marks an allocation dead. A chunk left with no live allocation is
  /// reclaimed at once.
  void deallocate(void* p) noexcept;

  [[nodiscard]] std::size_t live_allocations() const { return live_; }
  [[nodiscard]] std::size_t chunks_created() const { return chunks_created_; }
  /// Chunks reclaimed for reuse: onto the free list, or in place.
  [[nodiscard]] std::size_t chunks_recycled() const { return chunks_recycled_; }
  [[nodiscard]] std::size_t bytes_reserved() const { return bytes_reserved_; }

  /// True when `p` (an address previously returned by allocate) currently
  /// lies in poisoned (reclaimed) storage. Only meaningful under ASan; plain
  /// builds always return false. Test hook for the use-after-reclaim gate.
  [[nodiscard]] static bool address_is_poisoned(const void* p);

 private:
  struct Chunk {
    std::unique_ptr<unsigned char[]> bytes;
    std::size_t capacity = 0;
    std::size_t used = 0;         // bump cursor
    std::size_t live = 0;         // outstanding allocations
    bool open = false;            // currently the bump target
  };

  // 16-byte prelude in front of every allocation: owning chunk + span size.
  struct Header {
    Chunk* chunk;
    std::uint64_t size;
  };
  static_assert(sizeof(Header) == 16, "allocation prelude is two words");

  Chunk* new_chunk(std::size_t capacity);
  void open_chunk_for(std::size_t size, std::size_t align);
  /// Poisons a chunk with no live allocation and makes it reusable: on the
  /// free list, or in place when it is the bump target.
  void reclaim(Chunk* c);

  std::size_t chunk_bytes_;
  std::vector<std::unique_ptr<Chunk>> chunks_;  // ownership, append-only
  Chunk* open_ = nullptr;
  std::vector<Chunk*> free_;  // poisoned, ready to reopen
  std::size_t live_ = 0;
  std::size_t chunks_created_ = 0;
  std::size_t chunks_recycled_ = 0;
  std::size_t bytes_reserved_ = 0;
};

/// Fixed-size blocks for message payloads (net::make_payload_in): a
/// msg::Request or msg::Stamped and its shared_ptr control block fit one
/// block. A payload may stay live for a whole run (node::Context's memo
/// does), so it must not share storage with other objects: in the arena it
/// would pin its 64 KiB chunk, here it holds one block. A block is
/// kBlockBytes, one cache line. Blocks are carved from slabs of kSlabBlocks,
/// and a freed block goes on a LIFO free list, so the next allocation reuses
/// the block freed last: allocation costs a pointer pop, not a malloc, and
/// the pool keeps the high-water number of blocks until it is destroyed.
/// Under ASan a freed block stays poisoned until it is handed out again.
class BlockPool {
 public:
  static constexpr std::size_t kBlockBytes = 64;

  BlockPool() = default;
  ~BlockPool();
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  /// One kBlockBytes block, aligned to kBlockBytes.
  [[nodiscard]] void* allocate();
  /// Returns a block from allocate() to the free list.
  void deallocate(void* p) noexcept;

  [[nodiscard]] std::size_t live_blocks() const { return live_; }
  [[nodiscard]] std::size_t slabs_created() const { return slabs_.size(); }
  /// The most blocks live at once. A block is carved only when the free
  /// list is empty, so the blocks carved so far are that high-water mark.
  [[nodiscard]] std::size_t blocks_peak() const {
    return slabs_.empty() ? 0 : (slabs_.size() - 1) * kSlabBlocks + carved_;
  }

 private:
  static constexpr std::size_t kSlabBlocks = 64;
  struct alignas(kBlockBytes) Block {
    Block* next;  // while on the free list
  };
  static_assert(sizeof(Block) == kBlockBytes, "a block is one cache line");

  std::vector<std::unique_ptr<Block[]>> slabs_;
  std::size_t carved_ = kSlabBlocks;  // blocks handed out of the last slab
  Block* free_ = nullptr;
  std::size_t live_ = 0;
};

/// std-allocator adapter over BlockPool, for std::allocate_shared of one
/// object of at most BlockPool::kBlockBytes (with its control block).
template <typename T>
class BlockAllocator {
 public:
  using value_type = T;

  explicit BlockAllocator(BlockPool& pool) noexcept : pool_(&pool) {}
  template <typename U>
  BlockAllocator(const BlockAllocator<U>& other) noexcept  // NOLINT(google-explicit-constructor)
      : pool_(other.pool()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    static_assert(sizeof(T) <= BlockPool::kBlockBytes &&
                      alignof(T) <= BlockPool::kBlockBytes,
                  "one object per block");
    if (n != 1) throw std::bad_alloc();
    return static_cast<T*>(pool_->allocate());
  }
  void deallocate(T* p, std::size_t) noexcept { pool_->deallocate(p); }

  [[nodiscard]] BlockPool* pool() const noexcept { return pool_; }

 private:
  BlockPool* pool_;
};

template <typename T, typename U>
bool operator==(const BlockAllocator<T>& a, const BlockAllocator<U>& b) noexcept {
  return a.pool() == b.pool();
}
template <typename T, typename U>
bool operator!=(const BlockAllocator<T>& a, const BlockAllocator<U>& b) noexcept {
  return a.pool() != b.pool();
}

}  // namespace dynreg::sim
