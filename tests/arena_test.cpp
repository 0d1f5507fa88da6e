// sim::Arena — the lifetime contract the network's batch and spill blocks
// stand on: canaries survive until deallocate, a chunk is poison-filled as
// soon as its last allocation dies (0xDD in plain builds, ASan poison under
// sanitizers), and reclaimed chunks are reused instead of re-reserved. And
// sim::BlockPool, where every payload lives.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "sim/arena.h"

#if defined(__SANITIZE_ADDRESS__)
#define DYNREG_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DYNREG_TEST_ASAN 1
#endif
#endif

namespace dynreg::sim {
namespace {

struct Canary {
  unsigned char* p;
  std::size_t size;
  unsigned char fill;
};

void check_canary(const Canary& c) {
  for (std::size_t i = 0; i < c.size; ++i) {
    ASSERT_EQ(c.p[i], c.fill) << "canary corrupted at byte " << i;
  }
}

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena(/*chunk_bytes=*/256);
  auto* a = static_cast<unsigned char*>(arena.allocate(24, 8));
  auto* b = static_cast<unsigned char*>(arena.allocate(40, 16));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 16, 0u);
  std::memset(a, 0x11, 24);
  std::memset(b, 0x22, 40);
  for (std::size_t i = 0; i < 24; ++i) EXPECT_EQ(a[i], 0x11);
  for (std::size_t i = 0; i < 40; ++i) EXPECT_EQ(b[i], 0x22);
  EXPECT_EQ(arena.live_allocations(), 2u);
  arena.deallocate(a);
  arena.deallocate(b);
  EXPECT_EQ(arena.live_allocations(), 0u);
}

TEST(Arena, OversizeRequestGetsDedicatedChunk) {
  Arena arena(/*chunk_bytes=*/128);
  auto* big = static_cast<unsigned char*>(arena.allocate(1000, 8));
  std::memset(big, 0x5A, 1000);
  // A normal-size allocation after the oversize one must not land inside it.
  auto* small = static_cast<unsigned char*>(arena.allocate(16, 8));
  std::memset(small, 0xA5, 16);
  for (std::size_t i = 0; i < 1000; ++i) ASSERT_EQ(big[i], 0x5A);
  arena.deallocate(big);
  arena.deallocate(small);
}

// The property/fuzz core: a random interleaving of allocate / deallocate,
// with every live allocation carrying a distinct fill pattern. The arena
// reclaims and reuses chunks under our feet — the property is that no live
// canary is ever disturbed and the live-count bookkeeping matches a trivial
// model. Runs clean under ASan/UBSan too (live spans are unpoisoned by
// definition).
TEST(Arena, FuzzCanariesSurviveArbitraryInterleavings) {
  for (const std::uint32_t seed : {1u, 7u, 2026u}) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    Arena arena(/*chunk_bytes=*/512);  // small chunks: force frequent retire/reuse
    std::vector<Canary> live;
    unsigned char next_fill = 1;

    for (int op = 0; op < 10000; ++op) {
      const std::uint32_t roll = rng() % 100;
      if (roll < 45 || live.empty()) {
        const std::size_t size = 1 + rng() % 200;
        auto* p = static_cast<unsigned char*>(arena.allocate(size, 8));
        std::memset(p, next_fill, size);
        live.push_back({p, size, next_fill});
        next_fill = next_fill == 0xFF ? 1 : static_cast<unsigned char>(next_fill + 1);
      } else if (roll < 85) {
        const std::size_t idx = rng() % live.size();
        check_canary(live[idx]);
        arena.deallocate(live[idx].p);
        live[idx] = live.back();
        live.pop_back();
      } else {
        // Reclaim must never touch a chunk with live allocations.
        for (const Canary& c : live) check_canary(c);
      }
      ASSERT_EQ(arena.live_allocations(), live.size());
    }
    for (const Canary& c : live) {
      check_canary(c);
      arena.deallocate(c.p);
    }
    EXPECT_EQ(arena.live_allocations(), 0u);
    // With 512-byte chunks and ~4.5k allocations the arena must have cycled
    // storage rather than growing without bound.
    EXPECT_GT(arena.chunks_recycled(), 0u);
    EXPECT_LT(arena.bytes_reserved(), 10u * 200u * 10000u);
  }
}

TEST(Arena, RecycledChunksAreReusedNotReReserved) {
  Arena arena(/*chunk_bytes=*/256);
  // Steady-state churn: each round fills a few chunks and frees them. After
  // warm-up, reserved bytes must stop growing.
  std::size_t reserved_after_warmup = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<void*> ptrs;
    for (int i = 0; i < 16; ++i) ptrs.push_back(arena.allocate(48, 8));
    for (void* p : ptrs) arena.deallocate(p);
    if (round == 4) reserved_after_warmup = arena.bytes_reserved();
  }
  EXPECT_GT(arena.chunks_recycled(), arena.chunks_created());
  EXPECT_EQ(arena.bytes_reserved(), reserved_after_warmup);
}

TEST(Arena, RetiredOversizeChunksServeLaterOversizeRequests) {
  // Large broadcast batches are oversize requests every tick. Each one must
  // reuse a reclaimed oversize chunk that fits, not reserve a fresh one, or
  // the arena would grow with the run's length.
  Arena arena(/*chunk_bytes=*/256);
  std::size_t reserved_after_warmup = 0;
  for (int round = 0; round < 40; ++round) {
    void* big = arena.allocate(900 + 10 * (round % 4), 8);
    void* small = arena.allocate(32, 8);
    std::memset(big, 0x3C, 900);
    arena.deallocate(big);
    arena.deallocate(small);
    if (round == 4) reserved_after_warmup = arena.bytes_reserved();
  }
  EXPECT_EQ(arena.bytes_reserved(), reserved_after_warmup);
  EXPECT_EQ(arena.live_allocations(), 0u);
}

#ifndef DYNREG_TEST_ASAN
// Plain-build reclaim semantics: the moment a sealed chunk's last allocation
// dies, the chunk is poison-filled with 0xDD, so a use-after-free read sees
// deterministic garbage, and it is the next chunk opened rather than a new
// reservation. (Under ASan the reads below would — correctly — trap; the
// sanitizer variant of this gate is DeallocatePoisonsSpanImmediately.)
TEST(Arena, ReclaimPoisonsRetiredChunksWithDdBytes) {
  Arena arena(/*chunk_bytes=*/256);
  // Fill chunk 1 and spill into chunk 2, sealing chunk 1 with live spans.
  std::vector<unsigned char*> first_chunk;
  for (int i = 0; i < 3; ++i) {
    auto* p = static_cast<unsigned char*>(arena.allocate(64, 8));
    std::memset(p, 0xAB, 64);
    first_chunk.push_back(p);
  }
  void* second_chunk = arena.allocate(64, 8);
  ASSERT_EQ(arena.chunks_created(), 2u);

  // While one allocation lives, its chunk is left alone.
  arena.deallocate(first_chunk[0]);
  arena.deallocate(first_chunk[1]);
  EXPECT_EQ(arena.chunks_recycled(), 0u);
  for (std::size_t i = 0; i < 64; ++i) ASSERT_EQ(first_chunk[2][i], 0xAB);

  // The last one's deallocate reclaims it: no tick or call in between.
  arena.deallocate(first_chunk[2]);
  EXPECT_EQ(arena.chunks_recycled(), 1u);
  for (unsigned char* p : first_chunk) {
    for (std::size_t i = 0; i < 64; ++i) ASSERT_EQ(p[i], Arena::kPoisonByte);
  }

  // Chunk 2 cannot fit the next request, so chunk 1 serves it from its start.
  void* reused = arena.allocate(200, 8);
  EXPECT_EQ(reused, first_chunk[0]);
  EXPECT_EQ(arena.chunks_created(), 2u);
  EXPECT_EQ(arena.bytes_reserved(), 2u * 256u);
  arena.deallocate(reused);
  arena.deallocate(second_chunk);
}
#endif  // !DYNREG_TEST_ASAN

// The bump target is reclaimed in place: once its last allocation dies, it
// is poisoned (0xDD in plain builds) and the next allocation starts over at
// its first byte instead of moving on to a second chunk.
TEST(Arena, EmptiedOpenChunkStartsOverInPlace) {
  Arena arena(/*chunk_bytes=*/256);
  auto* first = static_cast<unsigned char*>(arena.allocate(100, 8));
  std::memset(first, 0xAB, 100);
  arena.deallocate(first);
#ifndef DYNREG_TEST_ASAN
  for (std::size_t i = 0; i < 100; ++i) ASSERT_EQ(first[i], Arena::kPoisonByte);
#endif
  for (int round = 0; round < 10; ++round) {
    void* a = arena.allocate(100, 8);
    EXPECT_EQ(a, first);
    void* b = arena.allocate(100, 8);
    arena.deallocate(a);
    arena.deallocate(b);
  }
  EXPECT_EQ(arena.chunks_created(), 1u);
  EXPECT_EQ(arena.chunks_recycled(), 11u);  // one reclaim per emptying
  EXPECT_EQ(arena.bytes_reserved(), 256u);
}

#ifdef DYNREG_TEST_ASAN
// Sanitizer reclaim semantics: the span turns inaccessible at deallocate()
// time, while its chunk still holds live allocations — ASan traps the
// earliest possible misuse. A read through a dead pointer in an ASan build
// is a hard test failure, not 0xDD garbage.
TEST(Arena, DeallocatePoisonsSpanImmediately) {
  Arena arena(/*chunk_bytes=*/256);
  auto* p = static_cast<unsigned char*>(arena.allocate(32, 8));
  EXPECT_FALSE(Arena::address_is_poisoned(p));
  arena.deallocate(p);
  EXPECT_TRUE(Arena::address_is_poisoned(p));
}

TEST(BlockPool, FreedBlockIsPoisonedUntilReused) {
  BlockPool pool;
  void* p = pool.allocate();
  pool.deallocate(p);
  EXPECT_TRUE(Arena::address_is_poisoned(p));
  EXPECT_EQ(pool.allocate(), p);
  EXPECT_FALSE(Arena::address_is_poisoned(p));
  pool.deallocate(p);
}
#endif  // DYNREG_TEST_ASAN

// The pool hands out aligned, disjoint blocks, reuses the block freed last
// before carving a new one, and holds its high-water mark in slabs.
TEST(BlockPool, ReusesTheBlockFreedLast) {
  BlockPool pool;
  std::vector<void*> blocks;
  for (int i = 0; i < 100; ++i) {
    blocks.push_back(pool.allocate());
    const auto addr = reinterpret_cast<std::uintptr_t>(blocks.back());
    EXPECT_EQ(addr % BlockPool::kBlockBytes, 0u);
    std::memset(blocks.back(), i, BlockPool::kBlockBytes);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(*static_cast<unsigned char*>(blocks[i]), static_cast<unsigned char>(i));
  }
  EXPECT_EQ(pool.live_blocks(), 100u);
  EXPECT_EQ(pool.slabs_created(), 2u);
  pool.deallocate(blocks[10]);
  pool.deallocate(blocks[70]);
  EXPECT_EQ(pool.allocate(), blocks[70]);
  EXPECT_EQ(pool.allocate(), blocks[10]);
  EXPECT_EQ(pool.slabs_created(), 2u);
  for (void* p : blocks) pool.deallocate(p);
  EXPECT_EQ(pool.live_blocks(), 0u);
  EXPECT_EQ(pool.blocks_peak(), 100u);
}

}  // namespace
}  // namespace dynreg::sim
