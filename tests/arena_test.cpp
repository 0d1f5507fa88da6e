// sim::Arena — the epoch-reclaim lifetime contract the payload and
// pending-op storage stand on: canaries survive until deallocate, retired
// chunks poison-fill on reclaim (0xDD in plain builds, ASan poison under
// sanitizers), and recycled chunks are reused instead of re-reserved.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
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

// The property/fuzz core: a random interleaving of allocate / deallocate /
// advance_epoch, with every live allocation carrying a distinct fill
// pattern. The arena may recycle chunks under our feet — the property is
// that no live canary is ever disturbed and the live-count bookkeeping
// matches a trivial model. Runs clean under ASan/UBSan too (live spans are
// unpoisoned by definition).
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
        arena.advance_epoch();
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
  // Steady-state churn: each round fills a few chunks, frees them, and lets
  // the epoch move. After warm-up, reserved bytes must stop growing.
  std::size_t reserved_after_warmup = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<void*> ptrs;
    for (int i = 0; i < 16; ++i) ptrs.push_back(arena.allocate(48, 8));
    for (void* p : ptrs) arena.deallocate(p);
    arena.advance_epoch();
    arena.advance_epoch();
    if (round == 4) reserved_after_warmup = arena.bytes_reserved();
  }
  EXPECT_GT(arena.chunks_recycled(), arena.chunks_created());
  EXPECT_EQ(arena.bytes_reserved(), reserved_after_warmup);
}

TEST(Arena, RetiredOversizeChunksServeLaterOversizeRequests) {
  // Large broadcast batches are oversize requests every tick. Each one must
  // reuse a retired oversize chunk that fits, not reserve a fresh one, or
  // the arena would grow with the run's length.
  Arena arena(/*chunk_bytes=*/256);
  std::size_t reserved_after_warmup = 0;
  for (int round = 0; round < 40; ++round) {
    void* big = arena.allocate(900 + 10 * (round % 4), 8);
    void* small = arena.allocate(32, 8);
    std::memset(big, 0x3C, 900);
    arena.deallocate(big);
    arena.deallocate(small);
    arena.advance_epoch();
    arena.advance_epoch();
    if (round == 4) reserved_after_warmup = arena.bytes_reserved();
  }
  EXPECT_EQ(arena.bytes_reserved(), reserved_after_warmup);
  EXPECT_EQ(arena.live_allocations(), 0u);
}

#ifndef DYNREG_TEST_ASAN
// Plain-build reclaim semantics: bytes of a dead allocation stay intact
// until the epoch moves past its chunk's retirement (the "same-tick
// dangler" guarantee), then the whole chunk is poison-filled with 0xDD so
// any use-after-reclaim reads deterministic garbage. (Under ASan the reads
// below would — correctly — trap; the sanitizer variant of this gate is
// DeallocatePoisonsSpanImmediately.)
TEST(Arena, ReclaimPoisonsRetiredChunksWithDdBytes) {
  Arena arena(/*chunk_bytes=*/256);
  // Fill chunk 1 and spill into chunk 2, sealing chunk 1 with live spans.
  std::vector<unsigned char*> first_chunk;
  for (int i = 0; i < 3; ++i) {
    auto* p = static_cast<unsigned char*>(arena.allocate(64, 8));
    std::memset(p, 0xAB, 64);
    first_chunk.push_back(p);
  }
  (void)arena.allocate(64, 8);  // opens chunk 2

  for (unsigned char* p : first_chunk) arena.deallocate(p);
  // Dead but not yet reclaimed: the dangler still sees its own bytes.
  for (unsigned char* p : first_chunk) {
    for (std::size_t i = 0; i < 64; ++i) ASSERT_EQ(p[i], 0xAB);
  }

  const std::size_t recycled_before = arena.chunks_recycled();
  arena.advance_epoch();
  ASSERT_GT(arena.chunks_recycled(), recycled_before);
  for (unsigned char* p : first_chunk) {
    for (std::size_t i = 0; i < 64; ++i) ASSERT_EQ(p[i], Arena::kPoisonByte);
  }
}
#endif  // !DYNREG_TEST_ASAN

#ifdef DYNREG_TEST_ASAN
// Sanitizer reclaim semantics: the span turns inaccessible at deallocate()
// time — ASan traps the earliest possible misuse instead of waiting for the
// epoch. This is the use-after-reclaim gate the issue pins: a read through
// a dead pointer in an ASan build is a hard test failure, not 0xDD garbage.
TEST(Arena, DeallocatePoisonsSpanImmediately) {
  Arena arena(/*chunk_bytes=*/256);
  auto* p = static_cast<unsigned char*>(arena.allocate(32, 8));
  EXPECT_FALSE(Arena::address_is_poisoned(p));
  arena.deallocate(p);
  EXPECT_TRUE(Arena::address_is_poisoned(p));
}
#endif  // DYNREG_TEST_ASAN

// ArenaAllocator round-trip: a node-based container running entirely on the
// arena behaves observably identically to one on the heap allocator across
// a long random insert/erase history (the ES pending-op maps in miniature).
TEST(ArenaAllocator, MapOverArenaMatchesHeapMap) {
  Arena arena;
  using AMap = std::map<int, int, std::less<int>,
                        ArenaAllocator<std::pair<const int, int>>>;
  AMap subject{ArenaAllocator<std::pair<const int, int>>(arena)};
  std::map<int, int> model;

  std::mt19937 rng(99);
  for (int op = 0; op < 10000; ++op) {
    const int key = static_cast<int>(rng() % 512);
    if (rng() % 3 != 0) {
      subject[key] = op;
      model[key] = op;
    } else {
      subject.erase(key);
      model.erase(key);
    }
    if (op % 64 == 0) arena.advance_epoch();
  }
  ASSERT_EQ(subject.size(), model.size());
  EXPECT_TRUE(std::equal(subject.begin(), subject.end(), model.begin()));

  subject.clear();
  EXPECT_EQ(arena.live_allocations(), 0u);
}

TEST(ArenaAllocator, InstancesOverSameArenaCompareEqual) {
  Arena a;
  Arena b;
  ArenaAllocator<int> a1(a);
  ArenaAllocator<double> a2(a);
  ArenaAllocator<int> b1(b);
  EXPECT_TRUE(a1 == a2);   // rebind preserves identity
  EXPECT_FALSE(a1 == b1);
  EXPECT_TRUE(a1 != b1);
}

}  // namespace
}  // namespace dynreg::sim
