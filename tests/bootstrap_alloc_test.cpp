// What a bootstrapped member costs the heap. This file replaces the global
// operator new and delete to count requests, so it builds into its own test
// executable and no other test binary sees the replacement.
//
// A group of do-nothing nodes is bootstrapped at two sizes. With every
// id-indexed column reserved before the first member is added, the larger
// group makes exactly one more allocation per added member (its node), and
// the bytes it requests per added member are the node plus its share of the
// columns: a node pointer, a 32 B chronicle record, an 8 B network slot,
// three 4 B ids (member, active and attached lists) and one liveness bit.
// Growing the columns one member at a time instead costs reallocations and
// the geometric slack they leave behind: about 238 B requested per added
// 24 B node, and 21 more allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "churn/churn_model.h"
#include "churn/system.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "node/node.h"
#include "sim/simulation.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void note(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

void* allocate(std::size_t size) {
  note(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  note(size);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  note(size);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace dynreg::churn {
namespace {

/// A member that keeps no state and sends nothing: what it costs is what
/// the group's columns and its own node cost.
class IdleNode final : public node::Node {
 public:
  IdleNode(sim::ProcessId id, node::Context& ctx, bool initial) : Node(id, ctx) {
    if (initial) notify_active();
  }
  void on_message(sim::ProcessId, const net::Payload&) override {}
};

struct Cost {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// Allocations and requested bytes of building and bootstrapping one group
/// of `n` idle members, counted while the group is alive.
Cost bootstrap_cost(std::size_t n) {
  g_allocs.store(0);
  g_bytes.store(0);
  g_counting.store(true);
  Cost cost;
  {
    sim::Simulation sim(1);
    net::Network net(sim, std::make_unique<net::FixedDelay>(1));
    SystemConfig cfg;
    cfg.initial_size = n;
    System system(sim, net, cfg, std::make_unique<NoChurn>(),
                  [](sim::ProcessId id, node::Context& ctx, bool initial) {
                    return std::make_unique<IdleNode>(id, ctx, initial);
                  });
    system.bootstrap();
    cost = Cost{g_allocs.load(), g_bytes.load()};
    EXPECT_EQ(system.active_count(), n);
  }
  g_counting.store(false);
  return cost;
}

TEST(BootstrapAlloc, OneAllocationAndTheColumnsPerMember) {
  constexpr std::size_t kSmall = 10'000;
  constexpr std::size_t kLarge = 100'000;
  const Cost small = bootstrap_cost(kSmall);
  const Cost large = bootstrap_cost(kLarge);
  const std::uint64_t added = kLarge - kSmall;

  // The columns allocate once each at either size; only nodes scale.
  EXPECT_EQ(large.allocs - small.allocs, added);

  // Per member, in eighths of a byte so the liveness bit is exact.
  constexpr std::uint64_t kColumnBytes = sizeof(node::Node*)  // System's node column
                                         + 32                 // chronicle record
                                         + 8                  // network slot
                                         + 3 * sizeof(sim::ProcessId);
  const std::uint64_t bound_eighths = 8 * (sizeof(IdleNode) + kColumnBytes) + 1;
  EXPECT_LE(8 * (large.bytes - small.bytes), added * bound_eighths)
      << "requested " << static_cast<double>(large.bytes - small.bytes) / added
      << " B per member; bound " << bound_eighths / 8.0 << " B";
}

}  // namespace
}  // namespace dynreg::churn
