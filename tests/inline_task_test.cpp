// sim::InlineTask — storage selection, move semantics, and destruction
// accounting. Runs under ASan in CI, so the destruction-count cases double
// as leak/double-free detectors for both the in-place and heap paths.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <utility>

#include "sim/inline_task.h"

namespace dynreg::sim {
namespace {

TEST(InlineTask, SmallCaptureStoredInPlace) {
  int hits = 0;
  int* p = &hits;
  InlineTask t([p] { ++*p; });
  EXPECT_TRUE(t.is_inline());
  t();
  t();
  EXPECT_EQ(hits, 2);
}

TEST(InlineTask, CapacityBoundaryStoredInPlace) {
  struct Capture {
    unsigned char bytes[InlineTask::kInlineCapacity - sizeof(int*)] = {};
    int* counter;
  };
  static_assert(sizeof(Capture) == InlineTask::kInlineCapacity);
  int hits = 0;
  Capture c{{}, &hits};
  InlineTask t([c] { ++*c.counter; });
  EXPECT_TRUE(t.is_inline());
  t();
  EXPECT_EQ(hits, 1);
}

TEST(InlineTask, OversizedCaptureFallsBackToHeap) {
  struct Big {
    unsigned char bytes[InlineTask::kInlineCapacity + 1] = {};
    int* counter = nullptr;
  };
  int hits = 0;
  Big big;
  big.counter = &hits;
  InlineTask t([big] { ++*big.counter; });
  EXPECT_FALSE(t.is_inline());
  t();
  EXPECT_EQ(hits, 1);
}

TEST(InlineTask, MoveTransfersOwnership) {
  int hits = 0;
  int* p = &hits;
  InlineTask a([p] { ++*p; });
  InlineTask b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move): contract under test
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  InlineTask c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(hits, 2);
}

// Counts constructions/destructions of a non-trivially-copyable capture so
// the tests can assert exact balance (no leaks, no double-destroy).
struct Counted {
  explicit Counted(int* live) : live_(live) { ++*live_; }
  Counted(const Counted& o) : live_(o.live_) { ++*live_; }
  Counted(Counted&& o) noexcept : live_(o.live_) { ++*live_; }
  ~Counted() { --*live_; }
  int* live_;
};

TEST(InlineTask, DestroysInPlaceCaptureExactlyOnce) {
  int live = 0;
  {
    Counted counted(&live);
    InlineTask t([counted] {});
    EXPECT_TRUE(t.is_inline());
    EXPECT_GE(live, 2);  // original + stored copy
  }
  EXPECT_EQ(live, 0);
}

TEST(InlineTask, DestroysHeapCaptureExactlyOnce) {
  int live = 0;
  {
    Counted counted(&live);
    unsigned char pad[InlineTask::kInlineCapacity] = {};
    InlineTask t([counted, pad] { (void)pad; });
    EXPECT_FALSE(t.is_inline());
    EXPECT_GE(live, 2);
  }
  EXPECT_EQ(live, 0);
}

TEST(InlineTask, MovedThroughChainDestroysExactlyOnce) {
  int live = 0;
  {
    Counted counted(&live);
    InlineTask a([counted] {});
    InlineTask b(std::move(a));
    InlineTask c;
    c = std::move(b);
    InlineTask d(std::move(c));
    EXPECT_EQ(live, 2);  // the original + exactly one stored copy survives the moves
  }
  EXPECT_EQ(live, 0);
}

TEST(InlineTask, AssignReplacesAndDestroysPrevious) {
  int live_a = 0;
  int live_b = 0;
  {
    Counted ca(&live_a);
    Counted cb(&live_b);
    InlineTask t([ca] {});
    EXPECT_EQ(live_a, 2);
    t.assign([cb] {});
    EXPECT_EQ(live_a, 1);  // previous capture destroyed by assign
    EXPECT_EQ(live_b, 2);
    t.reset();
    EXPECT_EQ(live_b, 1);
    EXPECT_FALSE(static_cast<bool>(t));
  }
  EXPECT_EQ(live_a, 0);
  EXPECT_EQ(live_b, 0);
}

TEST(InlineTask, SharedPtrCaptureKeepsReferenceCounts) {
  auto sp = std::make_shared<int>(7);
  {
    InlineTask t([sp] {});
    EXPECT_TRUE(t.is_inline());
    EXPECT_EQ(sp.use_count(), 2);
    InlineTask u(std::move(t));
    EXPECT_EQ(sp.use_count(), 2);
  }
  EXPECT_EQ(sp.use_count(), 1);
}

// Named callables for target<F>(): the network looks its own delivery
// closure up this way, by exact type.
struct Tagged {
  int value;
  void operator()() {}
};
struct OtherTagged {
  int value;
  void operator()() {}
};
struct Oversized {
  unsigned char bytes[InlineTask::kInlineCapacity + 1];
  void operator()() {}
};

TEST(InlineTask, TargetFindsTheStoredCallableOfThatTypeOnly) {
  InlineTask t(Tagged{7});
  ASSERT_NE(t.target<Tagged>(), nullptr);
  EXPECT_EQ(t.target<Tagged>()->value, 7);
  t.target<Tagged>()->value = 9;  // amended in place
  InlineTask moved(std::move(t));
  ASSERT_NE(moved.target<Tagged>(), nullptr);
  EXPECT_EQ(moved.target<Tagged>()->value, 9);

  EXPECT_EQ(moved.target<OtherTagged>(), nullptr);  // another type
  EXPECT_EQ(t.target<Tagged>(), nullptr);  // NOLINT(bugprone-use-after-move): empty
  InlineTask lambda([] {});
  EXPECT_EQ(lambda.target<Tagged>(), nullptr);
}

TEST(InlineTask, TargetIsNullForAHeapStoredCallable) {
  InlineTask t(Oversized{});
  ASSERT_FALSE(t.is_inline());
  EXPECT_EQ(t.target<Oversized>(), nullptr);
}

}  // namespace
}  // namespace dynreg::sim
