// sim::EventQueue — time ordering and FIFO stability at equal timestamps.
// Stability is part of the contract: the Figure 3 bench pins a race exactly
// at a window boundary and relies on insertion order breaking the tie.
#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"

namespace dynreg::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&order] { order.push_back(3); });
  q.push(10, [&order] { order.push_back(1); });
  q.push(20, [&order] { order.push_back(2); });

  ASSERT_EQ(q.size(), 3u);
  while (!q.empty()) {
    Event e = q.pop();
    e.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    q.push(7, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();

  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(5, [&order] { order.push_back(1); });
  q.push(5, [&order] { order.push_back(2); });
  EXPECT_EQ(q.next_time(), 5u);
  q.pop().fn();                                // pops the first t=5 event
  q.push(5, [&order] { order.push_back(3); });  // later insertion, same time
  q.push(1, [&order] { order.push_back(0); });  // earlier time wins regardless
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 3}));
}

// peak_size() is the most events held at once: freed slots are reused
// before the high-water mark grows, and an event that is running still
// holds its slot while it pushes.
TEST(EventQueue, PeakSizeIsTheMostEventsHeldAtOnce) {
  EventQueue q;
  EXPECT_EQ(q.peak_size(), 0u);
  for (int i = 0; i < 3; ++i) q.push(1, [] {});
  q.pop();
  q.pop();
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.peak_size(), 3u);

  q.push(0, [&q] { q.push(3, [] {}); });
  q.run_top();
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.peak_size(), 4u);
}

}  // namespace
}  // namespace dynreg::sim
