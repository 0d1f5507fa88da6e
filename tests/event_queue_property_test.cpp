// Property test: EventQueue against a naive sorted-vector reference model.
//
// The queue's contract is total order by (time, push order). The production
// structure is a two-tier timing wheel + far heap, so this test hammers the
// seams: duplicate times, pushes past the wheel window, pushes into the
// wheel's past after pops, and interleaved push/pop bursts. The reference
// model keeps a plain vector ordered by (time, insertion seq) — insertion
// order IS the tie-break, so any divergence is a stability bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulation.h"

namespace dynreg::sim {
namespace {

class ReferenceModel {
 public:
  void push(Time time, int id) { events_.push_back({time, seq_++, id}); }

  int pop() {
    const auto it = min_it();
    const int id = it->id;
    events_.erase(it);
    return id;
  }

  Time next_time() const { return min_it()->time; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;
    int id;
  };

  std::vector<Entry>::const_iterator min_it() const {
    return std::min_element(events_.begin(), events_.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.time != b.time ? a.time < b.time : a.seq < b.seq;
                            });
  }
  // erase needs a mutable iterator
  std::vector<Entry>::iterator min_it() {
    return std::min_element(events_.begin(), events_.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.time != b.time ? a.time < b.time : a.seq < b.seq;
                            });
  }

  std::vector<Entry> events_;
  std::uint64_t seq_ = 0;
};

/// Runs one randomized trace; `max_jump` > EventQueue::kWindow exercises the
/// far tier and the wheel/heap tie-breaking, `use_run_top` switches between
/// the pop() and run_top() consumption paths.
void run_random_trace(std::uint32_t seed, Time max_jump, bool use_run_top) {
  std::mt19937 rng(seed);
  EventQueue queue;
  ReferenceModel model;
  std::vector<int> queue_order;
  std::vector<int> model_order;
  int next_id = 0;
  Time now = 0;  // mirrors a simulation clock: pushes land at now + delta

  const auto pop_one = [&] {
    ASSERT_EQ(queue.next_time(), model.next_time());
    const Time expected_time = model.next_time();
    now = std::max(now, expected_time);
    if (use_run_top) {
      queue.run_top();
    } else {
      Event e = queue.pop();
      EXPECT_EQ(e.time, expected_time);
      e.fn();
    }
    model_order.push_back(model.pop());
  };

  for (int step = 0; step < 4000; ++step) {
    const bool do_push = model.empty() || rng() % 10 < 6;
    if (do_push) {
      // Delay distribution with heavy duplication plus occasional jumps far
      // beyond the wheel window to force the far tier. A few pushes go
      // strictly into the wheel's past (allowed for the standalone queue).
      Time at = now;
      switch (rng() % 8) {
        case 0:
          break;  // same tick as the clock
        case 1:
          at = now + rng() % 4;
          break;
        case 6:
          at = now > 10 ? now - 1 - rng() % 10 : now;  // behind the wheel base
          break;
        case 7:
          at = now + rng() % max_jump;  // may exceed the wheel window
          break;
        default:
          at = now + 1 + rng() % 16;
          break;
      }
      const int id = next_id++;
      queue.push(at, [&queue_order, id] { queue_order.push_back(id); });
      model.push(at, id);
    } else {
      pop_one();
    }
    ASSERT_EQ(queue.size(), model.size());
    ASSERT_EQ(queue.empty(), model.empty());
  }

  while (!model.empty()) pop_one();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue_order, model_order);
  EXPECT_EQ(queue_order.size(), static_cast<std::size_t>(next_id));
}

TEST(EventQueueProperty, MatchesReferenceWithinWheelWindow) {
  run_random_trace(/*seed=*/1, /*max_jump=*/EventQueue::kWindow / 2, /*use_run_top=*/false);
  run_random_trace(/*seed=*/2, /*max_jump=*/EventQueue::kWindow / 2, /*use_run_top=*/true);
}

TEST(EventQueueProperty, MatchesReferenceAcrossFarTier) {
  // Jumps up to 4x the wheel span: events constantly cross between tiers.
  run_random_trace(/*seed=*/3, /*max_jump=*/4 * EventQueue::kWindow, /*use_run_top=*/false);
  run_random_trace(/*seed=*/4, /*max_jump=*/4 * EventQueue::kWindow, /*use_run_top=*/true);
}

// The 1e6-entry regression pin for the timing-wheel scaling work: a
// million-event adversarial spread (hot duplicate ticks, dense near-window
// clusters, far-tier jumps, and a mid-stream drain/refill that lands new
// events across the survivors' times). The naive per-pop reference above is
// O(n) per operation, so at this size the model is a sorted snapshot
// instead: pop order must equal the (time, push-seq) sort exactly. This
// walks ~31 task slabs, so it also covers the lazy slab construction and
// drain-on-destroy paths at the scale the 8.6M items/s cliff appeared.
TEST(EventQueueProperty, MillionEntryAdversarialSpreadMatchesSortedModel) {
  struct Entry {
    Time time;
    std::uint64_t seq;
    int id;
  };
  const auto by_time_seq = [](const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  };

  std::mt19937 rng(2026);
  EventQueue queue;
  std::vector<int> popped;
  popped.reserve(1'000'000);
  std::uint64_t seq = 0;
  int next_id = 0;
  Time now = 0;

  const auto adversarial_time = [&](Time base) -> Time {
    switch (rng() % 8) {
      case 0:
      case 1:
        return base + rng() % 16;  // hot duplicate ticks
      case 2:
      case 3:
        return base + rng() % 64;  // dense near cluster
      case 4:
        return base > 32 ? base - 1 - rng() % 32 : base;  // wheel's past
      case 5:
      case 6:
        return base + rng() % EventQueue::kWindow;  // spread across the wheel
      default:
        return base + EventQueue::kWindow + rng() % (8 * EventQueue::kWindow);
    }
  };
  const auto push_n = [&](std::size_t n, std::vector<Entry>& into) {
    for (std::size_t i = 0; i < n; ++i) {
      const Time at = adversarial_time(now);
      const int id = next_id++;
      queue.push(at, [&popped, id] { popped.push_back(id); });
      into.push_back({at, seq++, id});
    }
  };
  const auto pop_n = [&](std::size_t n, const std::vector<Entry>& sorted,
                         std::size_t offset) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 10000 == 0) {
        ASSERT_EQ(queue.next_time(), sorted[offset + i].time);
      }
      now = std::max(now, sorted[offset + i].time);
      queue.run_top();
    }
  };

  std::vector<Entry> pending;
  pending.reserve(1'000'000);
  push_n(600'000, pending);
  ASSERT_EQ(queue.size(), 600'000u);
  std::sort(pending.begin(), pending.end(), by_time_seq);
  pop_n(300'000, pending, 0);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < 300'000; ++i) {
    if (popped[i] != pending[i].id) ++mismatches;
  }
  ASSERT_EQ(mismatches, 0u) << "pop order diverged in the first drain";

  // Refill while 300k survivors are still queued: the new events' times
  // interleave with the survivors', and ties must resolve by push order.
  pending.erase(pending.begin(), pending.begin() + 300'000);
  push_n(400'000, pending);
  ASSERT_EQ(queue.size(), 700'000u);
  std::sort(pending.begin(), pending.end(), by_time_seq);
  pop_n(pending.size(), pending, 0);

  ASSERT_TRUE(queue.empty());
  ASSERT_EQ(popped.size(), 1'000'000u);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (popped[300'000 + i] != pending[i].id) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u) << "pop order diverged after the refill";
}

TEST(EventQueueProperty, ManyDuplicateTimesStayFifo) {
  EventQueue queue;
  ReferenceModel model;
  std::vector<int> queue_order;
  std::vector<int> model_order;
  std::mt19937 rng(99);
  // 2000 events over just 5 distinct times, pushed in random time order.
  for (int id = 0; id < 2000; ++id) {
    const Time t = rng() % 5;
    queue.push(t, [&queue_order, id] { queue_order.push_back(id); });
    model.push(t, id);
  }
  while (!model.empty()) {
    queue.pop().fn();
    model_order.push_back(model.pop());
  }
  EXPECT_EQ(queue_order, model_order);
}

// --- Appending to the newest event at a tick --------------------------------

// A queued callable that runs several logical events in order, the way the
// network's coalesced point-to-point delivery does.
struct Group {
  std::vector<int>* out;
  std::vector<int> ids;
  void operator()() { out->insert(out->end(), ids.begin(), ids.end()); }
};

/// Random trace in which a group push appends its id to the newest event at
/// its tick when that event is a Group, and queues a new Group otherwise;
/// plain pushes and pops interleave. The order must equal the reference
/// model's, where every id was its own event.
void run_coalescing_trace(std::uint32_t seed, Time max_jump) {
  std::mt19937 rng(seed);
  Simulation sim(seed);
  ReferenceModel model;
  std::vector<int> sim_order;
  std::vector<int> model_order;
  int next_id = 0;
  std::size_t appended = 0;

  for (int step = 0; step < 6000; ++step) {
    if (model.empty() || rng() % 10 < 7) {
      Time at = sim.now() + 1 + rng() % 4;
      if (rng() % 16 == 0) at = sim.now() + rng() % max_jump;
      const int id = next_id++;
      model.push(at, id);
      if (rng() % 4 != 0) {
        if (Group* g = sim.newest_as<Group>(at)) {
          g->ids.push_back(id);
          ++appended;
        } else {
          sim.schedule_at(at, Group{&sim_order, {id}});
        }
      } else {
        sim.schedule_at(at, [&sim_order, id] { sim_order.push_back(id); });
      }
    } else {
      ASSERT_EQ(sim.next_event_time().value_or(0), model.next_time());
      // One queued event may carry several model events at its tick.
      const std::size_t before = sim_order.size();
      sim.step();
      for (std::size_t k = before; k < sim_order.size(); ++k) {
        model_order.push_back(model.pop());
      }
    }
  }
  while (sim.step()) {
  }
  while (!model.empty()) model_order.push_back(model.pop());
  EXPECT_EQ(sim_order, model_order);
  EXPECT_GT(appended, 1000u);  // the trace does coalesce
}

TEST(EventQueueProperty, AppendingToTheNewestEventKeepsThePerEventOrder) {
  run_coalescing_trace(/*seed=*/5, /*max_jump=*/EventQueue::kWindow / 2);
  run_coalescing_trace(/*seed=*/6, /*max_jump=*/4 * EventQueue::kWindow);
}

TEST(EventQueueProperty, NewestAsSeesOnlyTheNewestInWindowRingEvent) {
  Simulation sim(1);
  std::vector<int> out;
  EXPECT_EQ(sim.newest_as<Group>(5), nullptr);  // empty queue

  sim.schedule_at(5, Group{&out, {1}});
  Group* g = sim.newest_as<Group>(5);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->ids, std::vector<int>{1});
  EXPECT_EQ(sim.newest_as<Group>(6), nullptr);  // nothing queued there

  sim.schedule_at(5, [] {});  // a newer event of another type hides it
  EXPECT_EQ(sim.newest_as<Group>(5), nullptr);

  // Beyond the window: the far tier, never handed out.
  const Time far = 10 + EventQueue::kWindow;
  sim.schedule_at(far, Group{&out, {2}});
  EXPECT_EQ(sim.newest_as<Group>(far), nullptr);

  // Move the window past 5 and over `far`: the far-tier event at an
  // in-window tick still is not handed out, and 5 is behind the window.
  sim.schedule_at(20, [] {});
  sim.run_until(20);
  EXPECT_EQ(sim.newest_as<Group>(far), nullptr);
  EXPECT_EQ(sim.newest_as<Group>(5), nullptr);

  // A ring event queued at that tick now is the newest there.
  sim.schedule_at(far, Group{&out, {3}});
  ASSERT_NE(sim.newest_as<Group>(far), nullptr);
  sim.newest_as<Group>(far)->ids.push_back(4);
  sim.run();
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4}));
}

}  // namespace
}  // namespace dynreg::sim
