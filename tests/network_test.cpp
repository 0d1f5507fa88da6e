// net::Network — delivery, broadcast membership semantics, and the
// drop-on-departure rule churn depends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "fn_receiver.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace dynreg::net {
namespace {

struct Ping final : Payload {
  Ping() : Payload(PayloadTypeRegistry::intern("test.ping")) {}
};

TEST(Network, DeliversWithModelDelayAndRecordsType) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(4));
  test::FnReceivers rx(net);
  std::vector<sim::Time> arrivals;
  rx.attach(1, [&](sim::ProcessId from, const Payload& p) {
    EXPECT_EQ(from, 0u);
    EXPECT_EQ(p.type_name(), "test.ping");
    arrivals.push_back(sim.now());
  });
  net.send(0, 1, make_payload<Ping>());
  sim.run();

  EXPECT_EQ(arrivals, (std::vector<sim::Time>{4}));
  EXPECT_EQ(net.stats().delivered, 1u);
  EXPECT_EQ(net.delivered_by_type().at("test.ping"), 1u);
}

TEST(Network, BroadcastReachesEveryoneAttachedExceptSender) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(1));
  test::FnReceivers rx(net);
  std::map<sim::ProcessId, int> received;
  for (sim::ProcessId id = 0; id < 4; ++id) {
    rx.attach(id, [&received, id](sim::ProcessId, const Payload&) { ++received[id]; });
  }
  net.broadcast(2, make_payload<Ping>());
  sim.run();

  EXPECT_EQ(received[0], 1);
  EXPECT_EQ(received[1], 1);
  EXPECT_EQ(received[2], 0);  // no self-delivery
  EXPECT_EQ(received[3], 1);
}

TEST(Network, InFlightMessageToDepartedProcessIsDropped) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(10));
  test::FnReceivers rx(net);
  int delivered = 0;
  rx.attach(1, [&delivered](sim::ProcessId, const Payload&) { ++delivered; });
  net.send(0, 1, make_payload<Ping>());
  sim.run_until(5);
  net.detach(1);  // leaves while the message is in flight
  sim.run();

  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.stats().dropped_departed, 1u);
  EXPECT_EQ(net.stats().delivered, 0u);
}

TEST(Network, LateJoinerDoesNotReceiveEarlierBroadcasts) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(10));
  test::FnReceivers rx(net);
  int delivered = 0;
  rx.attach(0, [](sim::ProcessId, const Payload&) {});
  net.broadcast(0, make_payload<Ping>());  // nobody else attached yet
  rx.attach(1, [&delivered](sim::ProcessId, const Payload&) { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, 0);
}

static_assert(sizeof(Network::Slot) == 8, "a dispatch slot is one receiver pointer");

TEST(Network, InFlightCopyGoesToWhoeverHoldsTheIdAtDelivery) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(1));
  test::FnReceivers rx(net);
  // Nothing tells incarnations of a reused id apart: whoever holds the id at
  // delivery time receives in-flight messages, as with the old map dispatch.
  int delivered = 0;
  rx.attach(1, [](sim::ProcessId, const Payload&) { FAIL() << "old incarnation"; });
  net.send(0, 1, make_payload<Ping>());
  net.detach(1);
  rx.attach(1, [&delivered](sim::ProcessId, const Payload&) { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Network, SparseIdsAndReattachKeepBroadcastMembershipExact) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(1));
  test::FnReceivers rx(net);
  std::map<sim::ProcessId, int> received;
  const auto handler = [&received](sim::ProcessId id) {
    return [&received, id](sim::ProcessId, const Payload&) { ++received[id]; };
  };
  // Out-of-order, sparse attach pattern with a detach in the middle.
  for (const sim::ProcessId id : {9u, 2u, 40u, 5u}) rx.attach(id, handler(id));
  net.detach(9);
  EXPECT_FALSE(net.attached(9));
  EXPECT_TRUE(net.attached(40));

  net.broadcast(5, make_payload<Ping>());
  sim.run();
  EXPECT_EQ(received[2], 1);
  EXPECT_EQ(received[40], 1);
  EXPECT_EQ(received[9], 0);  // detached
  EXPECT_EQ(received[5], 0);  // sender
  EXPECT_EQ(net.stats().delivered, 2u);
}

TEST(Network, LossRateDropsMessages) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(1));
  test::FnReceivers rx(net);
  int delivered = 0;
  rx.attach(1, [&delivered](sim::ProcessId, const Payload&) { ++delivered; });
  net.set_loss_rate(1.0);
  for (int i = 0; i < 10; ++i) net.send(0, 1, make_payload<Ping>());
  sim.run();

  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.stats().dropped_loss, 10u);
}

/// Cuts and rewrites nothing, but counts how often the network asks; the
/// test arms and disarms it from outside.
class CountingHook final : public FaultHook {
 public:
  bool link_cut(sim::Time, sim::ProcessId, sim::ProcessId) override {
    ++cut_calls;
    return false;
  }
  PayloadPtr transform(sim::Time, sim::ProcessId, sim::ProcessId, const PayloadPtr&) override {
    ++transform_calls;
    return nullptr;
  }
  using FaultHook::arm_cuts;
  using FaultHook::arm_transforms;
  int cut_calls = 0;
  int transform_calls = 0;
};

TEST(Network, FaultHookIsAskedOnlyWhileArmed) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(1));
  test::FnReceivers rx(net);
  int got = 0;
  rx.attach(1, [&got](sim::ProcessId, const Payload&) { ++got; });
  CountingHook hook;
  net.set_fault_hook(&hook);
  auto send_one = [&] {
    net.send(0, 1, make_payload<Ping>());
    sim.run();
  };

  send_one();  // a hook that never touches its flags sees every copy
  EXPECT_EQ(hook.cut_calls, 1);
  EXPECT_EQ(hook.transform_calls, 1);

  hook.arm_cuts(false);
  hook.arm_transforms(false);
  send_one();
  EXPECT_EQ(hook.cut_calls, 1);
  EXPECT_EQ(hook.transform_calls, 1);

  hook.arm_cuts(true);
  send_one();
  EXPECT_EQ(hook.cut_calls, 2);
  EXPECT_EQ(hook.transform_calls, 1);

  hook.arm_cuts(false);
  hook.arm_transforms(true);
  send_one();
  EXPECT_EQ(hook.cut_calls, 2);
  EXPECT_EQ(hook.transform_calls, 2);
  EXPECT_EQ(got, 4);
  EXPECT_EQ(net.stats().delivered, 4u);
}

TEST(Network, BroadcastLandingAtOneTickIsOneQueuedEvent) {
  // Every copy of a broadcast under a fixed delay arrives at the same tick,
  // so the whole fan-out is one batch: a single step() delivers all 999
  // copies, in recipient order, and leaves the queue empty.
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(3));
  test::FnReceivers rx(net);
  constexpr sim::ProcessId kN = 1000;
  std::vector<sim::ProcessId> order;
  for (sim::ProcessId id = 0; id < kN; ++id) {
    rx.attach(id, [&order, &sim, id](sim::ProcessId from, const Payload&) {
      EXPECT_EQ(from, 0u);
      EXPECT_EQ(sim.now(), 3u);
      order.push_back(id);
    });
  }
  net.broadcast(0, make_payload<Ping>());
  ASSERT_TRUE(sim.step());
  EXPECT_FALSE(sim.next_event_time().has_value());
  EXPECT_FALSE(sim.step());
  ASSERT_EQ(order.size(), kN - 1);
  for (sim::ProcessId k = 0; k < kN - 1; ++k) EXPECT_EQ(order[k], k + 1);
  EXPECT_EQ(net.stats().delivered, kN - 1);
  EXPECT_EQ(sim.arena().live_allocations(), 0u);  // the batch released its block
}

// --- Point-to-point coalescing ----------------------------------------------

// Delays by edge: broadcast copies leaving process 0 take one tick, and a
// reply from k takes 1 + (k + shift) % 3, so a fan-in lands on three ticks
// with the senders interleaved across them.
class EdgeDelay final : public DelayModel {
 public:
  explicit EdgeDelay(sim::ProcessId shift) : shift_(shift) {}
  sim::Duration delay(sim::Time, sim::ProcessId from, sim::ProcessId, const Payload&,
                      sim::Rng&) override {
    return from == 0 ? 1 : reply_delay(from, shift_);
  }
  static sim::Duration reply_delay(sim::ProcessId from, sim::ProcessId shift) {
    return 1 + (from + shift) % 3;
  }

 private:
  sim::ProcessId shift_;
};

struct Reply final : Payload {
  Reply() : Payload(PayloadTypeRegistry::intern("test.reply")) {}
};

// One delivered copy as a receiver saw it.
struct Seen {
  sim::Time at;
  sim::ProcessId from;
  friend bool operator==(const Seen& a, const Seen& b) {
    return a.at == b.at && a.from == b.from;
  }
};

// Processes 1..n answer every broadcast from 0 with a reply to 0 on `net`,
// sent from inside the batch's delivery; process 0 records what reaches it.
void attach_repliers(Network& net, test::FnReceivers& rx, sim::Simulation& sim,
                     sim::ProcessId n, std::vector<Seen>& seen) {
  rx.attach(0, [&seen, &sim](sim::ProcessId from, const Payload&) {
    seen.push_back({sim.now(), from});
  });
  for (sim::ProcessId id = 1; id <= n; ++id) {
    rx.attach(id, [&net, id](sim::ProcessId, const Payload&) {
      net.send(id, 0, make_payload<Reply>());
    });
  }
}

// The per-copy design's order at process 0: replies sent in id order at
// tick 1, each its own event, so ordered by (arrival tick, sender).
std::vector<Seen> per_copy_order(sim::ProcessId n, sim::ProcessId shift) {
  std::vector<Seen> order;
  for (sim::Time at = 2; at <= 4; ++at) {
    for (sim::ProcessId id = 1; id <= n; ++id) {
      if (1 + EdgeDelay::reply_delay(id, shift) == at) order.push_back({at, id});
    }
  }
  return order;
}

TEST(Coalescing, FanInDeliversInThePerCopyOrder) {
  // 1000 replies over three ticks: one queued event per tick, the largest
  // group spilling over several blocks (72, 144, ... 6144 bytes of runs,
  // one run per reply here since each builds its own payload). The first
  // reply lands on the earliest of the three ticks (see the next test).
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<EdgeDelay>(2));
  test::FnReceivers rx(net);
  constexpr sim::ProcessId kN = 1000;
  std::vector<Seen> seen;
  attach_repliers(net, rx, sim, kN, seen);
  net.broadcast(0, make_payload<Ping>());
  sim.run();

  EXPECT_EQ(seen, per_copy_order(kN, 2));
  EXPECT_EQ(sim.events(), 1u + 3u);  // the broadcast batch + one group per tick
  EXPECT_EQ(net.stats().delivered, 2 * std::uint64_t{kN});
  EXPECT_EQ(sim.arena().live_allocations(), 0u);  // spill blocks released
}

// A reply that says which of a few shared payloads it is.
struct Marked final : Payload {
  explicit Marked(int m) : Payload(PayloadTypeRegistry::intern("test.marked")), mark(m) {}
  int mark;
};

// One delivered copy of a Marked reply: which object arrived, and its mark.
struct MarkedCopy {
  sim::Time at;
  sim::ProcessId from;
  const Payload* payload;
  int mark;
  friend bool operator==(const MarkedCopy& x, const MarkedCopy& y) {
    return x.at == y.at && x.from == y.from && x.payload == y.payload && x.mark == y.mark;
  }
};

TEST(Coalescing, AlternatingPayloadsKeepThePerCopyOrder) {
  // 400 replies to one batch, all at tick 2, so copies 2..400 go into one
  // spill. Repliers 1..100 send two shared payloads in the pattern
  // A,B,A,A,B, so runs open and close within a block; the rest all send A,
  // one run spilling over several blocks. Each copy must reach process 0 in
  // send order carrying its own payload object.
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(1));
  test::FnReceivers rx(net);
  constexpr sim::ProcessId kN = 400;
  const PayloadPtr a = make_payload<Marked>(0);
  const PayloadPtr b = make_payload<Marked>(1);
  const auto payload_of = [&](sim::ProcessId id) -> const PayloadPtr& {
    constexpr bool kIsB[] = {false, true, false, false, true};
    return id <= 100 && kIsB[(id - 1) % 5] ? b : a;
  };
  std::vector<MarkedCopy> seen;
  rx.attach(0, [&](sim::ProcessId from, const Payload& p) {
    seen.push_back({sim.now(), from, &p, static_cast<const Marked&>(p).mark});
  });
  for (sim::ProcessId id = 1; id <= kN; ++id) {
    rx.attach(id, [&, id](sim::ProcessId, const Payload&) { net.send(id, 0, payload_of(id)); });
  }
  net.broadcast(0, make_payload<Ping>());
  sim.run();

  std::vector<MarkedCopy> expected;
  for (sim::ProcessId id = 1; id <= kN; ++id) {
    const PayloadPtr& p = payload_of(id);
    expected.push_back({2, id, p.get(), static_cast<const Marked&>(*p).mark});
  }
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(sim.events(), 1u + 1u);  // the broadcast batch + one group
  EXPECT_EQ(net.stats().delivered, 2 * std::uint64_t{kN});
  EXPECT_EQ(sim.arena().live_allocations(), 0u);  // spill blocks released
  EXPECT_EQ(a.use_count(), 1);  // every run let go of its reference
  EXPECT_EQ(b.use_count(), 1);
}

TEST(Coalescing, FarTierArrivalsQueueOneEventEach) {
  // The running batch has left the queue, so with nothing else queued the
  // first reply re-bases the timing wheel at its own tick, 3. Replies for
  // tick 2 then land in the far tier, which is never coalesced: one event
  // each, and still the per-copy order.
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<EdgeDelay>(0));
  test::FnReceivers rx(net);
  constexpr sim::ProcessId kN = 1000;
  std::vector<Seen> seen;
  attach_repliers(net, rx, sim, kN, seen);
  net.broadcast(0, make_payload<Ping>());
  sim.run();

  EXPECT_EQ(seen, per_copy_order(kN, 0));
  EXPECT_EQ(sim.events(), 1u + kN / 3 + 2u);  // 333 far-tier replies, two groups
}

TEST(Coalescing, AnEventQueuedBetweenTwoRepliesSplitsTheGroup) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(1));
  test::FnReceivers rx(net);
  constexpr sim::ProcessId kN = 100;
  std::vector<Seen> seen;
  rx.attach(0, [&seen, &sim](sim::ProcessId from, const Payload&) {
    seen.push_back({sim.now(), from});
  });
  for (sim::ProcessId id = 1; id <= kN; ++id) {
    rx.attach(id, [&, id](sim::ProcessId, const Payload&) {
      net.send(id, 0, make_payload<Reply>());
      // Queued at the replies' tick, after reply 40 and before reply 41.
      if (id == 40) sim.schedule_after(1, [&seen, &sim] { seen.push_back({sim.now(), 0}); });
    });
  }
  net.broadcast(0, make_payload<Ping>());
  sim.run();

  std::vector<Seen> expected;
  for (sim::ProcessId id = 1; id <= kN; ++id) {
    expected.push_back({2, id});
    if (id == 40) expected.push_back({2, 0});  // the marker event
  }
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(sim.events(), 1u + 3u);  // batch, replies 1-40, marker, replies 41-100
}

TEST(Coalescing, ReceiverDetachedByAnEarlierCopyDropsTheRestOfTheGroup) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(1));
  test::FnReceivers rx(net);
  constexpr sim::ProcessId kN = 100;
  std::vector<Seen> seen;
  attach_repliers(net, rx, sim, kN, seen);
  // Process 0 leaves on its fifth reply; the other 95 are in the same group.
  rx.attach(0, [&](sim::ProcessId from, const Payload&) {
    seen.push_back({sim.now(), from});
    if (seen.size() == 5) net.detach(0);
  });
  net.broadcast(0, make_payload<Ping>());
  sim.run();

  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(sim.events(), 2u);
  EXPECT_EQ(net.stats().dropped_departed, kN - 5);
  EXPECT_EQ(net.stats().delivered, kN + 5);
}

TEST(Coalescing, NetworksSharingASimulationNeverMergeGroups) {
  // Two broadcasts of 100 copies land at tick 1, A's batch first. Each
  // batch's replies go to its own network's process 0 at tick 2, so while B
  // delivers, the tick's newest event is A's group for the same id.
  sim::Simulation sim(1);
  Network a(sim, std::make_unique<FixedDelay>(1));
  Network b(sim, std::make_unique<FixedDelay>(1));
  test::FnReceivers rx_a(a);
  test::FnReceivers rx_b(b);
  constexpr sim::ProcessId kN = 100;
  std::vector<Seen> seen_a;
  std::vector<Seen> seen_b;
  attach_repliers(a, rx_a, sim, kN, seen_a);
  attach_repliers(b, rx_b, sim, kN, seen_b);
  a.broadcast(0, make_payload<Ping>());
  b.broadcast(0, make_payload<Ping>());
  sim.run();

  std::vector<Seen> expected;
  for (sim::ProcessId id = 1; id <= kN; ++id) expected.push_back({2, id});
  EXPECT_EQ(seen_a, expected);
  EXPECT_EQ(seen_b, expected);
  EXPECT_EQ(a.stats().delivered, 2 * std::uint64_t{kN});
  EXPECT_EQ(b.stats().delivered, 2 * std::uint64_t{kN});
  EXPECT_EQ(sim.events(), 2u + 2u);  // two batches, one group per network
}

TEST(Coalescing, BatchBelowTheThresholdQueuesOneEventPerReply) {
  for (const sim::ProcessId n : {Network::kCoalesceMinBatch - 1, Network::kCoalesceMinBatch}) {
    sim::Simulation sim(1);
    Network net(sim, std::make_unique<FixedDelay>(1));
    test::FnReceivers rx(net);
    std::vector<Seen> seen;
    attach_repliers(net, rx, sim, n, seen);
    net.broadcast(0, make_payload<Ping>());
    sim.run();

    EXPECT_EQ(seen.size(), n);
    const std::uint64_t replies = n < Network::kCoalesceMinBatch ? n : 1;
    EXPECT_EQ(sim.events(), 1 + replies) << "batch of " << n;
  }
}

TEST(Coalescing, SendsOutsideABatchQueueOneEventEach) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(1));
  test::FnReceivers rx(net);
  int delivered = 0;
  rx.attach(1, [&delivered](sim::ProcessId, const Payload&) { ++delivered; });
  for (int i = 0; i < 10; ++i) net.send(0, 1, make_payload<Reply>());
  sim.run();
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(sim.events(), 10u);
}

// Counts live instances, so a test can see every spilled payload released.
struct Tracked final : Payload {
  explicit Tracked(int* live)
      : Payload(PayloadTypeRegistry::intern("test.tracked")), live_(live) {
    ++*live_;
  }
  ~Tracked() { --*live_; }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  int* live_;
};

TEST(Coalescing, SimulationOutlivingItsNetworkFreesQueuedGroups) {
  // Sharded and traced runs destroy their networks before the simulation
  // whose queue still holds coalesced groups. The groups' teardown must
  // reach the arena only, never the destroyed network.
  int live = 0;
  {
    sim::Simulation sim(1);
    auto net = std::make_unique<Network>(sim, std::make_unique<FixedDelay>(1));
    test::FnReceivers rx(*net);
    constexpr sim::ProcessId kN = 200;
    rx.attach(0, [](sim::ProcessId, const Payload&) { FAIL() << "never delivered"; });
    for (sim::ProcessId id = 1; id <= kN; ++id) {
      rx.attach(id, [&net, &live, id](sim::ProcessId, const Payload&) {
        net->send(id, 0, make_payload<Tracked>(&live));
      });
    }
    net->broadcast(0, make_payload<Ping>());
    ASSERT_TRUE(sim.step());  // the batch: queues one group of 200 replies
    EXPECT_EQ(live, static_cast<int>(kN));
    EXPECT_EQ(sim.next_event_time().value_or(0), 2u);
    net.reset();
  }
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace dynreg::net
