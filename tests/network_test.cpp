// net::Network — delivery, broadcast membership semantics, and the
// drop-on-departure rule churn depends on.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "fn_receiver.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace dynreg::net {
namespace {

struct Ping final : Payload {
  std::string_view type_name() const override { return "test.ping"; }
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

TEST(Network, GenerationDistinguishesIncarnationsOfAReusedId) {
  sim::Simulation sim(1);
  Network net(sim, std::make_unique<FixedDelay>(1));
  test::FnReceivers rx(net);
  EXPECT_EQ(net.generation(7), 0u);  // never-seen id

  rx.attach(7, [](sim::ProcessId, const Payload&) {});
  const auto first = net.generation(7);
  net.detach(7);
  rx.attach(7, [](sim::ProcessId, const Payload&) {});
  EXPECT_GT(net.generation(7), first);  // re-attach is a new incarnation

  // Delivery deliberately ignores generations: whoever holds the id at
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

}  // namespace
}  // namespace dynreg::net
