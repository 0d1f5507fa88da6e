// The Disseminator seam: flat and tree fan-out must be interchangeable at
// the protocol's level of observation — every broadcast reaches exactly the
// processes attached at send time, exactly once each, with the LOGICAL
// broadcaster as the observed sender. The tree pays latency, never
// correctness. Also pins the byte-identity anchor: an explicit
// FlatDisseminator is draw-for-draw identical to the default one, and the
// grouped delivery path (one queued event per broadcast arrival tick) keeps
// every per-copy step — departure check, fault hook, order — per copy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "fn_receiver.h"
#include "net/delay_model.h"
#include "net/disseminator.h"
#include "net/fault_hook.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace dynreg::net {
namespace {

struct Ping final : Payload {
  Ping() : Payload(PayloadTypeRegistry::intern("test.ping")) {}
};

struct Delivery {
  sim::ProcessId to;
  sim::ProcessId from;
  sim::Time at;
};

/// Runs one broadcast from `sender` over `n` attached processes and returns
/// every delivery observed, in delivery order.
std::vector<Delivery> run_broadcast(std::unique_ptr<Disseminator> d,
                                    std::size_t n, sim::ProcessId sender,
                                    std::uint32_t seed = 1,
                                    double loss_rate = 0.0) {
  sim::Simulation sim(seed);
  Network net(sim, std::make_unique<net::FixedDelay>(3));
  test::FnReceivers rx(net);
  net.set_disseminator(std::move(d));
  net.set_loss_rate(loss_rate);
  std::vector<Delivery> log;
  for (sim::ProcessId id = 0; id < n; ++id) {
    rx.attach(id, [&log, id, &sim](sim::ProcessId from, const Payload&) {
      log.push_back({id, from, sim.now()});
    });
  }
  net.broadcast(sender, make_payload<Ping>());
  sim.run();
  return log;
}

std::set<sim::ProcessId> recipients(const std::vector<Delivery>& log) {
  std::set<sim::ProcessId> out;
  for (const Delivery& d : log) out.insert(d.to);
  return out;
}

TEST(Disseminator, TreeDeliversExactlyOnceToTheFlatRecipientSet) {
  for (const std::uint32_t fanout : {1u, 2u, 3u, 4u, 8u}) {
    SCOPED_TRACE(fanout);
    const auto flat = run_broadcast(nullptr, 33, /*sender=*/7);
    const auto tree =
        run_broadcast(std::make_unique<TreeDisseminator>(fanout), 33, 7);

    // Same recipient set, and exactly one copy each — no duplicate reaches
    // any process however the tree partitions the forwarding.
    EXPECT_EQ(recipients(tree), recipients(flat));
    std::map<sim::ProcessId, int> copies;
    for (const Delivery& d : tree) ++copies[d.to];
    EXPECT_EQ(copies.size(), 32u);
    for (const auto& [id, count] : copies) {
      EXPECT_EQ(count, 1) << "process " << id;
      EXPECT_NE(id, 7u);  // no self-delivery
    }
  }
}

TEST(Disseminator, TreeHandlersObserveTheLogicalSender) {
  const auto tree = run_broadcast(std::make_unique<TreeDisseminator>(2), 20, 4);
  ASSERT_EQ(tree.size(), 19u);
  for (const Delivery& d : tree) {
    // Relays are transparent: replies must target the broadcaster, so every
    // handler sees process 4 — never the parent that physically forwarded.
    EXPECT_EQ(d.from, 4u) << "delivery to " << d.to;
  }
}

TEST(Disseminator, TreeAccumulatesLatencyByDepthFlatDoesNot) {
  const auto flat = run_broadcast(nullptr, 32, 0);
  for (const Delivery& d : flat) EXPECT_EQ(d.at, 3u);  // one hop for everyone

  const auto tree = run_broadcast(std::make_unique<TreeDisseminator>(2), 32, 0);
  sim::Time max_at = 0;
  for (const Delivery& d : tree) max_at = std::max(max_at, d.at);
  // Binary tree over 31 recipients: the deepest positions sit >= 4 hops down.
  EXPECT_GE(max_at, 4u * 3u);
}

TEST(Disseminator, ExplicitFlatIsDrawIdenticalToBuiltInPath) {
  // Same seed, loss on: if an explicitly installed FlatDisseminator consumed
  // the RNG any differently from the network's default (what nullptr
  // restores), the per-copy loss verdicts (and so the delivery log) would
  // diverge. This is the run --all byte-identity anchor in miniature.
  const auto builtin =
      run_broadcast(nullptr, 40, 9, /*seed=*/5, /*loss_rate=*/0.35);
  const auto flat = run_broadcast(std::make_unique<FlatDisseminator>(), 40, 9,
                                  /*seed=*/5, /*loss_rate=*/0.35);
  ASSERT_EQ(flat.size(), builtin.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i].to, builtin[i].to);
    EXPECT_EQ(flat[i].from, builtin[i].from);
    EXPECT_EQ(flat[i].at, builtin[i].at);
  }
}

TEST(Disseminator, TreeLossDropsOnlyThatRecipientsCopy) {
  // With loss, a lost interior edge must not silence its subtree: across
  // many broadcasts the delivered+lost accounting stays per-copy Bernoulli,
  // i.e. every broadcast accounts for exactly n-1 copies.
  sim::Simulation sim(11);
  Network net(sim, std::make_unique<net::FixedDelay>(2));
  test::FnReceivers rx(net);
  net.set_disseminator(std::make_unique<TreeDisseminator>(2));
  net.set_loss_rate(0.4);
  constexpr std::size_t kN = 25;
  std::map<sim::ProcessId, int> copies;
  for (sim::ProcessId id = 0; id < kN; ++id) {
    rx.attach(id, [&copies, id](sim::ProcessId, const Payload&) { ++copies[id]; });
  }
  constexpr int kBroadcasts = 50;
  for (int i = 0; i < kBroadcasts; ++i) net.broadcast(0, make_payload<Ping>());
  sim.run();

  EXPECT_EQ(net.stats().delivered + net.stats().dropped_loss,
            kBroadcasts * (kN - 1));
  EXPECT_GT(net.stats().dropped_loss, 0u);
  EXPECT_EQ(copies.count(0), 0u);  // no self-delivery to the broadcaster
  for (sim::ProcessId id = 1; id < kN; ++id) {
    EXPECT_LE(copies[id], kBroadcasts) << "duplicate copies at " << id;
    // A permanently-silenced subtree would show a node with zero deliveries
    // across 50 independent 0.4-loss draws (p ~ 1e-20).
    EXPECT_GT(copies[id], 0) << "process " << id << " never reached";
  }
}

// --- grouped delivery -------------------------------------------------------

struct Pong final : Payload {
  Pong() : Payload(PayloadTypeRegistry::intern("test.pong")) {}
};

/// One DelayModel::verdict call as the network made it.
struct Drawn {
  sim::ProcessId to;
  DelayModel::Verdict verdict;
};

/// Passes every verdict through to `inner` and records it in call order.
class LoggingDelay final : public DelayModel {
 public:
  LoggingDelay(std::unique_ptr<DelayModel> inner, std::vector<Drawn>& log)
      : inner_(std::move(inner)), log_(log) {}
  sim::Duration delay(sim::Time now, sim::ProcessId from, sim::ProcessId to,
                      const Payload& payload, sim::Rng& rng) override {
    return inner_->delay(now, from, to, payload, rng);
  }
  Verdict verdict(sim::Time now, sim::ProcessId from, sim::ProcessId to,
                  const Payload& payload, double loss_rate, sim::Rng& rng) override {
    const Verdict v = inner_->verdict(now, from, to, payload, loss_rate, rng);
    log_.push_back({to, v});
    return v;
  }

 private:
  std::unique_ptr<DelayModel> inner_;
  std::vector<Drawn>& log_;
};

/// fanout 0 = flat; otherwise a tree of that fanout.
std::unique_ptr<Disseminator> make_disseminator(std::uint32_t fanout) {
  if (fanout == 0) return std::make_unique<FlatDisseminator>();
  return std::make_unique<TreeDisseminator>(fanout);
}

/// Re-derives each position's arrival offset (or kLost) from the verdicts
/// one broadcast drew, in position order, following the planner's rules
/// independently of its code: flat copies arrive after their own delay; a
/// tree copy arrives after its parent's relay time plus its own delay, and
/// a lost edge still relays after a nominal tick.
std::vector<sim::Duration> rebuild_arrivals(const std::vector<Drawn>& drawn,
                                            std::size_t first, std::size_t n,
                                            std::uint32_t fanout) {
  std::vector<sim::Duration> reach(n + 1, 0);
  std::vector<sim::Duration> arrival(n, Disseminator::kLost);
  for (std::size_t j = 1; j <= n; ++j) {
    const std::size_t parent = fanout == 0 ? 0 : (j - 1) / fanout;
    const DelayModel::Verdict& v = drawn[first + j - 1].verdict;
    reach[j] = reach[parent] + (v.lost ? 1 : v.delay);
    if (!v.lost) arrival[j - 1] = reach[j];
  }
  return arrival;
}

/// The largest same-tick batch of the first broadcast in `drawn` over `n`
/// recipients, in delivery (position) order.
std::vector<sim::ProcessId> largest_batch(const std::vector<Drawn>& drawn, std::size_t n,
                                          std::uint32_t fanout) {
  const auto arrival = rebuild_arrivals(drawn, 0, n, fanout);
  std::map<sim::Duration, std::vector<sim::ProcessId>> by_tick;
  for (std::size_t i = 0; i < arrival.size(); ++i) by_tick[arrival[i]].push_back(drawn[i].to);
  std::vector<sim::ProcessId> batch;
  for (const auto& [tick, ids] : by_tick) {
    if (ids.size() > batch.size()) batch = ids;
  }
  return batch;
}

class GroupedDelivery : public ::testing::TestWithParam<std::uint32_t> {};

using Seen = std::tuple<sim::Time, sim::ProcessId, sim::ProcessId, std::string_view>;

TEST_P(GroupedDelivery, DeliveryOrderIsTheStableSortOfTheRecordedVerdicts) {
  // Several broadcasts from different senders, random delays and loss on:
  // the observed (time, from, to, type) sequence must be exactly the
  // planned copies ordered stably by (arrival, broadcast, position) — the
  // order one queued event per copy produced.
  for (const bool far_flung : {false, true}) {
    SCOPED_TRACE(far_flung ? "far-flung offsets (comparison sort)" : "counting sort");
    std::vector<Drawn> drawn;
    std::unique_ptr<DelayModel> inner;
    if (far_flung) {
      // A script pinning a few copies thousands of ticks out makes the
      // offset span dwarf the copy count.
      inner = std::make_unique<AsyncAdversarialDelay>(
          4, [](sim::Time, sim::ProcessId, sim::ProcessId to,
                const Payload&) -> std::optional<sim::Duration> {
            if (to % 7 == 3) return 5000 + to;
            return std::nullopt;
          });
    } else {
      inner = std::make_unique<UniformDelay>(1, 4);
    }
    sim::Simulation sim(41);
    Network net(sim, std::make_unique<LoggingDelay>(std::move(inner), drawn));
    test::FnReceivers rx(net);
    net.set_disseminator(make_disseminator(GetParam()));
    net.set_loss_rate(0.3);
    constexpr sim::ProcessId kN = 60;
    std::vector<Seen> seen;
    for (sim::ProcessId id = 0; id < kN; ++id) {
      rx.attach(id, [&seen, &sim, id](sim::ProcessId from, const Payload& p) {
        seen.emplace_back(sim.now(), from, id, p.type_name());
      });
    }
    const std::vector<sim::ProcessId> senders = {0, 17, 59, 17};
    for (std::size_t b = 0; b < senders.size(); ++b) {
      if (b % 2 == 0) {
        net.broadcast(senders[b], make_payload<Ping>());
      } else {
        net.broadcast(senders[b], make_payload<Pong>());
      }
    }
    sim.run();

    // Rebuild: broadcast b drew verdicts [b*(kN-1), (b+1)*(kN-1)).
    ASSERT_EQ(drawn.size(), senders.size() * (kN - 1));
    struct Planned {
      sim::Duration arrival;
      std::size_t broadcast;
      std::size_t position;
      Seen copy;
    };
    std::vector<Planned> planned;
    for (std::size_t b = 0; b < senders.size(); ++b) {
      const std::size_t first = b * (kN - 1);
      const auto arrival = rebuild_arrivals(drawn, first, kN - 1, GetParam());
      for (std::size_t i = 0; i < arrival.size(); ++i) {
        if (arrival[i] == Disseminator::kLost) continue;
        const std::string_view type = b % 2 == 0 ? "test.ping" : "test.pong";
        planned.push_back({arrival[i], b, i,
                           Seen{arrival[i], senders[b], drawn[first + i].to, type}});
      }
    }
    std::stable_sort(planned.begin(), planned.end(),
                     [](const Planned& a, const Planned& b) {
                       return std::tie(a.arrival, a.broadcast, a.position) <
                              std::tie(b.arrival, b.broadcast, b.position);
                     });
    std::vector<Seen> expected;
    for (const Planned& p : planned) expected.push_back(p.copy);
    EXPECT_GT(net.stats().dropped_loss, 0u);
    EXPECT_EQ(seen, expected);
  }
}

TEST_P(GroupedDelivery, HandlerDetachingALaterRecipientOfTheSameTickDropsThatCopy) {
  // The victim's copy is the last of its tick's batch. The first handler to
  // run at that tick detaches it;
  // the copy must count as dropped_departed — exactly as a separate, later
  // event would.
  std::vector<Drawn> drawn;
  sim::Simulation sim(7);
  Network net(sim, std::make_unique<LoggingDelay>(std::make_unique<FixedDelay>(3), drawn));
  test::FnReceivers rx(net);
  net.set_disseminator(make_disseminator(GetParam()));
  net.set_loss_rate(0.25);
  constexpr sim::ProcessId kN = 40;
  sim::ProcessId victim = 0;
  sim::Time victim_arrival = 0;
  std::map<sim::ProcessId, int> received;
  for (sim::ProcessId id = 0; id < kN; ++id) {
    rx.attach(id, [&, id](sim::ProcessId, const Payload&) {
      ++received[id];
      if (id != victim && sim.now() == victim_arrival && net.attached(victim)) {
        net.detach(victim);
      }
    });
  }
  net.broadcast(0, make_payload<Ping>());
  const auto arrival = rebuild_arrivals(drawn, 0, kN - 1, GetParam());
  // Victim: the last surviving position whose tick an earlier position
  // shares — so a handler of the same batch runs before its copy.
  std::size_t lost = 0;
  std::size_t pick = arrival.size();
  for (std::size_t i = arrival.size(); i-- > 0 && pick == arrival.size();) {
    if (arrival[i] == Disseminator::kLost) continue;
    for (std::size_t k = 0; k < i; ++k) {
      if (arrival[k] == arrival[i]) pick = i;
    }
  }
  for (const sim::Duration a : arrival) lost += a == Disseminator::kLost;
  ASSERT_LT(pick, arrival.size());
  ASSERT_GT(lost, 0u);
  victim = drawn[pick].to;
  victim_arrival = arrival[pick];
  sim.run();

  EXPECT_EQ(received.count(victim), 0u);
  EXPECT_EQ(net.stats().dropped_departed, 1u);
  EXPECT_EQ(net.stats().delivered, kN - 2 - lost);
  EXPECT_EQ(net.stats().dropped_loss, lost);
}

TEST_P(GroupedDelivery, ReceiverChangesMidBatchTakeEffectForLaterCopies) {
  // A batch far longer than the delivery loop's prefetch distances. One
  // copy's receiver, mid-batch, detaches the next recipient and destroys
  // its receiver, and moves the recipient eight copies on to a fresh
  // receiver. Both follow closely enough that the loop has already
  // prefetched their old receivers; it must still drop the first copy and
  // hand the second to the fresh receiver. Every receiver is its own heap
  // object, so a call into a destroyed one fails under ASan.
  std::vector<Drawn> drawn;
  sim::Simulation sim(5);
  Network net(sim, std::make_unique<LoggingDelay>(std::make_unique<FixedDelay>(3), drawn));
  net.set_disseminator(make_disseminator(GetParam()));
  constexpr sim::ProcessId kN = 300;
  std::map<sim::ProcessId, int> received;
  std::vector<std::unique_ptr<test::FnReceiver>> receivers(kN);
  for (sim::ProcessId id = 0; id < kN; ++id) {
    receivers[id] = std::make_unique<test::FnReceiver>(
        [&received, id](sim::ProcessId, const Payload&) { ++received[id]; });
    net.attach(id, receivers[id].get());
  }
  net.broadcast(0, make_payload<Ping>());

  const std::vector<sim::ProcessId> batch = largest_batch(drawn, kN - 1, GetParam());
  ASSERT_GE(batch.size(), 64u);
  const sim::ProcessId first = batch[20];
  const sim::ProcessId gone = batch[21];
  const sim::ProcessId moved = batch[28];

  int fresh_copies = 0;
  test::FnReceiver fresh([&fresh_copies](sim::ProcessId, const Payload&) { ++fresh_copies; });
  test::FnReceiver trigger([&](sim::ProcessId, const Payload&) {
    net.detach(gone);
    receivers[gone].reset();
    net.detach(moved);
    receivers[moved].reset();
    net.attach(moved, &fresh);
  });
  net.attach(first, &trigger);
  sim.run();

  EXPECT_EQ(received.count(gone), 0u);
  EXPECT_EQ(received.count(moved), 0u);
  EXPECT_EQ(fresh_copies, 1);
  EXPECT_EQ(net.stats().dropped_departed, 1u);
  EXPECT_EQ(net.stats().delivered, kN - 2);
  EXPECT_EQ(received.size(), kN - 4);  // sender, trigger, gone, moved
}

TEST_P(GroupedDelivery, RecipientsDetachedBeforeTheirBatchAreDropped) {
  // Every fifth recipient of a long same-tick batch detaches, and its
  // receiver is destroyed, before the batch is delivered. The delivery loop
  // then finds their slots null when it prefetches ahead: it must form no
  // address from a null receiver (null + 63 is undefined behaviour, which
  // UBSan's pointer-overflow check reports) and must drop their copies.
  std::vector<Drawn> drawn;
  sim::Simulation sim(9);
  Network net(sim, std::make_unique<LoggingDelay>(std::make_unique<FixedDelay>(3), drawn));
  net.set_disseminator(make_disseminator(GetParam()));
  constexpr sim::ProcessId kN = 300;
  std::map<sim::ProcessId, int> received;
  std::vector<std::unique_ptr<test::FnReceiver>> receivers(kN);
  for (sim::ProcessId id = 0; id < kN; ++id) {
    receivers[id] = std::make_unique<test::FnReceiver>(
        [&received, id](sim::ProcessId, const Payload&) { ++received[id]; });
    net.attach(id, receivers[id].get());
  }
  net.broadcast(0, make_payload<Ping>());

  const std::vector<sim::ProcessId> batch = largest_batch(drawn, kN - 1, GetParam());
  ASSERT_GE(batch.size(), 64u);
  std::set<sim::ProcessId> gone;
  for (std::size_t k = 0; k < batch.size(); k += 5) gone.insert(batch[k]);
  for (const sim::ProcessId id : gone) {
    net.detach(id);
    receivers[id].reset();
  }
  sim.run();

  for (const sim::ProcessId id : gone) EXPECT_EQ(received.count(id), 0u) << id;
  EXPECT_EQ(net.stats().dropped_departed, gone.size());
  EXPECT_EQ(net.stats().delivered, kN - 1 - gone.size());
  EXPECT_EQ(received.size(), kN - 1 - gone.size());
}

/// Cuts edges into ids = 0 mod 5 and rewrites copies to ids = 1 mod 5.
class SplitHook final : public FaultHook {
 public:
  bool link_cut(sim::Time, sim::ProcessId, sim::ProcessId to) override {
    return to % 5 == 0;
  }
  PayloadPtr transform(sim::Time, sim::ProcessId from, sim::ProcessId to,
                       const PayloadPtr&) override {
    ++calls;
    last_from = from;
    return to % 5 == 1 ? make_payload<Pong>() : nullptr;
  }
  int calls = 0;
  sim::ProcessId last_from = 0;
};

TEST_P(GroupedDelivery, FaultHookActsPerCopyInsideABatch) {
  sim::Simulation sim(3);
  Network net(sim, std::make_unique<FixedDelay>(2));
  test::FnReceivers rx(net);
  net.set_disseminator(make_disseminator(GetParam()));
  net.set_loss_rate(0.2);
  SplitHook hook;
  net.set_fault_hook(&hook);
  constexpr sim::ProcessId kN = 51;
  constexpr sim::ProcessId kSender = 2;
  std::map<sim::ProcessId, std::vector<std::string_view>> got;
  for (sim::ProcessId id = 0; id < kN; ++id) {
    rx.attach(id, [&got, id](sim::ProcessId from, const Payload& p) {
      EXPECT_EQ(from, sim::ProcessId{kSender});
      got[id].push_back(p.type_name());
    });
  }
  net.broadcast(kSender, make_payload<Ping>());
  sim.run();

  std::uint64_t cut = 0;
  for (sim::ProcessId id = 0; id < kN; ++id) cut += id != kSender && id % 5 == 0;
  EXPECT_EQ(net.stats().dropped_partition, cut);
  EXPECT_EQ(net.stats().sent, kN - 1 - cut);  // cut copies never reach the delay model
  EXPECT_EQ(net.stats().delivered + net.stats().dropped_loss, kN - 1 - cut);
  EXPECT_GT(net.stats().dropped_loss, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(hook.calls), net.stats().delivered);
  EXPECT_EQ(hook.last_from, kSender);  // the hook sees the logical sender
  std::uint64_t rewritten = 0;
  for (const auto& [id, types] : got) {
    ASSERT_EQ(types.size(), 1u) << "process " << id;
    EXPECT_NE(id % 5, 0u) << "cut copy delivered to " << id;
    EXPECT_EQ(types[0], id % 5 == 1 ? "test.pong" : "test.ping") << "process " << id;
    rewritten += id % 5 == 1;
  }
  EXPECT_GT(rewritten, 0u);
  EXPECT_EQ(net.stats().transformed, rewritten);
}

std::string fanout_name(const ::testing::TestParamInfo<std::uint32_t>& param) {
  return param.param == 0 ? std::string("Flat") : "Tree" + std::to_string(param.param);
}

INSTANTIATE_TEST_SUITE_P(FlatAndTree, GroupedDelivery, ::testing::Values(0u, 2u, 4u),
                         fanout_name);

}  // namespace
}  // namespace dynreg::net
