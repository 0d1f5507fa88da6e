// The client/operation API: typed outcomes for departures mid-operation on
// every protocol, exactly-once deadline expiry, retry re-issue with correct
// history intervals, late-completion discard, and flight slots recycled at
// resolution without touching later operations. A handle reads its op's
// fields only until the op's resolution hook returns, so these tests copy
// the fields inside the hook (Seen) and assert on the copy.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "churn/system.h"
#include "client/client.h"
#include "consistency/history.h"
#include "dynreg/abd_register.h"
#include "dynreg/es_register.h"
#include "dynreg/sync_register.h"
#include "harness/experiment.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "node/node.h"

namespace dynreg {
namespace client {

/// Starts a client's op-id counter where a test needs it.
struct ClientTestPeer {
  static void set_next_id(Client& c, OpId next) { c.next_id_ = next; }
};

}  // namespace client
namespace {

using client::Client;
using client::OpHandle;
using client::OpOptions;

/// Every field an OpHandle shows, copied while it may still be read.
struct Seen {
  int resolutions = 0;  ///< hook calls; captured ops must resolve exactly once
  bool resolved = false;
  OpId id = 0;
  OpType type = OpType::kRead;
  OpOutcome outcome = OpOutcome::kOk;
  sim::Time invoked_at = 0;
  sim::Time responded_at = 0;
  Value value = kBottom;
  std::uint32_t attempts = 0;
};

Seen snapshot(const OpHandle& h) {
  Seen s;
  s.resolved = h.resolved();
  s.id = h.id();
  s.type = h.type();
  s.outcome = h.outcome();
  s.invoked_at = h.invoked_at();
  s.responded_at = h.responded_at();
  s.value = h.value();
  s.attempts = h.attempts();
  return s;
}

/// A resolution hook that copies the handle's fields into `seen`.
client::OpHook capture(Seen& seen) {
  return [&seen](const OpHandle& h) {
    const int resolutions = seen.resolutions;
    seen = snapshot(h);
    seen.resolutions = resolutions + 1;
  };
}

/// A full deployment (sim, net, system, history, client) for one protocol.
struct Deployment {
  Deployment(churn::System::NodeFactory factory, std::size_t n,
             std::unique_ptr<net::DelayModel> delays, sim::Time horizon = 1000,
             std::uint64_t seed = 7)
      : sim(seed), net(sim, std::move(delays)), history(0) {
    churn::SystemConfig sys_cfg;
    sys_cfg.initial_size = n;
    system = std::make_unique<churn::System>(sim, net, sys_cfg,
                                             std::make_unique<churn::NoChurn>(),
                                             std::move(factory));
    client = std::make_unique<Client>(sim, *system, history, horizon);
    system->bootstrap();
  }

  sim::Simulation sim;
  net::Network net;
  consistency::History history;
  std::unique_ptr<churn::System> system;
  std::unique_ptr<Client> client;
};

churn::System::NodeFactory sync_factory(sim::Duration delta) {
  SyncConfig sc;
  sc.delta = delta;
  return group_factory<SyncRegisterNode>(sc);
}

churn::System::NodeFactory es_factory(std::size_t n) {
  EsConfig ec;
  ec.n = n;
  return group_factory<EsRegisterNode>(ec);
}

churn::System::NodeFactory abd_factory(std::size_t n) {
  AbdConfig ac;
  ac.n = n;
  return group_factory<AbdRegisterNode>(ac);
}

/// A process that is not a register: it takes messages and runs no protocol.
class PlainNode final : public node::Node {
 public:
  using node::Node::Node;
  void on_message(sim::ProcessId, const net::Payload&) override {}
};

// --- register lookup ---------------------------------------------------------

TEST(ClientApi, NodeFindsOnlyPresentRegisterNodes) {
  Deployment registers(es_factory(3), 3, std::make_unique<net::SynchronousDelay>(4));
  ASSERT_NE(registers.client->node(1), nullptr);
  EXPECT_EQ(registers.client->node(1)->id(), 1u);
  EXPECT_EQ(registers.client->node(7), nullptr);  // never joined
  registers.system->leave(1);
  EXPECT_EQ(registers.client->node(1), nullptr);  // departed

  Deployment plain(
      [](sim::ProcessId id, node::Context& ctx, bool) -> std::unique_ptr<node::Node> {
        return std::make_unique<PlainNode>(id, ctx);
      },
      2, std::make_unique<net::SynchronousDelay>(4));
  ASSERT_NE(plain.system->find(0), nullptr);
  EXPECT_EQ(plain.client->node(0), nullptr);  // present, but not a register
  Seen r;
  (void)plain.client->read(0, {}, capture(r));
  ASSERT_TRUE(r.resolved);
  EXPECT_EQ(r.outcome, OpOutcome::kDroppedOnDeparture);
  EXPECT_EQ(plain.client->stats().reads_issued, 0u);
}

// --- departures mid-operation, per protocol ---------------------------------

TEST(ClientApi, SyncWriteDroppedOnDeparture) {
  Deployment d(sync_factory(5), 3, std::make_unique<net::SynchronousDelay>(5));
  Seen h;
  (void)d.client->write(1, 42, {}, capture(h));
  d.sim.schedule_at(2, [&] { d.system->leave(1); });  // mid-write: delta is 5
  d.sim.run_until(100);

  ASSERT_TRUE(h.resolved);
  EXPECT_EQ(h.outcome, OpOutcome::kDroppedOnDeparture);
  EXPECT_EQ(d.client->stats().writes_issued, 1u);
  EXPECT_EQ(d.client->stats().writes_completed, 0u);
  EXPECT_EQ(d.client->stats().writes_dropped, 1u);
  // The history interval stays open (the write may have taken effect).
  ASSERT_EQ(d.history.writes().size(), 2u);  // initial pseudo-write + ours
  EXPECT_FALSE(d.history.writes()[1].end().has_value());
}

TEST(ClientApi, SyncReadIsInstantaneousAndCannotBeDropped) {
  // The sync protocol's fast reads resolve inside the invocation — a
  // departure can never catch one in flight.
  Deployment d(sync_factory(5), 3, std::make_unique<net::SynchronousDelay>(5));
  Seen h;
  (void)d.client->read(1, {}, capture(h));
  ASSERT_TRUE(h.resolved);
  EXPECT_EQ(h.outcome, OpOutcome::kOk);
}

TEST(ClientApi, EsReadAndWriteDroppedOnDeparture) {
  Deployment d(es_factory(5), 5, std::make_unique<net::SynchronousDelay>(5));
  Seen r;
  Seen w;
  (void)d.client->read(2, {}, capture(r));
  (void)d.client->write(3, 7, {}, capture(w));
  d.sim.schedule_at(1, [&] {
    d.system->leave(2);  // before any reply can arrive (delays >= 1)
    d.system->leave(3);
  });
  d.sim.run_until(200);

  ASSERT_TRUE(r.resolved);
  EXPECT_EQ(r.outcome, OpOutcome::kDroppedOnDeparture);
  ASSERT_TRUE(w.resolved);
  EXPECT_EQ(w.outcome, OpOutcome::kDroppedOnDeparture);
  EXPECT_EQ(d.client->stats().reads_dropped, 1u);
  EXPECT_EQ(d.client->stats().writes_dropped, 1u);
  EXPECT_EQ(d.client->stats().reads_completed, 0u);
  EXPECT_EQ(d.client->stats().writes_completed, 0u);
}

TEST(ClientApi, AbdReadAndWriteDroppedOnDeparture) {
  Deployment d(abd_factory(5), 5, std::make_unique<net::SynchronousDelay>(5));
  Seen r;
  Seen w;
  (void)d.client->read(2, {}, capture(r));
  (void)d.client->write(3, 9, {}, capture(w));
  d.sim.schedule_at(1, [&] {
    d.system->leave(2);
    d.system->leave(3);
  });
  d.sim.run_until(200);

  ASSERT_TRUE(r.resolved);
  EXPECT_EQ(r.outcome, OpOutcome::kDroppedOnDeparture);
  ASSERT_TRUE(w.resolved);
  EXPECT_EQ(w.outcome, OpOutcome::kDroppedOnDeparture);
}

// --- deadlines ---------------------------------------------------------------

TEST(ClientApi, DeadlineFiresTimedOutExactlyOnce) {
  // Quorum of 3 in a 2-member deployment: the read can never complete. The
  // deadline must fire kTimedOut once — and only once, even when the node's
  // departure later tries to resolve the same operation as dropped.
  Deployment d(es_factory(5), 2, std::make_unique<net::SynchronousDelay>(5));
  OpOptions opts;
  opts.deadline = 50;
  Seen h;
  (void)d.client->read(0, opts, capture(h));
  d.sim.schedule_at(100, [&] { d.system->leave(0); });
  d.sim.run_until(500);

  ASSERT_TRUE(h.resolved);
  EXPECT_EQ(h.outcome, OpOutcome::kTimedOut);
  EXPECT_EQ(h.responded_at, 50u);
  EXPECT_EQ(h.resolutions, 1);
  EXPECT_EQ(d.client->stats().reads_timed_out, 1u);
  EXPECT_EQ(d.client->stats().reads_dropped, 0u);  // the late drop is discarded
}

TEST(ClientApi, LateCompletionAfterTimeoutIsDiscarded) {
  // Replies crawl (fixed delay 40); the deadline expires first. The
  // protocol-side read completes afterwards, but the record must stay
  // kTimedOut and the history read must stay open.
  Deployment d(es_factory(3), 3, std::make_unique<net::FixedDelay>(40));
  OpOptions opts;
  opts.deadline = 5;
  Seen h;
  (void)d.client->read(1, opts, capture(h));
  d.sim.run_until(500);

  ASSERT_TRUE(h.resolved);
  EXPECT_EQ(h.outcome, OpOutcome::kTimedOut);
  EXPECT_EQ(h.resolutions, 1);
  EXPECT_EQ(d.client->stats().reads_completed, 0u);
  ASSERT_EQ(d.history.reads().size(), 1u);
  EXPECT_FALSE(d.history.reads()[0].end().has_value());
}

// --- retries -----------------------------------------------------------------

TEST(ClientApi, RetryReissuesDroppedReadAndHistoryRecordsBothIntervals) {
  Deployment d(es_factory(5), 5, std::make_unique<net::SynchronousDelay>(5));
  OpOptions opts;
  opts.retry.max_attempts = 2;
  opts.retry.backoff = 3;
  Seen h;
  (void)d.client->read(2, opts, capture(h));
  d.sim.schedule_at(1, [&] { d.system->leave(2); });
  d.sim.run_until(500);

  ASSERT_TRUE(h.resolved);
  EXPECT_EQ(h.outcome, OpOutcome::kOk);
  EXPECT_EQ(h.attempts, 2u);
  EXPECT_EQ(h.value, 0);  // the initial value
  EXPECT_EQ(d.client->stats().retries, 1u);
  // Issued counts operations, not dispatches: the retry shows up in
  // `retries` (and in its own history interval), not in `reads_issued`,
  // so completion rates stay per-op under retry policies.
  EXPECT_EQ(d.client->stats().reads_issued, 1u);
  EXPECT_EQ(d.client->stats().reads_dropped, 1u);
  EXPECT_EQ(d.client->stats().reads_completed, 1u);
  // Two history intervals: the dropped attempt stays open, the retried one
  // begins at the re-issue time and completes.
  ASSERT_EQ(d.history.reads().size(), 2u);
  EXPECT_FALSE(d.history.reads()[0].end().has_value());
  EXPECT_GE(d.history.reads()[1].begin, 1u + opts.retry.backoff);
  ASSERT_TRUE(d.history.reads()[1].end().has_value());
  EXPECT_EQ(d.history.reads()[1].value, 0);
}

TEST(ClientApi, RetryExhaustionKeepsFinalOutcome) {
  // Every attempt fails: the final outcome is the last attempt's failure,
  // and attempts stop at max_attempts.
  OpOptions opts;
  opts.deadline = 10;
  opts.retry.max_attempts = 2;
  opts.retry.backoff = 0;
  // Target a 7-quorum system with only 3 members: reads always time out.
  Deployment starved(es_factory(7), 3, std::make_unique<net::SynchronousDelay>(5));
  Seen h;
  (void)starved.client->read(0, opts, capture(h));
  starved.sim.run_until(500);

  ASSERT_TRUE(h.resolved);
  EXPECT_EQ(h.outcome, OpOutcome::kTimedOut);
  EXPECT_EQ(h.attempts, 2u);
  EXPECT_EQ(starved.client->stats().reads_timed_out, 2u);
  EXPECT_EQ(starved.client->stats().retries, 1u);
}

TEST(ClientApi, DeadlineOfADroppedAttemptSparesItsRetry) {
  // Replies take one 10-tick hop each way, so a read takes 20 ticks. The
  // first attempt is dropped at 1 and retried at 2 against another
  // process; its deadline, armed at 0, fires at 21 while the retry is in
  // flight, and must not time the retry out: the retry completes at 22,
  // before its own deadline at 23.
  Deployment d(es_factory(5), 5, std::make_unique<net::FixedDelay>(10));
  OpOptions opts;
  opts.deadline = 21;
  opts.retry.max_attempts = 2;
  opts.retry.backoff = 1;
  Seen h;
  (void)d.client->read(2, opts, capture(h));
  d.sim.schedule_at(1, [&] { d.system->leave(2); });
  d.sim.run_until(500);

  ASSERT_TRUE(h.resolved);
  EXPECT_EQ(h.resolutions, 1);
  EXPECT_EQ(h.outcome, OpOutcome::kOk);
  EXPECT_EQ(h.attempts, 2u);
  EXPECT_EQ(h.responded_at, 22u);
  EXPECT_EQ(d.client->stats().reads_timed_out, 0u);
}

// --- session FIFO ------------------------------------------------------------

TEST(ClientSessionFifo, OpsAgainstOneTargetRunOneAtATimeInFifoOrder) {
  Deployment d(es_factory(3), 3, std::make_unique<net::FixedDelay>(4));
  std::vector<Seen> done;
  const auto note = [&done](const OpHandle& h) { done.push_back(snapshot(h)); };
  const OpHandle a = d.client->session_read(1, {}, note);
  const OpHandle b = d.client->session_read(1, {}, note);
  const OpHandle c = d.client->session_read(1, {}, note);
  // Only the head of the FIFO is on the wire; the rest wait their turn.
  EXPECT_EQ(d.history.reads().size(), 1u);
  d.sim.run_until(500);

  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ((std::vector<OpId>{done[0].id, done[1].id, done[2].id}),
            (std::vector<OpId>{a.id(), b.id(), c.id()}));
  const auto& reads = d.history.reads();
  ASSERT_EQ(reads.size(), 3u);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    ASSERT_TRUE(reads[i].end().has_value()) << i;
    if (i > 0) {
      EXPECT_EQ(reads[i - 1].end(), reads[i].begin) << i;
    }
  }
  // Queue wait counts toward the client-perceived latency.
  EXPECT_EQ(done[2].invoked_at, 0u);
  EXPECT_EQ(reads[2].end(), done[2].responded_at);
  EXPECT_EQ(d.client->stats().reads_issued, 3u);
}

TEST(ClientSessionFifo, TimedOutAttemptFreesStationAndRetryQueuesBehindWaiters) {
  // Reads need a round trip of 8 ticks; a 5-tick deadline always fires.
  Deployment d(es_factory(3), 3, std::make_unique<net::FixedDelay>(4));
  OpOptions retried;
  retried.deadline = 5;
  retried.retry.max_attempts = 2;
  retried.retry.backoff = 1;
  Seen a;
  Seen b;
  Seen c;
  (void)d.client->session_read(1, retried, capture(a));
  (void)d.client->session_read(1, {}, capture(b));
  (void)d.client->session_read(1, {}, capture(c));
  d.sim.run_until(500);

  ASSERT_TRUE(a.resolved);
  EXPECT_EQ(a.outcome, OpOutcome::kTimedOut);
  EXPECT_EQ(a.attempts, 2u);
  ASSERT_TRUE(b.resolved);
  ASSERT_EQ(b.outcome, OpOutcome::kOk);
  ASSERT_TRUE(c.resolved);
  ASSERT_EQ(c.outcome, OpOutcome::kOk);
  const auto& reads = d.history.reads();
  ASSERT_EQ(reads.size(), 4u);  // a's two attempts, b, c
  // The failed attempt hands the station on at its deadline, not after its
  // backoff and retry: b starts the moment a times out.
  EXPECT_EQ(reads[1].begin, 5u);
  EXPECT_EQ(reads[1].end(), b.responded_at);
  // a's retry re-entered the FIFO behind c, which was already queued.
  EXPECT_EQ(reads[2].end(), c.responded_at);
  EXPECT_EQ(reads[3].process, 1u);
  EXPECT_EQ(reads[3].begin, c.responded_at);
  EXPECT_EQ(a.responded_at, reads[3].begin + 5);
}

TEST(ClientSessionFifo, RetargetedRetryQueuesBehindWaitersAtItsNewStation) {
  Deployment d(es_factory(5), 5, std::make_unique<net::FixedDelay>(4));
  OpOptions retried;
  retried.retry.max_attempts = 2;
  retried.retry.backoff = 1;
  Seen a;
  (void)d.client->session_read(2, retried, capture(a));
  // Every station a's retry could land on is busy with one op in service
  // and one waiting.
  std::vector<Seen> waiting(4);
  std::size_t w = 0;
  for (const sim::ProcessId p : {0u, 1u, 3u, 4u}) {
    (void)d.client->session_read(p);
    (void)d.client->session_read(p, {}, capture(waiting[w++]));
  }
  d.sim.schedule_at(1, [&] { d.system->leave(2); });
  d.sim.run_until(500);

  ASSERT_TRUE(a.resolved);
  EXPECT_EQ(a.outcome, OpOutcome::kOk);
  EXPECT_EQ(a.attempts, 2u);
  const auto& retry = d.history.reads().back();
  ASSERT_NE(retry.process, 2u);
  const std::size_t slot = retry.process < 2 ? retry.process : retry.process - 1;
  ASSERT_TRUE(waiting[slot].resolved);
  EXPECT_EQ(retry.begin, waiting[slot].responded_at);
}

TEST(ClientSessionFifo, QueuedOpWhoseTargetDepartsIsDroppedUnissued) {
  Deployment d(es_factory(5), 5, std::make_unique<net::FixedDelay>(4));
  Seen a;
  Seen b;
  (void)d.client->session_read(1, {}, capture(a));
  (void)d.client->session_read(1, {}, capture(b));
  d.sim.schedule_at(1, [&] { d.system->leave(1); });
  d.sim.run_until(500);

  ASSERT_TRUE(a.resolved);
  EXPECT_EQ(a.outcome, OpOutcome::kDroppedOnDeparture);
  ASSERT_TRUE(b.resolved);
  EXPECT_EQ(b.outcome, OpOutcome::kDroppedOnDeparture);
  EXPECT_EQ(b.responded_at, 1u);
  // Only a went on the wire; b never reached its target.
  EXPECT_EQ(d.client->stats().reads_issued, 1u);
  EXPECT_EQ(d.history.reads().size(), 1u);
}

TEST(ClientSessionFifo, SyncReadResolvedInsideInvocationHandsOnAtFreshEvent) {
  Deployment d(sync_factory(5), 3, std::make_unique<net::SynchronousDelay>(5));
  OpHandle b;
  Seen a_seen;
  Seen b_seen;
  (void)d.client->session_read(1, {}, [&](const OpHandle& a) {
    a_seen = snapshot(a);
    b = d.client->session_read(1, {}, capture(b_seen));
  });
  // a resolved inside its own invocation; b, queued from a's hook, waits
  // for the station to be handed on by a later event at the same tick, and
  // until it resolves its handle reads it.
  ASSERT_TRUE(a_seen.resolved);
  ASSERT_TRUE(b.valid());
  EXPECT_FALSE(b.resolved());
  EXPECT_EQ(d.history.reads().size(), 1u);
  d.sim.run_until(0);
  ASSERT_TRUE(b_seen.resolved);
  EXPECT_EQ(b_seen.outcome, OpOutcome::kOk);
  EXPECT_EQ(b_seen.responded_at, 0u);
  // With the station free again, the next session op starts immediately.
  Seen c;
  (void)d.client->session_read(1, {}, capture(c));
  EXPECT_TRUE(c.resolved);
}

// --- handles -----------------------------------------------------------------

TEST(ClientApi, HandleCarriesIdentityAndTimes) {
  Deployment d(es_factory(3), 3, std::make_unique<net::SynchronousDelay>(4));
  Seen r_seen;
  Seen w_seen;
  const OpHandle r = d.client->read(1, {}, capture(r_seen));
  const OpHandle w = d.client->write(0, 5, {}, capture(w_seen));
  // Both are still in flight, so their handles read them.
  EXPECT_EQ(r.id(), 0u);
  EXPECT_EQ(w.id(), 1u);
  EXPECT_EQ(r.type(), OpType::kRead);
  EXPECT_EQ(w.type(), OpType::kWrite);
  EXPECT_EQ(r.invoked_at(), 0u);
  d.sim.run_until(200);
  ASSERT_TRUE(r_seen.resolved);
  ASSERT_TRUE(w_seen.resolved);
  EXPECT_EQ(r_seen.id, r.id());
  EXPECT_EQ(w_seen.id, w.id());
  EXPECT_EQ(r_seen.outcome, OpOutcome::kOk);
  EXPECT_EQ(w_seen.outcome, OpOutcome::kOk);
  EXPECT_GT(r_seen.responded_at, r_seen.invoked_at);
  // Latency samples match the handles' intervals.
  ASSERT_EQ(d.client->stats().read_latencies.size(), 1u);
  EXPECT_EQ(d.client->stats().read_latencies[0],
            static_cast<double>(r_seen.responded_at - r_seen.invoked_at));
}

// --- flight slots --------------------------------------------------------------

TEST(ClientFlightSlots, LateCompletionIsDiscardedAfterItsSlotIsReused) {
  // Replies crawl (fixed delay 40), so a's deadline expires at 5 and its
  // flight slot returns to the free list; b, issued at 10, takes that slot.
  // a's protocol read then completes while b's attempt is still open: it
  // must be discarded without touching b, which resolves on its own reply.
  Deployment d(es_factory(3), 3, std::make_unique<net::FixedDelay>(40));
  OpOptions opts;
  opts.deadline = 5;
  Seen a;
  Seen b;
  (void)d.client->read(1, opts, capture(a));
  d.sim.schedule_at(10, [&] { (void)d.client->read(2, {}, capture(b)); });
  d.sim.run_until(500);

  EXPECT_EQ(d.client->flights_peak(), 1u);  // b reused a's slot
  ASSERT_TRUE(a.resolved);
  EXPECT_EQ(a.resolutions, 1);
  EXPECT_EQ(a.outcome, OpOutcome::kTimedOut);
  EXPECT_EQ(a.responded_at, 5u);
  ASSERT_TRUE(b.resolved);
  EXPECT_EQ(b.resolutions, 1);
  EXPECT_EQ(b.outcome, OpOutcome::kOk);
  EXPECT_EQ(b.id, 1u);
  // b resolves on its own round trip (issued at 10, two 40-tick hops), not
  // on a's late completion, which lands at 80 while b holds the slot.
  EXPECT_EQ(b.responded_at, 90u);
  EXPECT_EQ(d.client->stats().reads_completed, 1u);
  EXPECT_EQ(d.client->stats().reads_timed_out, 1u);
  ASSERT_EQ(d.history.reads().size(), 2u);
  EXPECT_FALSE(d.history.reads()[0].end().has_value());
  EXPECT_EQ(d.history.reads()[1].end(), std::optional<sim::Time>{b.responded_at});
}

TEST(ClientFlightSlots, HookSeesEveryField) {
  Deployment d(sync_factory(5), 3, std::make_unique<net::SynchronousDelay>(5));
  OpOptions opts;
  opts.deadline = 2;  // shorter than the write's delta wait
  Seen w;
  (void)d.client->write(0, 42, opts, capture(w));
  d.sim.run_until(20);
  ASSERT_EQ(w.resolutions, 1);
  EXPECT_TRUE(w.resolved);
  EXPECT_EQ(w.id, 0u);
  EXPECT_EQ(w.type, OpType::kWrite);
  EXPECT_EQ(w.value, 42);
  EXPECT_EQ(w.outcome, OpOutcome::kTimedOut);
  EXPECT_EQ(w.invoked_at, 0u);
  EXPECT_EQ(w.responded_at, 2u);
  EXPECT_EQ(w.attempts, 1u);

  // Thousands of later ops, each resolving inside its invocation, reuse the
  // one flight slot; each hook sees its own op's fields, never another's.
  Seen last;
  for (int i = 0; i < 5000; ++i) {
    Seen now;
    (void)d.client->read(1 + i % 2, {}, capture(now));
    ASSERT_EQ(now.resolutions, 1);
    ASSERT_EQ(now.id, static_cast<OpId>(i + 1));
    last = now;
  }
  EXPECT_TRUE(last.resolved);
  EXPECT_EQ(last.id, 5000u);
  EXPECT_EQ(last.type, OpType::kRead);
  EXPECT_EQ(last.value, 42);
  EXPECT_EQ(last.outcome, OpOutcome::kOk);
  EXPECT_EQ(last.invoked_at, 20u);
  EXPECT_EQ(last.responded_at, 20u);
  EXPECT_EQ(last.attempts, 1u);
  EXPECT_EQ(d.client->op_records(), 5001u);
  EXPECT_EQ(d.client->flights_peak(), 1u);
  // The Client holds no storage per op issued: one chunk of flight slots.
  EXPECT_EQ(d.client->flight_bytes(), 32 * sizeof(client::Flight));
}

TEST(ClientFlightSlots, ReadingARetiredHandleAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Deployment d(sync_factory(5), 3, std::make_unique<net::SynchronousDelay>(5));
  // A sync read resolves inside its invocation, so its handle is retired
  // by the time read() returns, while its slot is free.
  const OpHandle h = d.client->read(1);
  EXPECT_TRUE(h.valid());
  EXPECT_EQ(h.id(), 0u);
  EXPECT_DEATH((void)h.value(), "OpHandle of operation 0 read after its resolution hook");
  // The next op takes the slot; the old handle still reads nothing of it.
  Seen next;
  (void)d.client->read(2, {}, capture(next));
  ASSERT_EQ(d.client->flights_peak(), 1u);
  ASSERT_EQ(next.id, 1u);
  EXPECT_TRUE(h.valid());
  EXPECT_EQ(h.id(), 0u);
  EXPECT_DEATH((void)h.resolved(), "read after its resolution hook returned");
}

TEST(ClientFlightSlots, StrictlySequentialClientNeedsOneFlight) {
  // One closed-loop session and no writer: never more than one op in flight.
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kEventuallySync;
  cfg.timing = harness::Timing::kSynchronous;
  cfg.n = 7;
  cfg.delta = 5;
  cfg.duration = 600;
  cfg.churn_kind = harness::ChurnKind::kNone;
  cfg.workload.kind = workload::Kind::kClosedLoop;
  cfg.workload.clients = 1;
  cfg.workload.think_time = 3;
  cfg.workload.writes_enabled = false;
  const harness::MetricsReport r = harness::run_experiment(cfg);
  EXPECT_GT(r.client_op_records, 20u);
  EXPECT_EQ(r.client_op_records, r.reads_issued);
  EXPECT_EQ(r.client_flights_peak, 1u);
}

TEST(ClientFlightSlots, SessionOpIdsCrossing2To32ServeInFifoOrder) {
  // Session FIFOs link flight slots, not op ids, so op ids past 32 bits
  // queue and serve like any others.
  Deployment d(es_factory(3), 3, std::make_unique<net::FixedDelay>(4));
  constexpr OpId kFirst = (OpId{1} << 32) - 2;
  client::ClientTestPeer::set_next_id(*d.client, kFirst);
  std::vector<OpId> order;
  const auto note = [&order](const OpHandle& h) { order.push_back(h.id()); };
  std::vector<OpId> issued;
  for (int i = 0; i < 4; ++i) issued.push_back(d.client->session_read(1, {}, note).id());
  EXPECT_EQ(issued, (std::vector<OpId>{kFirst, kFirst + 1, kFirst + 2, kFirst + 3}));
  EXPECT_EQ(d.history.reads().size(), 1u);
  d.sim.run_until(500);

  EXPECT_EQ(order, issued);
  const auto& reads = d.history.reads();
  ASSERT_EQ(reads.size(), 4u);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    ASSERT_TRUE(reads[i].end().has_value()) << i;
    if (i > 0) {
      EXPECT_EQ(reads[i - 1].end(), reads[i].begin) << i;
    }
  }
  EXPECT_EQ(d.client->stats().reads_completed, 4u);
}

}  // namespace
}  // namespace dynreg
