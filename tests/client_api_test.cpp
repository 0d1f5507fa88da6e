// The client/operation API: typed outcomes for departures mid-operation on
// every protocol, exactly-once deadline expiry, retry re-issue with correct
// history intervals, and late-completion discard.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "churn/system.h"
#include "client/client.h"
#include "consistency/history.h"
#include "dynreg/abd_register.h"
#include "dynreg/es_register.h"
#include "dynreg/sync_register.h"
#include "net/delay_model.h"
#include "net/network.h"

namespace dynreg {
namespace {

using client::Client;
using client::OpHandle;
using client::OpOptions;

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
  return [sc](sim::ProcessId id, node::Context& ctx, bool initial) {
    return std::make_unique<SyncRegisterNode>(id, ctx, sc, initial);
  };
}

churn::System::NodeFactory es_factory(std::size_t n) {
  EsConfig ec;
  ec.n = n;
  return [ec](sim::ProcessId id, node::Context& ctx, bool initial) {
    return std::make_unique<EsRegisterNode>(id, ctx, ec, initial);
  };
}

churn::System::NodeFactory abd_factory(std::size_t n) {
  AbdConfig ac;
  ac.n = n;
  return [ac](sim::ProcessId id, node::Context& ctx, bool initial) {
    return std::make_unique<AbdRegisterNode>(id, ctx, ac, initial);
  };
}

// --- departures mid-operation, per protocol ---------------------------------

TEST(ClientApi, SyncWriteDroppedOnDeparture) {
  Deployment d(sync_factory(5), 3, std::make_unique<net::SynchronousDelay>(5));
  const OpHandle h = d.client->write(1, 42);
  d.sim.schedule_at(2, [&] { d.system->leave(1); });  // mid-write: delta is 5
  d.sim.run_until(100);

  ASSERT_TRUE(h.resolved());
  EXPECT_EQ(h.outcome(), OpOutcome::kDroppedOnDeparture);
  EXPECT_EQ(d.client->stats().writes_issued, 1u);
  EXPECT_EQ(d.client->stats().writes_completed, 0u);
  EXPECT_EQ(d.client->stats().writes_dropped, 1u);
  // The history interval stays open (the write may have taken effect).
  ASSERT_EQ(d.history.writes().size(), 2u);  // initial pseudo-write + ours
  EXPECT_FALSE(d.history.writes()[1].end.has_value());
}

TEST(ClientApi, SyncReadIsInstantaneousAndCannotBeDropped) {
  // The sync protocol's fast reads resolve inside the invocation — a
  // departure can never catch one in flight.
  Deployment d(sync_factory(5), 3, std::make_unique<net::SynchronousDelay>(5));
  const OpHandle h = d.client->read(1);
  ASSERT_TRUE(h.resolved());
  EXPECT_EQ(h.outcome(), OpOutcome::kOk);
}

TEST(ClientApi, EsReadAndWriteDroppedOnDeparture) {
  Deployment d(es_factory(5), 5, std::make_unique<net::SynchronousDelay>(5));
  const OpHandle r = d.client->read(2);
  const OpHandle w = d.client->write(3, 7);
  d.sim.schedule_at(1, [&] {
    d.system->leave(2);  // before any reply can arrive (delays >= 1)
    d.system->leave(3);
  });
  d.sim.run_until(200);

  ASSERT_TRUE(r.resolved());
  EXPECT_EQ(r.outcome(), OpOutcome::kDroppedOnDeparture);
  ASSERT_TRUE(w.resolved());
  EXPECT_EQ(w.outcome(), OpOutcome::kDroppedOnDeparture);
  EXPECT_EQ(d.client->stats().reads_dropped, 1u);
  EXPECT_EQ(d.client->stats().writes_dropped, 1u);
  EXPECT_EQ(d.client->stats().reads_completed, 0u);
  EXPECT_EQ(d.client->stats().writes_completed, 0u);
}

TEST(ClientApi, AbdReadAndWriteDroppedOnDeparture) {
  Deployment d(abd_factory(5), 5, std::make_unique<net::SynchronousDelay>(5));
  const OpHandle r = d.client->read(2);
  const OpHandle w = d.client->write(3, 9);
  d.sim.schedule_at(1, [&] {
    d.system->leave(2);
    d.system->leave(3);
  });
  d.sim.run_until(200);

  ASSERT_TRUE(r.resolved());
  EXPECT_EQ(r.outcome(), OpOutcome::kDroppedOnDeparture);
  ASSERT_TRUE(w.resolved());
  EXPECT_EQ(w.outcome(), OpOutcome::kDroppedOnDeparture);
}

// --- deadlines ---------------------------------------------------------------

TEST(ClientApi, DeadlineFiresTimedOutExactlyOnce) {
  // Quorum of 3 in a 2-member deployment: the read can never complete. The
  // deadline must fire kTimedOut once — and only once, even when the node's
  // departure later tries to resolve the same operation as dropped.
  Deployment d(es_factory(5), 2, std::make_unique<net::SynchronousDelay>(5));
  int resolutions = 0;
  OpOptions opts;
  opts.deadline = 50;
  const OpHandle h =
      d.client->read(0, opts, [&resolutions](const OpHandle&) { ++resolutions; });
  d.sim.schedule_at(100, [&] { d.system->leave(0); });
  d.sim.run_until(500);

  ASSERT_TRUE(h.resolved());
  EXPECT_EQ(h.outcome(), OpOutcome::kTimedOut);
  EXPECT_EQ(h.responded_at(), 50u);
  EXPECT_EQ(resolutions, 1);
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
  const OpHandle h = d.client->read(1, opts);
  d.sim.run_until(500);

  ASSERT_TRUE(h.resolved());
  EXPECT_EQ(h.outcome(), OpOutcome::kTimedOut);
  EXPECT_EQ(d.client->stats().reads_completed, 0u);
  ASSERT_EQ(d.history.reads().size(), 1u);
  EXPECT_FALSE(d.history.reads()[0].end.has_value());
}

// --- retries -----------------------------------------------------------------

TEST(ClientApi, RetryReissuesDroppedReadAndHistoryRecordsBothIntervals) {
  Deployment d(es_factory(5), 5, std::make_unique<net::SynchronousDelay>(5));
  OpOptions opts;
  opts.retry.max_attempts = 2;
  opts.retry.backoff = 3;
  const OpHandle h = d.client->read(2, opts);
  d.sim.schedule_at(1, [&] { d.system->leave(2); });
  d.sim.run_until(500);

  ASSERT_TRUE(h.resolved());
  EXPECT_EQ(h.outcome(), OpOutcome::kOk);
  EXPECT_EQ(h.attempts(), 2u);
  EXPECT_EQ(h.value(), 0);  // the initial value
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
  EXPECT_FALSE(d.history.reads()[0].end.has_value());
  EXPECT_GE(d.history.reads()[1].begin, 1u + opts.retry.backoff);
  ASSERT_TRUE(d.history.reads()[1].end.has_value());
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
  const OpHandle h = starved.client->read(0, opts);
  starved.sim.run_until(500);

  ASSERT_TRUE(h.resolved());
  EXPECT_EQ(h.outcome(), OpOutcome::kTimedOut);
  EXPECT_EQ(h.attempts(), 2u);
  EXPECT_EQ(starved.client->stats().reads_timed_out, 2u);
  EXPECT_EQ(starved.client->stats().retries, 1u);
}

// --- session FIFO ------------------------------------------------------------

TEST(ClientSessionFifo, OpsAgainstOneTargetRunOneAtATimeInFifoOrder) {
  Deployment d(es_factory(3), 3, std::make_unique<net::FixedDelay>(4));
  std::vector<OpId> order;
  const auto note = [&order](const OpHandle& h) { order.push_back(h.id()); };
  const OpHandle a = d.client->session_read(1, {}, note);
  const OpHandle b = d.client->session_read(1, {}, note);
  const OpHandle c = d.client->session_read(1, {}, note);
  // Only the head of the FIFO is on the wire; the rest wait their turn.
  EXPECT_EQ(d.history.reads().size(), 1u);
  d.sim.run_until(500);

  ASSERT_EQ(order, (std::vector<OpId>{a.id(), b.id(), c.id()}));
  const auto& reads = d.history.reads();
  ASSERT_EQ(reads.size(), 3u);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    ASSERT_TRUE(reads[i].end.has_value()) << i;
    if (i > 0) {
      EXPECT_EQ(reads[i - 1].end, reads[i].begin) << i;
    }
  }
  // Queue wait counts toward the client-perceived latency.
  EXPECT_EQ(c.invoked_at(), 0u);
  EXPECT_EQ(reads[2].end, c.responded_at());
  EXPECT_EQ(d.client->stats().reads_issued, 3u);
}

TEST(ClientSessionFifo, TimedOutAttemptFreesStationAndRetryQueuesBehindWaiters) {
  // Reads need a round trip of 8 ticks; a 5-tick deadline always fires.
  Deployment d(es_factory(3), 3, std::make_unique<net::FixedDelay>(4));
  OpOptions retried;
  retried.deadline = 5;
  retried.retry.max_attempts = 2;
  retried.retry.backoff = 1;
  const OpHandle a = d.client->session_read(1, retried);
  const OpHandle b = d.client->session_read(1);
  const OpHandle c = d.client->session_read(1);
  d.sim.run_until(500);

  ASSERT_TRUE(a.resolved());
  EXPECT_EQ(a.outcome(), OpOutcome::kTimedOut);
  EXPECT_EQ(a.attempts(), 2u);
  ASSERT_EQ(b.outcome(), OpOutcome::kOk);
  ASSERT_EQ(c.outcome(), OpOutcome::kOk);
  const auto& reads = d.history.reads();
  ASSERT_EQ(reads.size(), 4u);  // a's two attempts, b, c
  // The failed attempt hands the station on at its deadline, not after its
  // backoff and retry: b starts the moment a times out.
  EXPECT_EQ(reads[1].begin, 5u);
  EXPECT_EQ(reads[1].end, b.responded_at());
  // a's retry re-entered the FIFO behind c, which was already queued.
  EXPECT_EQ(reads[2].end, c.responded_at());
  EXPECT_EQ(reads[3].reader, 1u);
  EXPECT_EQ(reads[3].begin, c.responded_at());
  EXPECT_EQ(a.responded_at(), reads[3].begin + 5);
}

TEST(ClientSessionFifo, RetargetedRetryQueuesBehindWaitersAtItsNewStation) {
  Deployment d(es_factory(5), 5, std::make_unique<net::FixedDelay>(4));
  OpOptions retried;
  retried.retry.max_attempts = 2;
  retried.retry.backoff = 1;
  const OpHandle a = d.client->session_read(2, retried);
  // Every station a's retry could land on is busy with one op in service
  // and one waiting.
  std::vector<OpHandle> waiting;
  for (const sim::ProcessId p : {0u, 1u, 3u, 4u}) {
    (void)d.client->session_read(p);
    waiting.push_back(d.client->session_read(p));
  }
  d.sim.schedule_at(1, [&] { d.system->leave(2); });
  d.sim.run_until(500);

  ASSERT_TRUE(a.resolved());
  EXPECT_EQ(a.outcome(), OpOutcome::kOk);
  EXPECT_EQ(a.attempts(), 2u);
  const auto& retry = d.history.reads().back();
  ASSERT_NE(retry.reader, 2u);
  const std::size_t slot = retry.reader < 2 ? retry.reader : retry.reader - 1;
  ASSERT_TRUE(waiting[slot].resolved());
  EXPECT_EQ(retry.begin, waiting[slot].responded_at());
}

TEST(ClientSessionFifo, QueuedOpWhoseTargetDepartsIsDroppedUnissued) {
  Deployment d(es_factory(5), 5, std::make_unique<net::FixedDelay>(4));
  const OpHandle a = d.client->session_read(1);
  const OpHandle b = d.client->session_read(1);
  d.sim.schedule_at(1, [&] { d.system->leave(1); });
  d.sim.run_until(500);

  ASSERT_TRUE(a.resolved());
  EXPECT_EQ(a.outcome(), OpOutcome::kDroppedOnDeparture);
  ASSERT_TRUE(b.resolved());
  EXPECT_EQ(b.outcome(), OpOutcome::kDroppedOnDeparture);
  EXPECT_EQ(b.responded_at(), 1u);
  // Only a went on the wire; b never reached its target.
  EXPECT_EQ(d.client->stats().reads_issued, 1u);
  EXPECT_EQ(d.history.reads().size(), 1u);
}

TEST(ClientSessionFifo, SyncReadResolvedInsideInvocationHandsOnAtFreshEvent) {
  Deployment d(sync_factory(5), 3, std::make_unique<net::SynchronousDelay>(5));
  OpHandle b;
  const OpHandle a = d.client->session_read(1, {}, [&](const OpHandle&) {
    b = d.client->session_read(1);
  });
  // a resolved inside its own invocation; b, queued from a's hook, waits
  // for the station to be handed on by a later event at the same tick.
  ASSERT_TRUE(a.resolved());
  ASSERT_TRUE(b.valid());
  EXPECT_FALSE(b.resolved());
  EXPECT_EQ(d.history.reads().size(), 1u);
  d.sim.run_until(0);
  ASSERT_TRUE(b.resolved());
  EXPECT_EQ(b.outcome(), OpOutcome::kOk);
  EXPECT_EQ(b.responded_at(), 0u);
  // With the station free again, the next session op starts immediately.
  const OpHandle c = d.client->session_read(1);
  EXPECT_TRUE(c.resolved());
}

// --- handles -----------------------------------------------------------------

TEST(ClientApi, HandleCarriesIdentityAndTimes) {
  Deployment d(es_factory(3), 3, std::make_unique<net::SynchronousDelay>(4));
  const OpHandle r = d.client->read(1);
  const OpHandle w = d.client->write(0, 5);
  EXPECT_EQ(r.id(), 0u);
  EXPECT_EQ(w.id(), 1u);
  EXPECT_EQ(r.type(), OpType::kRead);
  EXPECT_EQ(w.type(), OpType::kWrite);
  EXPECT_EQ(r.invoked_at(), 0u);
  d.sim.run_until(200);
  ASSERT_TRUE(r.resolved());
  ASSERT_TRUE(w.resolved());
  EXPECT_EQ(r.outcome(), OpOutcome::kOk);
  EXPECT_EQ(w.outcome(), OpOutcome::kOk);
  EXPECT_GT(r.responded_at(), r.invoked_at());
  // Latency samples match the handles' intervals.
  ASSERT_EQ(d.client->stats().read_latencies.size(), 1u);
  EXPECT_EQ(d.client->stats().read_latencies[0],
            static_cast<double>(r.responded_at() - r.invoked_at()));
}

}  // namespace
}  // namespace dynreg
