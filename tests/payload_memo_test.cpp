// node::Context's payload memo: a group builds one payload per distinct
// reply content and hands the same object to every equal reply after it.
// Sharing is only sound if the key is the whole content, so each test here
// changes exactly one field of the key and expects a new payload carrying
// the new field.
#include <gtest/gtest.h>

#include <memory>

#include "dynreg/messages.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "node/context.h"
#include "sim/simulation.h"

namespace dynreg::node {
namespace {

struct Group {
  sim::Simulation sim{1};
  net::Network net{sim, std::make_unique<net::FixedDelay>(1)};
  Context ctx{sim, net, {}};
};

const msg::Stamped& as_stamped(const net::PayloadPtr& p) {
  return static_cast<const msg::Stamped&>(*p);
}

// The reply every variant below starts from.
net::PayloadPtr base_reply(Context& ctx) {
  return ctx.shared_payload<msg::Stamped>(msg::kEsReply, 7, Timestamp{3, 2}, Value{42}, true);
}

TEST(PayloadMemo, HitReturnsTheSameObject) {
  Group g;
  const net::PayloadPtr first = base_reply(g.ctx);
  const net::PayloadPtr again = base_reply(g.ctx);
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(g.ctx.payloads_built(), 1u);

  const net::PayloadPtr ack = g.ctx.shared_payload<msg::Request>(msg::kEsAck, 9);
  EXPECT_EQ(g.ctx.shared_payload<msg::Request>(msg::kEsAck, 9).get(), ack.get());
  EXPECT_EQ(g.ctx.payloads_built(), 2u);
}

TEST(PayloadMemo, EachStampedKeyFieldBuildsANewPayload) {
  struct Variant {
    const char* field;
    net::PayloadTypeId tag;
    std::uint64_t id;
    Timestamp ts;
    Value value;
    bool has_value;
  };
  const Variant variants[] = {
      {"tag", msg::kEsJoinReply, 7, {3, 2}, 42, true},
      {"id", msg::kEsReply, 8, {3, 2}, 42, true},
      {"ts.sn", msg::kEsReply, 7, {4, 2}, 42, true},
      {"ts.writer", msg::kEsReply, 7, {3, 5}, 42, true},
      {"value", msg::kEsReply, 7, {3, 2}, 43, true},
      {"has_value", msg::kEsReply, 7, {3, 2}, 42, false},
  };
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.field);
    Group g;
    const net::PayloadPtr base = base_reply(g.ctx);
    const net::PayloadPtr changed =
        g.ctx.shared_payload<msg::Stamped>(v.tag, v.id, v.ts, v.value, v.has_value);
    EXPECT_NE(changed.get(), base.get());
    EXPECT_EQ(g.ctx.payloads_built(), 2u);
    const msg::Stamped& m = as_stamped(changed);
    EXPECT_EQ(m.type_id(), v.tag);
    EXPECT_EQ(m.id, v.id);
    EXPECT_EQ(m.ts.sn, v.ts.sn);
    EXPECT_EQ(m.ts.writer, v.ts.writer);
    EXPECT_EQ(m.value, v.value);
    EXPECT_EQ(m.has_value, v.has_value);
    // The base is untouched, and one entry remembers only the last build.
    EXPECT_EQ(as_stamped(base).value, 42);
    EXPECT_NE(base_reply(g.ctx).get(), changed.get());
    EXPECT_EQ(g.ctx.payloads_built(), 3u);
  }
}

TEST(PayloadMemo, EachRequestKeyFieldBuildsANewPayload) {
  Group g;
  const net::PayloadPtr ack = g.ctx.shared_payload<msg::Request>(msg::kEsAck, 9);
  const net::PayloadPtr other_tag = g.ctx.shared_payload<msg::Request>(msg::kAbdUpdateAck, 9);
  EXPECT_NE(other_tag.get(), ack.get());
  EXPECT_EQ(other_tag->type_id(), msg::kAbdUpdateAck);
  const net::PayloadPtr other_id = g.ctx.shared_payload<msg::Request>(msg::kAbdUpdateAck, 10);
  EXPECT_NE(other_id.get(), other_tag.get());
  EXPECT_EQ(static_cast<const msg::Request&>(*other_id).id, 10u);
  EXPECT_EQ(g.ctx.payloads_built(), 3u);
}

TEST(PayloadMemo, AShapeChangeBuildsANewPayload) {
  // A Stamped and a Request whose common fields agree are still different
  // messages.
  Group g;
  const net::PayloadPtr ack = g.ctx.shared_payload<msg::Request>(msg::kEsAck, 7);
  const net::PayloadPtr reply = base_reply(g.ctx);
  EXPECT_NE(reply.get(), ack.get());
  EXPECT_EQ(g.ctx.shared_payload<msg::Request>(msg::kEsAck, 7)->type_id(), msg::kEsAck);
  EXPECT_EQ(g.ctx.payloads_built(), 3u);
}

TEST(PayloadMemo, MemoisedPayloadIsNotInTheArena) {
  // A payload that stays current for a whole run must not pin an arena chunk.
  Group g;
  const std::size_t before = g.sim.arena().live_allocations();
  const net::PayloadPtr reply = base_reply(g.ctx);
  EXPECT_EQ(g.sim.arena().live_allocations(), before);
}

TEST(PayloadMemo, MemoisedPayloadsLiveInTheBlockPool) {
  // A miss builds in the simulation's block pool, and the block of a
  // replaced memo whose last copy is gone is the next one reused.
  Group g;
  net::PayloadPtr first = base_reply(g.ctx);
  EXPECT_EQ(g.sim.blocks().live_blocks(), 1u);
  const void* first_block = first.get();
  first.reset();  // the memo still holds it
  const net::PayloadPtr ack = g.ctx.shared_payload<msg::Request>(msg::kEsAck, 7);
  EXPECT_EQ(g.sim.blocks().live_blocks(), 1u);
  const net::PayloadPtr reply = base_reply(g.ctx);
  EXPECT_EQ(static_cast<const void*>(reply.get()), first_block);
  EXPECT_EQ(g.sim.blocks().live_blocks(), 2u);
  EXPECT_EQ(g.sim.blocks().slabs_created(), 1u);
}

TEST(PayloadMemo, AQueuedCopyOfTheMemoOutlivesItsGroup) {
  // The group's Context dies before the simulation: a copy still queued
  // then releases its payload into the simulation's pool, which outlives
  // the queue.
  sim::Simulation sim(1);
  net::Network net(sim, std::make_unique<net::FixedDelay>(1));
  {
    Context ctx(sim, net, {});
    net.send(1, 2, base_reply(ctx));
  }
  EXPECT_EQ(sim.blocks().live_blocks(), 1u);
}

}  // namespace
}  // namespace dynreg::node
