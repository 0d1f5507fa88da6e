// node::Context is one object per membership group: a process's timers and
// activation are guarded by an id-indexed liveness bit that churn::System
// sets before it builds the node and clears in leave() before the node's
// on_departure() runs. These tests pin both ends of that window, and the
// per-process footprint the shared context makes possible.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "churn/churn_model.h"
#include "churn/system.h"
#include "dynreg/abd_register.h"
#include "dynreg/es_register.h"
#include "dynreg/sync_register.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "node/node.h"
#include "sim/simulation.h"

namespace dynreg::churn {
namespace {

// An idle process costs its node alone, and its node is small: the base is
// a vtable pointer, a context pointer and an id, and a protocol's in-flight
// state lives behind one lazily created block.
static_assert(sizeof(node::Node) == 24, "node::Node is a vtable pointer, a context and an id");
// The protocol's constants live once per group, in the node::Context, so
// no node carries a copy of its config.
static_assert(sizeof(EsRegisterNode) <= 88, "an idle ES member keeps only its hot state");
static_assert(sizeof(AbdRegisterNode) <= 88, "an idle ABD member keeps only its hot state");
static_assert(sizeof(SyncRegisterNode) <= 112, "a sync member keeps no deque and no config");
// A time that has not happened is a sentinel, not an empty std::optional.
static_assert(sizeof(Chronicle::Record) <= 32, "a chronicle record is three times and a flag");

/// What the probe nodes report, indexed by process id. Lives outside the
/// nodes so a callback that outlives its node would still be counted
/// (instead of writing into freed memory).
struct Log {
  std::vector<int> timer_fired;      // constructor timers that ran
  std::vector<int> departed_fired;   // timers set in on_departure that ran
  void grow(sim::ProcessId id) {
    if (id >= timer_fired.size()) {
      timer_fired.resize(id + 1, 0);
      departed_fired.resize(id + 1, 0);
    }
  }
};

/// Initial members activate at once. A joiner, in its constructor (before
/// the System attaches it to the network), schedules a timer that counts
/// itself and one that completes the join `kJoinDelay` ticks later. On
/// departure it schedules another timer and reports activation again, both
/// of which must go nowhere.
class ProbeNode final : public node::Node {
 public:
  static constexpr sim::Duration kJoinDelay = 5;

  ProbeNode(sim::ProcessId id, node::Context& ctx, bool initial, Log& log)
      : Node(id, ctx), log_(log) {
    log_.grow(id);
    if (initial) {
      notify_active();
      return;
    }
    Log* log_ptr = &log_;
    ctx.schedule_after(id, 1, [log_ptr, id] { ++log_ptr->timer_fired[id]; });
    ctx.schedule_after(id, kJoinDelay, [&ctx, id] { ctx.notify_active(id); });
  }

  void on_departure() override {
    Log* log_ptr = &log_;
    const sim::ProcessId me = id();
    context().schedule_after(me, 0, [log_ptr, me] { ++log_ptr->departed_fired[me]; });
    notify_active();
  }

  void on_message(sim::ProcessId, const net::Payload&) override {}

 private:
  Log& log_;
};

struct World {
  explicit World(std::size_t initial)
      : net(sim, std::make_unique<net::FixedDelay>(1)),
        system(sim, net, config(initial), std::make_unique<NoChurn>(),
               [this](sim::ProcessId id, node::Context& ctx, bool is_initial) {
                 return std::make_unique<ProbeNode>(id, ctx, is_initial, log);
               }) {}

  static SystemConfig config(std::size_t initial) {
    SystemConfig cfg;
    cfg.initial_size = initial;
    return cfg;
  }

  [[nodiscard]] bool is_active(sim::ProcessId id) const {
    const auto& ids = system.active_ids();
    return std::binary_search(ids.begin(), ids.end(), id);
  }

  Log log;
  sim::Simulation sim{11};
  net::Network net;
  System system;
};

TEST(NodeContext, TimerScheduledInTheConstructorFires) {
  World w(3);
  w.system.bootstrap();
  const sim::ProcessId joiner = w.system.spawn();
  // The constructor ran before the network knew the process.
  w.sim.run_until(ProbeNode::kJoinDelay + 1);
  EXPECT_EQ(w.log.timer_fired[joiner], 1);
  EXPECT_TRUE(w.is_active(joiner));
  EXPECT_EQ(w.system.joins_completed(), 1u);
  EXPECT_TRUE(w.net.attached(joiner));
}

TEST(NodeContext, DepartedProcessTimersAndActivationNeverRun) {
  World w(3);
  w.system.bootstrap();
  const sim::ProcessId early = w.system.spawn();
  const sim::ProcessId gone = w.system.spawn();
  w.system.leave(gone);  // before either of its constructor timers is due
  // Later joins, both before and after the departed process's timers fall
  // due, must not bring its id back to life.
  const sim::ProcessId later = w.system.spawn();
  w.sim.run_until(3);
  const sim::ProcessId latest = w.system.spawn();
  w.sim.run_until(100);

  EXPECT_EQ(w.log.timer_fired[gone], 0);
  EXPECT_EQ(w.log.departed_fired[gone], 0);
  EXPECT_FALSE(w.is_active(gone));
  EXPECT_EQ(w.system.chronicle().records()[gone].activated(), std::nullopt);
  EXPECT_EQ(w.system.find(gone), nullptr);

  for (const sim::ProcessId id : {early, later, latest}) {
    SCOPED_TRACE(id);
    EXPECT_EQ(w.log.timer_fired[id], 1);
    EXPECT_TRUE(w.is_active(id));
  }
  EXPECT_EQ(w.system.joins_started(), 4u);
  EXPECT_EQ(w.system.joins_completed(), 3u);
  EXPECT_EQ(w.system.joins_abandoned(), 1u);
  EXPECT_EQ(w.system.active_count(), 6u);
}

TEST(NodeContext, ActiveMemberLeavingStaysRetired) {
  World w(4);
  w.system.bootstrap();
  w.system.leave(2);  // an active initial member: on_departure notifies again
  for (int k = 0; k < 3; ++k) w.system.spawn();
  w.sim.run_until(50);

  EXPECT_EQ(w.log.departed_fired[2], 0);
  EXPECT_FALSE(w.is_active(2));
  ASSERT_TRUE(w.system.chronicle().records()[2].left().has_value());
  EXPECT_EQ(w.system.active_count(), 6u);
  EXPECT_EQ(w.system.joins_completed(), 3u);
}

}  // namespace
}  // namespace dynreg::churn
