// churn::System's SoA membership columns vs a naive map model.
//
// The SoA refactor (id-indexed columns + sorted id vectors) must be
// observably indistinguishable from the std::map<id, Member> it replaced:
// same member/active sets, same ascending iteration order (the RNG draw
// sequence depends on it), same join accounting — across long random
// interleavings of spawn / leave / time advancement, including leaves that
// land while a join is still pending. The chronicle is the one per-id
// membership timeline, so each id's entered/activated/left times and the
// join-latency total are checked against the model too, as is the
// oldest-active-first victim choice that reads them. Run under ASan/UBSan
// this also sweeps the column-growth and erase-by-shift paths for memory
// errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "churn/churn_model.h"
#include "churn/system.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "node/node.h"
#include "sim/simulation.h"

namespace dynreg::churn {
namespace {

/// Delay before a joiner of id `i` activates — varied so activations
/// interleave with spawns and leaves instead of clustering.
sim::Duration join_delay(sim::ProcessId id) { return 1 + id % 7; }

/// Minimal protocol stand-in: initial members are active at birth; joiners
/// activate join_delay(id) ticks later (unless churned out first — the
/// group context's liveness bit must suppress the pending notify_active).
class StubNode final : public node::Node {
 public:
  StubNode(sim::ProcessId id, node::Context& ctx, bool initial) : Node(id, ctx) {
    if (initial) {
      ctx.notify_active(id);
    } else {
      ctx.schedule_after(id, join_delay(id), [&ctx, id] { ctx.notify_active(id); });
    }
  }
  void on_message(sim::ProcessId, const net::Payload&) override {}
};

/// The naive model the columns are checked against: one map entry per
/// member, activation promoted by explicit time sweep, plus every id's
/// lifetime for the chronicle.
struct Model {
  struct Rec {
    bool active = false;
    std::optional<sim::Time> activates_at;  // pending join
  };
  struct Life {
    sim::Time entered = 0;
    std::optional<sim::Time> activated;
    std::optional<sim::Time> left;
  };
  std::map<sim::ProcessId, Rec> members;
  std::vector<Life> lives;  // every id ever issued; index == id
  std::uint64_t joins_started = 0;
  std::uint64_t joins_completed = 0;
  std::uint64_t joins_abandoned = 0;
  std::uint64_t join_latency_total = 0;

  explicit Model(std::size_t initial) {
    for (sim::ProcessId id = 0; id < initial; ++id) {
      members[id] = Rec{true, std::nullopt};
      lives.push_back(Life{0, 0, std::nullopt});
    }
  }
  void spawn(sim::ProcessId id, sim::Time now) {
    ++joins_started;
    members[id] = Rec{false, now + join_delay(id)};
    ASSERT_EQ(id, lives.size());
    lives.push_back(Life{now, std::nullopt, std::nullopt});
  }
  void leave(sim::ProcessId id, sim::Time now) {
    const auto it = members.find(id);
    if (!it->second.active) ++joins_abandoned;
    members.erase(it);
    lives[id].left = now;
  }
  void promote_through(sim::Time now) {
    for (auto& [id, rec] : members) {
      if (!rec.active && rec.activates_at && *rec.activates_at <= now) {
        rec.active = true;
        lives[id].activated = *rec.activates_at;
        join_latency_total += *rec.activates_at - lives[id].entered;
        rec.activates_at.reset();
        ++joins_completed;
      }
    }
  }
  std::vector<sim::ProcessId> active_ids() const {
    std::vector<sim::ProcessId> out;
    for (const auto& [id, rec] : members) {
      if (rec.active) out.push_back(id);
    }
    return out;  // map iteration: ascending id — the order the seed had
  }
  std::vector<sim::ProcessId> member_ids() const {
    std::vector<sim::ProcessId> out;
    for (const auto& [id, rec] : members) out.push_back(id);
    return out;
  }
};

TEST(MembershipProperty, SoaColumnsMatchNaiveMapModel) {
  for (const std::uint32_t seed : {3u, 41u, 977u}) {
    SCOPED_TRACE(seed);
    sim::Simulation sim(seed);
    net::Network net(sim, std::make_unique<net::FixedDelay>(1));
    SystemConfig cfg;
    cfg.initial_size = 50;
    System system(sim, net, cfg, std::make_unique<NoChurn>(),
                  [](sim::ProcessId id, node::Context& ctx, bool initial) {
                    return std::make_unique<StubNode>(id, ctx, initial);
                  });
    system.bootstrap();

    Model model(50);

    std::mt19937 rng(seed);
    sim::Time now = 0;
    for (int op = 0; op < 10000; ++op) {
      const std::uint32_t roll = rng() % 100;
      if (roll < 35) {
        const sim::ProcessId id = system.spawn();
        model.spawn(id, now);
      } else if (roll < 65 && !model.members.empty()) {
        // Pick the victim from the model so the test, not the subject,
        // decides who leaves. Pending joiners are fair game.
        const auto ids = model.member_ids();
        const sim::ProcessId victim = ids[rng() % ids.size()];
        system.leave(victim);
        model.leave(victim, now);
      } else {
        now += 1 + rng() % 3;
        sim.run_until(now);
        model.promote_through(now);
      }

      // Full-state comparison every step: sets, order, and counters.
      ASSERT_EQ(system.member_count(), model.members.size());
      ASSERT_EQ(system.active_ids(), model.active_ids());
      ASSERT_EQ(system.joins_started(), model.joins_started);
      ASSERT_EQ(system.joins_completed(), model.joins_completed);
      ASSERT_EQ(system.joins_abandoned(), model.joins_abandoned);
      ASSERT_EQ(system.join_latency_total(), model.join_latency_total);
      const auto& records = system.chronicle().records();
      ASSERT_EQ(records.size(), model.lives.size());
      for (sim::ProcessId id = 0; id < records.size(); ++id) {
        ASSERT_EQ(records[id].entered, model.lives[id].entered) << "id " << id;
        ASSERT_EQ(records[id].activated(), model.lives[id].activated) << "id " << id;
        ASSERT_EQ(records[id].left(), model.lives[id].left) << "id " << id;
        ASSERT_EQ(records[id].initial, id < 50) << "id " << id;
      }
    }

    // find() agrees with the model on membership, including for every id
    // ever issued (exercises the null-column "not a member" encoding).
    for (sim::ProcessId id = 0; id < 50 + model.joins_started; ++id) {
      ASSERT_EQ(system.find(id) != nullptr, model.members.count(id) == 1)
          << "id " << id;
    }
    // Iteration order is ascending id — what the old map gave the RNG.
    const auto& active = system.active_ids();
    ASSERT_TRUE(std::is_sorted(active.begin(), active.end()));
  }
}

/// Checks every churn-driven victim against the chronicle, walked
/// independently of the system's active_ids(): it must be the non-exempt
/// member that activated earliest and has not left, lowest id on ties.
class OldestActiveCheck final : public ChurnObserver {
 public:
  OldestActiveCheck(const System& system, sim::ProcessId exempt)
      : system_(system), exempt_(exempt) {}

  void on_churn_join(sim::Time) override {}

  void on_churn_leave(sim::Time, sim::ProcessId victim) override {
    const auto& records = system_.chronicle().records();
    std::optional<sim::ProcessId> oldest;
    for (sim::ProcessId id = 0; id < records.size(); ++id) {
      const Chronicle::Record& r = records[id];
      if (id == exempt_ || !r.activated() || r.left()) continue;
      if (!oldest || *r.activated() < *records[*oldest].activated()) oldest = id;
    }
    ASSERT_TRUE(oldest.has_value());
    EXPECT_EQ(victim, *oldest);
    ++checked;
  }

  std::size_t checked = 0;

 private:
  const System& system_;
  sim::ProcessId exempt_;
};

TEST(MembershipProperty, OldestActiveFirstPicksEarliestChronicleActivation) {
  sim::Simulation sim(7);
  net::Network net(sim, std::make_unique<net::FixedDelay>(1));
  SystemConfig cfg;
  cfg.initial_size = 50;
  cfg.leave_policy = LeavePolicy::kOldestActiveFirst;
  cfg.exempt = {0};
  System system(sim, net, cfg, std::make_unique<ConstantChurn>(0.05),
                [](sim::ProcessId id, node::Context& ctx, bool initial) {
                  return std::make_unique<StubNode>(id, ctx, initial);
                });
  OldestActiveCheck check(system, 0);
  system.set_churn_observer(&check);
  system.bootstrap();
  sim.run_until(400);
  // 2.5 leaves per tick: the 49 initial members (all activated at 0, so the
  // lowest id goes first) are gone within ~20 ticks, and the rest are
  // joiners with staggered activations.
  EXPECT_GT(check.checked, 900u);
  EXPECT_EQ(system.chronicle().records()[0].left(), std::nullopt);
}

}  // namespace
}  // namespace dynreg::churn
