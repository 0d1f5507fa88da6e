// churn::System's SoA membership columns vs a naive map model.
//
// The SoA refactor (id-indexed columns + sorted id vectors) must be
// observably indistinguishable from the std::map<id, Member> it replaced:
// same member/active sets, same ascending iteration order (the RNG draw
// sequence depends on it), same join accounting — across long random
// interleavings of spawn / leave / time advancement, including leaves that
// land while a join is still pending. Run under ASan/UBSan this also sweeps
// the column-growth and erase-by-shift paths for memory errors.
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
/// activate join_delay(id) ticks later (unless churned out first — Context
/// invalidation must suppress the pending notify_active).
class StubNode final : public node::Node {
 public:
  StubNode(sim::ProcessId id, node::Context& ctx, bool initial) : Node(id, ctx) {
    if (initial) {
      ctx.notify_active();
    } else {
      ctx.schedule_after(join_delay(id), [&ctx] { ctx.notify_active(); });
    }
  }
  void on_message(sim::ProcessId, const net::Payload&) override {}
};

/// The naive model the columns are checked against: one map entry per
/// member, activation promoted by explicit time sweep.
struct Model {
  struct Rec {
    bool active = false;
    std::optional<sim::Time> activates_at;  // pending join
  };
  std::map<sim::ProcessId, Rec> members;
  std::uint64_t joins_started = 0;
  std::uint64_t joins_completed = 0;
  std::uint64_t joins_abandoned = 0;

  void spawn(sim::ProcessId id, sim::Time now) {
    ++joins_started;
    members[id] = Rec{false, now + join_delay(id)};
  }
  void leave(sim::ProcessId id) {
    const auto it = members.find(id);
    if (!it->second.active) ++joins_abandoned;
    members.erase(it);
  }
  void promote_through(sim::Time now) {
    for (auto& [id, rec] : members) {
      if (!rec.active && rec.activates_at && *rec.activates_at <= now) {
        rec.active = true;
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

    Model model;
    for (sim::ProcessId id = 0; id < 50; ++id) {
      model.members[id] = Model::Rec{true, std::nullopt};
    }

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
        model.leave(victim);
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

}  // namespace
}  // namespace dynreg::churn
