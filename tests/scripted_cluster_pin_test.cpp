// Pinned scripted scenario. The hand-driven experiments (E1, E2, E5 and the
// ablations' inversion trials) build their world through ScriptedCluster;
// this test drives one the way E1 does (a write, a mid-write joiner, a read
// at the joiner) and fixes its outcome, the join and per-type message
// counts, and, in DYNREG_AUDIT builds, the event-stream hash.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "bench_util.h"
#include "dynreg/messages.h"
#include "net/delay_model.h"
#include "sim/simulation.h"

namespace dynreg::bench {
namespace {

constexpr sim::Duration kDelta = 5;

TEST(ScriptedClusterPin, JoinDuringWriteLikeE1) {
  SyncConfig cfg;
  cfg.delta = kDelta;
  auto delays = std::make_unique<net::AsyncAdversarialDelay>(
      kDelta, [](sim::Time, sim::ProcessId from, sim::ProcessId to,
                 const net::Payload& p) -> std::optional<sim::Duration> {
        const net::PayloadTypeId type = p.type_id();
        if (type == msg::SyncWrite::kTypeId) return kDelta;
        if (type == msg::SyncInquiry::kTypeId && to == 0) return kDelta;
        if (type == msg::SyncReply::kTypeId && from == 0) return kDelta;
        return 1;
      });
  auto cluster = ScriptedCluster::sync(7, 4, 0.0, cfg, std::move(delays));

  bool write_completed = false;
  cluster->sim.run_until(5);
  cluster->node(0)->write(OpContext{}, 1, [&write_completed](OpOutcome o) {
    if (o == OpOutcome::kOk) write_completed = true;
  });
  cluster->sim.run_until(7);
  const sim::ProcessId joiner = cluster->world.system.spawn();
  cluster->sim.run_until(200);

  EXPECT_TRUE(write_completed);
  EXPECT_EQ(cluster->node(joiner)->local_value(), 1);
  EXPECT_EQ(cluster->read_blocking(joiner).value_or(kBottom), 1);
  EXPECT_EQ(cluster->world.system.joins_completed(), 1u);
  const std::map<std::string, std::uint64_t> msgs{
      {"sync.inquiry", 4}, {"sync.reply", 4}, {"sync.write", 3}};
  EXPECT_EQ(cluster->world.net.delivered_by_type(), msgs);
  if (sim::Simulation::audit_enabled()) {
    EXPECT_EQ(cluster->sim.trace_hash(), 0x4face4ed4d1ac409ULL)
        << "actual 0x" << std::hex << cluster->sim.trace_hash();
  }
}

}  // namespace
}  // namespace dynreg::bench
