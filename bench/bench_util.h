// Shared helpers for the scripted experiments: a minimal cluster deployment
// (one harness::World, the experiment harness's own wiring) that the bench
// drives step by step, plus a predicate-pump.
#pragma once

#include <memory>
#include <optional>
#include <utility>

#include "churn/churn_model.h"
#include "churn/system.h"
#include "dynreg/es_register.h"
#include "dynreg/sync_register.h"
#include "harness/world.h"
#include "net/delay_model.h"
#include "replay/session.h"
#include "sim/simulation.h"
#include "stats/data_table.h"

namespace dynreg::bench {

/// Steps the simulation until pred() holds or the deadline passes.
template <typename Pred>
bool pump_until(sim::Simulation& sim, Pred pred, sim::Time deadline) {
  while (!pred()) {
    const auto next = sim.next_event_time();
    if (!next || *next > deadline) break;
    sim.step();
  }
  return pred();
}

/// A scripted protocol deployment: one harness::World with no workload
/// driver (the bench drives it), bootstrapped on construction.
///
/// Record/replay: pass a session and a nonzero `replay_key`
/// (replay::scenario_key of the scenario's name and distinguishing
/// parameters) and the cluster enrolls in that session exactly like a swept
/// run — its net/churn decisions are captured when recording and re-fed
/// when replaying, keyed by (replay_key, seed). Bench-driven spawn()/leave()
/// calls and operations re-occur naturally when the bench code runs again,
/// so only the substrate's decisions are in the trace. With no session (the
/// default) or replay_key 0 the cluster is a plain run.
class ScriptedCluster {
 public:
  ScriptedCluster(std::uint64_t seed, std::size_t n, double churn_rate,
                  churn::LeavePolicy policy, std::unique_ptr<net::DelayModel> delays,
                  churn::System::NodeFactory factory, replay::Session* session = nullptr,
                  std::uint64_t replay_key = 0)
      : sim(seed),
        session_(session, replay_key, seed),
        streams_(sim, session_.hooks()),
        world(sim, std::move(delays), system_config(n, policy), churn_model(churn_rate),
              std::move(factory), /*horizon=*/0, streams_, /*shard=*/0) {
    world.system.bootstrap();
  }

  ~ScriptedCluster() { session_.finish(sim.trace_hash()); }

  ScriptedCluster(const ScriptedCluster&) = delete;
  ScriptedCluster& operator=(const ScriptedCluster&) = delete;

  static std::unique_ptr<ScriptedCluster> sync(std::uint64_t seed, std::size_t n,
                                               double churn_rate, const SyncConfig& cfg,
                                               std::unique_ptr<net::DelayModel> delays,
                                               churn::LeavePolicy policy =
                                                   churn::LeavePolicy::kUniform,
                                               replay::Session* session = nullptr,
                                               std::uint64_t replay_key = 0) {
    return std::make_unique<ScriptedCluster>(
        seed, n, churn_rate, policy, std::move(delays),
        [cfg](sim::ProcessId id, node::Context& ctx, bool initial) {
          return std::make_unique<SyncRegisterNode>(id, ctx, cfg, initial);
        },
        session, replay_key);
  }

  static std::unique_ptr<ScriptedCluster> es(std::uint64_t seed, std::size_t n,
                                             double churn_rate,
                                             std::unique_ptr<net::DelayModel> delays,
                                             churn::LeavePolicy policy =
                                                 churn::LeavePolicy::kUniform,
                                             replay::Session* session = nullptr,
                                             std::uint64_t replay_key = 0) {
    EsConfig cfg;
    cfg.n = n;
    return std::make_unique<ScriptedCluster>(
        seed, n, churn_rate, policy, std::move(delays),
        [cfg](sim::ProcessId id, node::Context& ctx, bool initial) {
          return std::make_unique<EsRegisterNode>(id, ctx, cfg, initial);
        },
        session, replay_key);
  }

  RegisterNode* node(sim::ProcessId id) { return world.client.node(id); }

  std::optional<Value> read_blocking(sim::ProcessId id, sim::Duration max_wait = 10000) {
    std::optional<Value> result;
    RegisterNode* reg = node(id);
    if (reg == nullptr) return std::nullopt;
    reg->read(OpContext{0, sim.now()}, [&result](OpOutcome o, Value v) {
      if (o == OpOutcome::kOk) result = v;
    });
    pump_until(sim, [&result] { return result.has_value(); }, sim.now() + max_wait);
    return result;
  }

 private:
  static churn::SystemConfig system_config(std::size_t n, churn::LeavePolicy policy) {
    churn::SystemConfig cfg;
    cfg.initial_size = n;
    cfg.leave_policy = policy;
    return cfg;
  }

  static std::unique_ptr<churn::ChurnModel> churn_model(double churn_rate) {
    if (churn_rate > 0.0) return std::make_unique<churn::ConstantChurn>(churn_rate);
    return std::make_unique<churn::NoChurn>();
  }

 public:
  sim::Simulation sim;

 private:
  // Between sim and world: the streams reference the simulation, the world
  // the streams.
  replay::SessionRun session_;
  harness::RunStreams streams_;

 public:
  harness::World world;
};

}  // namespace dynreg::bench
