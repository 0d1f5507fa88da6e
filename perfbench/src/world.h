// A dynreg run assembled from the public layer APIs, in the construction
// order harness::run_experiment (unsharded, live or replayed) and
// shard::run_sharded (live) use, so a World run to its horizon reproduces
// their MetricsReport exactly. The end-to-end run times its set-up; the
// traced run drives its simulation slice by slice.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "churn/system.h"
#include "client/client.h"
#include "consistency/history.h"
#include "fault/decision.h"
#include "fault/injector.h"
#include "harness/experiment.h"
#include "harness/metrics.h"
#include "harness/workload.h"
#include "net/network.h"
#include "replay/replayer.h"
#include "replay/trace.h"
#include "shard/keyed_workload.h"
#include "shard/keyspace.h"
#include "shard/router.h"
#include "sim/simulation.h"
#include "tracer.h"

namespace perfbench {

/// Protocol-node constructions through the wrapped churn::System
/// NodeFactory: bootstrap members and joiners alike.
struct NodeBuilds {
  std::uint64_t count = 0;
  double seconds = 0.0;
};

/// One membership group: the whole system when unsharded, else one shard.
struct Group {
  std::unique_ptr<dynreg::net::Network> net;
  std::unique_ptr<dynreg::consistency::History> history;
  std::unique_ptr<dynreg::churn::System> system;
  std::unique_ptr<dynreg::client::Client> client;
  std::size_t n = 0;
};

class World {
 public:
  /// Builds every object of the run, without bootstrapping it. `builds`,
  /// when given, counts and times each node construction and must outlive
  /// the world. `replay`, when given, drives an unsharded run from that
  /// schedule as run_experiment's replay hook does; it too must outlive the
  /// world.
  World(const dynreg::harness::ExperimentConfig& cfg, NodeBuilds* builds,
        const dynreg::replay::Trace* replay = nullptr);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// System::bootstrap for every group, in group order.
  void bootstrap();
  /// Arms the fault injector and opens the workload; call after bootstrap().
  void start();
  /// The report run_experiment/run_sharded would return, for the fields
  /// outputs_of() reads. Opens "consistency.check" (unsharded) or
  /// "shard.harvest" (sharded) spans on `tracer`.
  dynreg::harness::MetricsReport harvest(Tracer& tracer);

  dynreg::sim::Simulation& sim() { return sim_; }
  [[nodiscard]] const std::vector<Group>& groups() const { return groups_; }

 private:
  dynreg::harness::ExperimentConfig cfg_;
  dynreg::sim::Simulation sim_;
  std::unique_ptr<dynreg::replay::TraceReplayer> replayer_;
  std::vector<Group> groups_;
  // Unsharded runs.
  std::unique_ptr<dynreg::workload::Generator> generator_;
  std::unique_ptr<dynreg::fault::DecisionSource> fault_decisions_;
  std::unique_ptr<dynreg::fault::Injector> injector_;
  // Sharded runs.
  std::unique_ptr<dynreg::shard::ShardMap> map_;
  std::unique_ptr<dynreg::shard::ShardedClient> router_;
  std::unique_ptr<dynreg::shard::KeyedGenerator> keyed_;
};

}  // namespace perfbench
