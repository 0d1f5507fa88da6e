#include "harness/experiment.h"

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/builders.h"
#include "harness/workload.h"
#include "harness/world.h"
#include "shard/keyed_workload.h"
#include "shard/keyspace.h"
#include "shard/router.h"

namespace dynreg::harness {

void ExperimentConfig::validate() const {
  if (shard_count > n) {
    throw std::invalid_argument("shard count " + std::to_string(shard_count) +
                                " exceeds the system size n=" + std::to_string(n) +
                                "; a shard needs at least one process");
  }
  if (dissemination == Dissemination::kTree &&
      (tree_fanout == 0 || tree_fanout > std::numeric_limits<std::uint32_t>::max())) {
    throw std::invalid_argument("tree fanout " + std::to_string(tree_fanout) +
                                " is outside [1, " +
                                std::to_string(std::numeric_limits<std::uint32_t>::max()) +
                                "]; a tree needs at least one child per node");
  }
  // Written so that NaN, which compares false both ways, is rejected too.
  const auto probability = [](const char* name, double v) {
    if (!(v >= 0.0 && v <= 1.0)) {
      throw std::invalid_argument(std::string(name) + " " + std::to_string(v) +
                                  " is not a probability in [0, 1]");
    }
  };
  const auto rate = [](const char* name, double v) {
    if (!(v >= 0.0)) {
      throw std::invalid_argument(std::string(name) + " " + std::to_string(v) +
                                  " is not a rate >= 0");
    }
  };
  probability("loss rate", loss_rate);
  rate("churn rate", churn_rate);
  if (fault.tick == 0) {
    throw std::invalid_argument(
        "fault tick 0 would reschedule the injector at the same tick forever");
  }
  rate("crash rate", fault.crash.rate);
  probability("crash recover fraction", fault.crash.recover_fraction);
  rate("partition rate", fault.partition.rate);
  probability("partition fraction", fault.partition.fraction);
  probability("byzantine fraction", fault.byzantine.fraction);
  probability("byzantine transform rate", fault.byzantine.transform_rate);
}

MetricsReport run_experiment(const ExperimentConfig& cfg, const replay::RunHooks& hooks) {
  cfg.validate();
  sim::Simulation sim(cfg.seed);
  RunStreams streams(sim, hooks);

  // One world per shard, built in shard order (one world when unsharded).
  // Sharded runs split the population n/S each, the remainder over the
  // first shards, and pin process 0 of every shard as its writer — unless
  // the keyed engine's mix coin leaves no writes, which pins nobody.
  const bool sharded = cfg.shard_count > 0;
  const std::size_t count = sharded ? cfg.shard_count : 1;
  std::vector<sim::ProcessId> writers;
  if (!sharded) {
    writers = designated_writers(cfg);
  } else if (cfg.workload.read_frac < 1.0) {
    writers = {0};
  }
  std::deque<World> worlds;
  shard::ShardMap map(count);
  std::vector<const fault::Injector*> injectors;
  for (std::size_t s = 0; s < count; ++s) {
    const std::size_t n =
        sharded ? cfg.n / count + (s < cfg.n % count ? 1 : 0) : cfg.n;
    World& w = worlds.emplace_back(sim, cfg, n, writers, streams,
                                   static_cast<std::uint32_t>(s));
    map.shard(static_cast<shard::ShardId>(s)) = w.ref();
    injectors.push_back(w.injector.get());
  }

  std::unique_ptr<workload::Generator> generator;
  std::optional<shard::ShardedClient> router;
  std::optional<shard::KeyedGenerator> keyed;
  if (sharded) {
    router.emplace(map);
    keyed.emplace(shard::KeyedGenerator::Env{sim, *router, cfg.workload, cfg.duration});
  } else {
    generator = workload::make_generator(workload::Env{
        sim, worlds[0].system, worlds[0].client, cfg.workload, cfg.duration, writers});
  }

  // Members first, then faults, then traffic.
  for (World& w : worlds) w.system.bootstrap();
  for (World& w : worlds) {
    if (w.injector) w.injector->start();
  }
  if (keyed) {
    keyed->start();
  } else {
    generator->start();
  }
  sim.run_until(cfg.duration);

  MetricsReport report = harvest(cfg, map, injectors);
  report.trace_hash = sim.trace_hash();
  report.sim_events = sim.events();
  return report;
}

}  // namespace dynreg::harness
