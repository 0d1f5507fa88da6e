#include "harness/experiment.h"

#include <cmath>
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
  if (n == 0) {
    throw std::invalid_argument("n 0: a system without processes issues no operations");
  }
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
  if (delta == 0) {
    throw std::invalid_argument(
        "delta 0: the delay models would run it as 1 while protocol timers use 0");
  }
  if (timing == Timing::kEventuallySynchronous && pre_gst_max < delta) {
    throw std::invalid_argument("pre-GST max delay " + std::to_string(pre_gst_max) +
                                " is below delta=" + std::to_string(delta) +
                                "; pre-GST delays must be able to reach delta");
  }
  if ((protocol == Protocol::kSync || protocol == Protocol::kSyncNoWait) && sync_delta_pp &&
      (*sync_delta_pp == 0 || *sync_delta_pp > delta)) {
    throw std::invalid_argument("sync delta' " + std::to_string(*sync_delta_pp) +
                                " is outside [1, delta=" + std::to_string(delta) +
                                "]; a reply bound must be a positive delay within delta");
  }
  if (duration == 0) {
    throw std::invalid_argument("duration 0 would end the run before it starts");
  }
  probability("loss rate", loss_rate);
  rate("churn rate", churn_rate);
  if (fault.tick == 0) {
    throw std::invalid_argument(
        "fault tick 0 would reschedule the injector at the same tick forever");
  }
  rate("crash rate", fault.crash.rate);
  probability("crash recover fraction", fault.crash.recover_fraction);
  rate("partition rate", fault.partition.rate);
  if (fault.partition.rate > 0.0 && fault.partition.duration == 0) {
    throw std::invalid_argument(
        "partition duration 0 would heal each partition at the tick it forms");
  }
  probability("partition fraction", fault.partition.fraction);
  probability("byzantine fraction", fault.byzantine.fraction);
  probability("byzantine transform rate", fault.byzantine.transform_rate);
  // Unsharded runs drive the workload engines; a zero interval would
  // reschedule their tick at the same instant forever.
  if (shard_count == 0) {
    if (workload.kind != workload::Kind::kClosedLoop && workload.read_interval == 0) {
      throw std::invalid_argument(
          "read interval 0 would reschedule the read tick at the same instant forever");
    }
    if (workload.writes_enabled && workload.write_interval == 0) {
      throw std::invalid_argument(
          "write interval 0 would reschedule the write tick at the same instant forever");
    }
    if (workload.writes_enabled && workload.writer_mode == workload::WriterMode::kConcurrent &&
        (workload.concurrent_writers == 0 || workload.concurrent_writers > n)) {
      throw std::invalid_argument("concurrent writers " +
                                  std::to_string(workload.concurrent_writers) +
                                  " is outside [1, n=" + std::to_string(n) +
                                  "]; the writers are processes 0..k-1");
    }
  }
  probability("read fraction", workload.read_frac);
  // Only the keyed engine of sharded runs draws zipfian keys. A NaN exponent
  // makes every CDF entry but the last NaN, which would run as "always the
  // coldest key".
  if (shard_count > 0 && !std::isfinite(workload.zipf_s)) {
    throw std::invalid_argument("zipf exponent " + std::to_string(workload.zipf_s) +
                                " is not finite; it defines no key distribution");
  }
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
  report.arena_bytes_reserved = sim.arena_bytes_reserved();
  report.pool_blocks_peak = sim.pool_blocks_peak();
  report.queue_peak = sim.queue_peak();
  report.arena_allocations = sim.arena_allocations();
  return report;
}

}  // namespace dynreg::harness
