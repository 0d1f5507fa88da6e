// One membership group — the unit the paper's register runs over — and the
// one place dynreg assembles it. A World owns its net::Network,
// consistency::History, churn::System and client::Client, the trace
// recorder that observes them when the run records, and its fault::Injector
// when the config arms a fault plan. An unsharded run is one world, a
// sharded run one world per shard inside the same Simulation, and the
// scripted experiments' cluster a world with no workload.
//
// Every world of a run draws its decisions through one RunStreams: live,
// recording into the run's trace, or replaying it. Replay consumes each
// stream through one positional cursor shared by all worlds, in execution
// order — exactly the order recording appended them in.
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
#include "net/network.h"
#include "replay/hooks.h"
#include "replay/recorder.h"
#include "replay/replayer.h"
#include "shard/keyspace.h"
#include "sim/simulation.h"

namespace dynreg::harness {

/// The decision streams one run's worlds share, realised from its RunHooks:
/// the replayer whose cursors every world consumes (replay), and the fault
/// DecisionSource every world's injector draws through. Must outlive the
/// worlds built over it.
class RunStreams {
 public:
  RunStreams(sim::Simulation& sim, const replay::RunHooks& hooks);

  RunStreams(const RunStreams&) = delete;
  RunStreams& operator=(const RunStreams&) = delete;

  /// The network delay model: `live`, wrapped to record each verdict, or
  /// replaced by a view over the shared replay cursor.
  std::unique_ptr<net::DelayModel> delays(std::unique_ptr<net::DelayModel> live);

  /// Shard `shard`'s churn model: `live` (stamping whether it drives a churn
  /// loop into the recorded trace), or the replay of that shard's records.
  std::unique_ptr<churn::ChurnModel> churn(std::unique_ptr<churn::ChurnModel> live,
                                           std::uint32_t shard);

  /// Shard `shard`'s recorder of churn actions and target picks; null
  /// unless recording.
  std::unique_ptr<replay::TraceRecorder> recorder(std::uint32_t shard);

  /// The shared target chooser; null unless replaying.
  client::TargetChooser* chooser();

  /// The fault decision source, built on first use: the run's Rng, a
  /// recording wrapper around it, or the trace's fault stream.
  fault::DecisionSource& fault_decisions();

 private:
  sim::Simulation& sim_;
  replay::RunHooks hooks_;
  std::unique_ptr<replay::TraceReplayer> replayer_;
  std::unique_ptr<fault::DecisionSource> fault_decisions_;
};

class World {
 public:
  /// Assembles one group of `sys.initial_size` processes over `delays` and
  /// `churn` (both replaced on replay), records or replays through
  /// `streams`, tagging its churn records `shard`. The client re-issues no
  /// attempt at or after `horizon`. Nothing runs until system.bootstrap().
  World(sim::Simulation& sim, std::unique_ptr<net::DelayModel> delays,
        const churn::SystemConfig& sys, std::unique_ptr<churn::ChurnModel> churn,
        churn::System::NodeFactory factory, sim::Time horizon, RunStreams& streams,
        std::uint32_t shard);

  /// The world `cfg` describes for one group of `size` processes whose
  /// designated `writers` are exempt from churn and from injected crashes.
  World(sim::Simulation& sim, const ExperimentConfig& cfg, std::size_t size,
        const std::vector<sim::ProcessId>& writers, RunStreams& streams,
        std::uint32_t shard);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// This world's serving stack, as the shard directory and harvest see it;
  /// its writer is process 0.
  [[nodiscard]] shard::ShardRef ref();

 private:
  std::unique_ptr<replay::TraceRecorder> recorder_;

 public:
  const std::size_t n;
  net::Network net;
  consistency::History history;
  churn::System system;
  client::Client client;
  /// Set when the config arms a fault plan; start() it after bootstrap.
  std::unique_ptr<fault::Injector> injector;
};

/// The report of one run over its membership groups, in group order: one
/// group when unsharded, one per shard otherwise. `injectors` holds each
/// group's fault injector, null (or absent) where none is armed; the fault
/// counters sum over the armed groups. The per-shard fields are filled only when
/// cfg.shard_count > 0. trace_hash and the simulation's counters (sim_events,
/// arena_bytes_reserved, pool_blocks_peak, queue_peak, arena_allocations)
/// are the caller's.
MetricsReport harvest(const ExperimentConfig& cfg, const shard::ShardMap& groups,
                      const std::vector<const fault::Injector*>& injectors = {});

}  // namespace dynreg::harness
