#include "world.h"

#include <algorithm>
#include <utility>

#include "churn/churn_model.h"
#include "harness/aggregate.h"
#include "harness/builders.h"
#include "net/delay_model.h"
#include "net/disseminator.h"

namespace perfbench {

namespace harness = dynreg::harness;

namespace {

/// The config's node factory, wrapped to count and time each construction
/// when `builds` is given.
dynreg::churn::System::NodeFactory node_factory(const harness::ExperimentConfig& cfg,
                                                std::size_t n, NodeBuilds* builds) {
  dynreg::churn::System::NodeFactory inner = harness::build_node_factory(cfg, n);
  if (builds == nullptr) return inner;
  return [inner = std::move(inner), builds](dynreg::sim::ProcessId id,
                                            dynreg::node::Context& ctx, bool initial) {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<dynreg::node::Node> node = inner(id, ctx, initial);
    builds->seconds += seconds_since(t0);
    ++builds->count;
    return node;
  };
}

/// Nearest-rank percentiles of `samples`, as run_experiment reports them.
void latency_percentiles(std::vector<double> samples, double& p50, double& p99) {
  if (samples.empty()) return;
  std::sort(samples.begin(), samples.end());
  p50 = harness::percentile(samples, 0.50);
  p99 = harness::percentile(samples, 0.99);
}

}  // namespace

World::World(const harness::ExperimentConfig& cfg, NodeBuilds* builds,
             const dynreg::replay::Trace* replay)
    : cfg_(cfg), sim_(cfg.seed) {
  const bool sharded = cfg.shard_count > 0;
  // Non-owning, as in run_experiment: the caller keeps *replay alive.
  const std::shared_ptr<const dynreg::replay::Trace> trace(
      std::shared_ptr<const dynreg::replay::Trace>(), replay);
  if (replay != nullptr && !sharded) {
    replayer_ = std::make_unique<dynreg::replay::TraceReplayer>(trace);
  }
  const std::size_t count = sharded ? cfg.shard_count : 1;
  // As in shard::run_sharded: a reads-only keyed workload pins nobody.
  const bool keyed_writes = cfg.workload.read_frac < 1.0;

  groups_.resize(count);
  for (std::size_t s = 0; s < count; ++s) {
    Group& g = groups_[s];
    g.n = sharded ? cfg.n / count + (s < cfg.n % count ? 1 : 0) : cfg.n;
    g.net = std::make_unique<dynreg::net::Network>(
        sim_, replayer_ ? replayer_->make_delay_model() : harness::build_delays(cfg));
    g.net->set_loss_rate(cfg.loss_rate);
    if (cfg.dissemination == harness::Dissemination::kTree) {
      g.net->set_disseminator(
          std::make_unique<dynreg::net::TreeDisseminator>(cfg.tree_fanout));
    }
    g.history = std::make_unique<dynreg::consistency::History>(harness::kInitialValue);

    dynreg::churn::SystemConfig sys;
    sys.initial_size = g.n;
    sys.leave_policy = cfg.leave_policy;
    if (!sharded) {
      sys.exempt = harness::designated_writers(cfg);
    } else if (keyed_writes) {
      sys.exempt = {0};
    }
    sys.chronicle = {cfg.chronicle_aggregate, 3 * cfg.delta, cfg.duration};

    std::unique_ptr<dynreg::churn::ChurnModel> churn;
    if (replayer_) {
      churn = replayer_->make_churn_model();
    } else if (cfg.churn_kind == harness::ChurnKind::kNone || cfg.churn_rate <= 0.0) {
      churn = std::make_unique<dynreg::churn::NoChurn>();
    } else {
      churn = std::make_unique<dynreg::churn::ConstantChurn>(cfg.churn_rate);
    }
    g.system = std::make_unique<dynreg::churn::System>(
        sim_, *g.net, sys, std::move(churn), node_factory(cfg, g.n, builds));
    g.client = std::make_unique<dynreg::client::Client>(sim_, *g.system, *g.history,
                                                        cfg.duration);
  }

  if (sharded) {
    map_ = std::make_unique<dynreg::shard::ShardMap>(count);
    for (std::size_t s = 0; s < count; ++s) {
      Group& g = groups_[s];
      map_->shard(static_cast<dynreg::shard::ShardId>(s)) =
          dynreg::shard::ShardRef{g.system.get(), g.client.get(), g.history.get(),
                                  g.net.get(), /*writer=*/0, g.n};
    }
    router_ = std::make_unique<dynreg::shard::ShardedClient>(*map_);
    keyed_ = std::make_unique<dynreg::shard::KeyedGenerator>(
        dynreg::shard::KeyedGenerator::Env{sim_, *router_, cfg.workload, cfg.duration});
    return;
  }

  Group& g = groups_[0];
  if (replayer_) g.client->set_target_chooser(replayer_->target_chooser());
  generator_ = dynreg::workload::make_generator(
      dynreg::workload::Env{sim_, *g.system, *g.client, cfg.workload, cfg.duration,
                            harness::designated_writers(cfg)});
  if (cfg.fault.enabled()) {
    if (replayer_) {
      fault_decisions_ = std::make_unique<dynreg::fault::ReplayDecisionSource>(trace);
    } else {
      fault_decisions_ = std::make_unique<dynreg::fault::LiveDecisionSource>(sim_.rng());
    }
    injector_ = std::make_unique<dynreg::fault::Injector>(
        sim_, *g.system, *g.net, cfg.fault, *fault_decisions_,
        harness::designated_writers(cfg));
  }
}

void World::bootstrap() {
  for (Group& g : groups_) g.system->bootstrap();
}

void World::start() {
  if (injector_) injector_->start();
  if (generator_) generator_->start();
  if (keyed_) keyed_->start();
}

harness::MetricsReport World::harvest(Tracer& tracer) {
  harness::MetricsReport report;
  if (router_) {
    Scope span(tracer, "shard.harvest");
    router_->harvest(cfg_, report);
    return report;
  }

  // harness::run_experiment's single-register harvest, for the fields the
  // benchmark compares.
  Group& g = groups_[0];
  const dynreg::client::OpStats& ops = g.client->stats();
  report.reads_issued = ops.reads_issued;
  report.reads_completed = ops.reads_completed;
  report.reads_of_bottom = ops.reads_of_bottom;
  report.writes_issued = ops.writes_issued;
  report.writes_completed = ops.writes_completed;
  report.reads_dropped = ops.reads_dropped;
  report.writes_dropped = ops.writes_dropped;
  report.reads_timed_out = ops.reads_timed_out;
  report.writes_timed_out = ops.writes_timed_out;
  report.op_retries = ops.retries;

  report.joins_started = g.system->joins_started();
  report.joins_completed = g.system->joins_completed();
  report.joins_abandoned = g.system->joins_abandoned();
  report.join_latency_mean =
      g.system->joins_completed() == 0
          ? 0.0
          : static_cast<double>(g.system->join_latency_total()) /
                static_cast<double>(g.system->joins_completed());

  latency_percentiles(ops.read_latencies, report.read_latency_p50,
                      report.read_latency_p99);
  latency_percentiles(ops.write_latencies, report.write_latency_p50,
                      report.write_latency_p99);

  if (injector_) {
    const dynreg::fault::Injector::Stats& fs = injector_->stats();
    report.faults_crashes = fs.crashes;
    report.faults_recoveries = fs.recoveries;
    report.faults_partitions = fs.partitions;
    report.faults_heals = fs.heals;
    report.msgs_dropped_partition = g.net->stats().dropped_partition;
  }
  report.msgs_by_type = g.net->delivered_by_type();

  Scope span(tracer, "consistency.check");
  report.regularity = dynreg::consistency::RegularityChecker{}.check(*g.history);
  report.atomicity = dynreg::consistency::AtomicityChecker{}.check(*g.history);
  return report;
}

}  // namespace perfbench
