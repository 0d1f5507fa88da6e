#include "harness/world.h"

#include <algorithm>
#include <utility>

#include "churn/churn_model.h"
#include "dynreg/abd_register.h"
#include "dynreg/es_register.h"
#include "dynreg/sync_register.h"
#include "harness/aggregate.h"
#include "harness/builders.h"
#include "net/delay_model.h"
#include "net/disseminator.h"

namespace dynreg::harness {

std::unique_ptr<net::DelayModel> build_delays(const ExperimentConfig& cfg) {
  if (cfg.timing == Timing::kEventuallySynchronous) {
    return std::make_unique<net::EventuallySynchronousDelay>(cfg.gst, cfg.pre_gst_max,
                                                             cfg.delta);
  }
  return std::make_unique<net::SynchronousDelay>(cfg.delta);
}

churn::System::NodeFactory build_node_factory(const ExperimentConfig& cfg,
                                              std::size_t n) {
  switch (cfg.protocol) {
    case Protocol::kSync:
    case Protocol::kSyncNoWait: {
      SyncConfig sc;
      sc.delta = cfg.delta;
      sc.wait_before_inquiry = cfg.protocol != Protocol::kSyncNoWait;
      sc.delta_pp = cfg.sync_delta_pp;
      sc.refresh_interval = cfg.sync_refresh_interval;
      return group_factory<SyncRegisterNode>(sc);
    }
    case Protocol::kEventuallySync: {
      EsConfig ec;
      ec.n = n;
      // Retransmit cadence scales with the dissemination depth: a flat
      // broadcast completes a round trip within ~2*delta, but over a fanout
      // tree a copy crosses ceil(log_f(n)) hops each way, so the fixed
      // 2*delta timer fired several extra rebroadcast rounds while the
      // deeper quorum was still forming (the E15 message-count gap —
      // docs/PERFORMANCE.md). Flat keeps the historical value byte-for-byte
      // (depth 1 => (1+1)*delta == 2*delta).
      std::size_t depth = 1;
      if (cfg.dissemination == Dissemination::kTree && n > 1) {
        const std::size_t fanout = std::max<std::size_t>(1, cfg.tree_fanout);
        std::size_t reach = 1;  // processes within `depth` hops of the root
        std::size_t level = 1;
        while (reach < n) {
          level = fanout == 1 ? 1 : level * fanout;
          reach += level;
          if (reach < n) ++depth;
        }
      }
      ec.retransmit_interval =
          std::max<sim::Duration>(1, static_cast<sim::Duration>(depth + 1) * cfg.delta);
      ec.atomic_reads = cfg.es_atomic_reads;
      ec.retransmit_backoff = cfg.es_retransmit_backoff;
      ec.validate_replies = cfg.es_validate_replies;
      return group_factory<EsRegisterNode>(ec);
    }
    case Protocol::kAbd: {
      AbdConfig ac;
      ac.n = n;
      return group_factory<AbdRegisterNode>(ac);
    }
  }
  return nullptr;
}

std::vector<sim::ProcessId> designated_writers(const ExperimentConfig& cfg) {
  std::vector<sim::ProcessId> writers;
  if (!cfg.workload.writes_enabled) return writers;
  // validate() keeps concurrent_writers within [1, n].
  const std::size_t k = cfg.workload.writer_mode == workload::WriterMode::kConcurrent
                            ? cfg.workload.concurrent_writers
                            : 1;
  for (std::size_t w = 0; w < k; ++w) {
    writers.push_back(static_cast<sim::ProcessId>(w));
  }
  return writers;
}

namespace {

churn::SystemConfig system_config(const ExperimentConfig& cfg, std::size_t n,
                                  const std::vector<sim::ProcessId>& writers) {
  churn::SystemConfig sys;
  sys.initial_size = n;
  sys.leave_policy = cfg.leave_policy;
  sys.exempt = writers;
  return sys;
}

std::unique_ptr<churn::ChurnModel> live_churn(const ExperimentConfig& cfg) {
  if (cfg.churn_kind == ChurnKind::kNone || cfg.churn_rate <= 0.0) {
    return std::make_unique<churn::NoChurn>();
  }
  return std::make_unique<churn::ConstantChurn>(cfg.churn_rate);
}

/// The replay side never owns the trace: the caller keeps *hooks.replay
/// alive for the whole run, so the shared_ptr aliases it without ownership.
std::shared_ptr<const replay::Trace> borrowed(const replay::Trace* trace) {
  return std::shared_ptr<const replay::Trace>(std::shared_ptr<const replay::Trace>(),
                                              trace);
}

}  // namespace

RunStreams::RunStreams(sim::Simulation& sim, const replay::RunHooks& hooks)
    : sim_(sim), hooks_(hooks) {
  if (hooks_.replay != nullptr) {
    replayer_ = std::make_unique<replay::TraceReplayer>(borrowed(hooks_.replay));
  }
}

std::unique_ptr<net::DelayModel> RunStreams::delays(
    std::unique_ptr<net::DelayModel> live) {
  if (replayer_) return replayer_->make_delay_model_view();
  if (hooks_.record != nullptr) {
    return std::make_unique<replay::RecordingDelayModel>(std::move(live), *hooks_.record);
  }
  return live;
}

std::unique_ptr<churn::ChurnModel> RunStreams::churn(
    std::unique_ptr<churn::ChurnModel> live, std::uint32_t shard) {
  if (replayer_) return replayer_->make_churn_model(shard);
  if (hooks_.record != nullptr) hooks_.record->churn_loop = live->rate() > 0.0;
  return live;
}

std::unique_ptr<replay::TraceRecorder> RunStreams::recorder(std::uint32_t shard) {
  if (hooks_.record == nullptr) return nullptr;
  return std::make_unique<replay::TraceRecorder>(*hooks_.record, shard);
}

client::TargetChooser* RunStreams::chooser() {
  return replayer_ ? replayer_->target_chooser() : nullptr;
}

fault::DecisionSource& RunStreams::fault_decisions() {
  // During replay nothing here touches the Rng, like every other replayed
  // component; recording captures each word into the trace's fault stream.
  if (!fault_decisions_) {
    if (hooks_.replay != nullptr) {
      fault_decisions_ =
          std::make_unique<fault::ReplayDecisionSource>(borrowed(hooks_.replay));
    } else {
      fault_decisions_ = std::make_unique<fault::LiveDecisionSource>(sim_.rng());
      if (hooks_.record != nullptr) {
        fault_decisions_ = std::make_unique<fault::RecordingDecisionSource>(
            std::move(fault_decisions_), *hooks_.record);
      }
    }
  }
  return *fault_decisions_;
}

World::World(sim::Simulation& sim, std::unique_ptr<net::DelayModel> delays,
             const churn::SystemConfig& sys, std::unique_ptr<churn::ChurnModel> churn,
             churn::System::NodeFactory factory, sim::Time horizon,
             RunStreams& streams, std::uint32_t shard)
    : recorder_(streams.recorder(shard)),
      n(sys.initial_size),
      net(sim, streams.delays(std::move(delays))),
      history(kInitialValue),
      system(sim, net, sys, streams.churn(std::move(churn), shard), std::move(factory)),
      client(sim, system, history, horizon) {
  if (recorder_) {
    system.set_churn_observer(recorder_.get());
    client.set_target_observer(recorder_.get());
  }
  if (client::TargetChooser* chooser = streams.chooser()) {
    client.set_target_chooser(chooser);
  }
}

World::World(sim::Simulation& sim, const ExperimentConfig& cfg, std::size_t size,
             const std::vector<sim::ProcessId>& writers, RunStreams& streams,
             std::uint32_t shard)
    : World(sim, build_delays(cfg), system_config(cfg, size, writers), live_churn(cfg),
            build_node_factory(cfg, size), cfg.duration, streams, shard) {
  net.set_loss_rate(cfg.loss_rate);
  if (cfg.dissemination == Dissemination::kTree) {
    // kFlat keeps the network's default FlatDisseminator.
    net.set_disseminator(std::make_unique<net::TreeDisseminator>(cfg.tree_fanout));
  }
  if (cfg.fault.enabled()) {
    injector = std::make_unique<fault::Injector>(sim, system, net, cfg.fault,
                                                 streams.fault_decisions(), writers);
  }
}

shard::ShardRef World::ref() {
  return shard::ShardRef{&system, &client, &history, &net, /*writer=*/0, n};
}

MetricsReport harvest(const ExperimentConfig& cfg, const shard::ShardMap& groups,
                      const std::vector<const fault::Injector*>& injectors) {
  MetricsReport report;
  // Exact whole-tick histograms: the run's reads and writes, and the shard
  // at hand's reads and writes together. The samples stay where the
  // clients recorded them.
  TickHistogram reads;
  TickHistogram writes;
  TickHistogram shard_ops;
  std::uint64_t join_latency_total = 0;
  double min_active_3delta = static_cast<double>(cfg.n) + 1.0;

  for (shard::ShardId s = 0; s < groups.size(); ++s) {
    const shard::ShardRef& ref = groups.shard(s);
    const client::OpStats& ops = ref.client->stats();
    report.reads_issued += ops.reads_issued;
    report.reads_completed += ops.reads_completed;
    report.reads_of_bottom += ops.reads_of_bottom;
    report.writes_issued += ops.writes_issued;
    report.writes_completed += ops.writes_completed;
    report.reads_dropped += ops.reads_dropped;
    report.writes_dropped += ops.writes_dropped;
    report.reads_timed_out += ops.reads_timed_out;
    report.writes_timed_out += ops.writes_timed_out;
    report.op_retries += ops.retries;

    report.joins_started += ref.system->joins_started();
    report.joins_completed += ref.system->joins_completed();
    report.joins_abandoned += ref.system->joins_abandoned();
    join_latency_total += ref.system->join_latency_total();

    reads.add(ops.read_latencies);
    writes.add(ops.write_latencies);

    if (cfg.shard_count > 0) {
      ShardMetrics sm;
      sm.reads_completed = ops.reads_completed;
      sm.writes_completed = ops.writes_completed;
      sm.ops_completed = ops.reads_completed + ops.writes_completed;
      shard_ops.clear();
      shard_ops.add(ops.read_latencies);
      shard_ops.add(ops.write_latencies);
      if (shard_ops.count() > 0) {
        sm.latency_p50 = shard_ops.percentile(0.50);
        sm.latency_p99 = shard_ops.percentile(0.99);
      }
      report.shards.push_back(sm);
    }

    // Ground truth per group: the majority/Lemma-2 properties must hold in
    // every membership group, so the report ANDs / mins across groups.
    const churn::Chronicle& chron = ref.system->chronicle();
    report.majority_active_always =
        report.majority_active_always && chron.min_active_at(cfg.duration) * 2 > ref.n;
    min_active_3delta = std::min(
        min_active_3delta,
        static_cast<double>(chron.min_active_through_window(3 * cfg.delta, cfg.duration)));

    if (s < injectors.size() && injectors[s] != nullptr) {
      const fault::Injector::Stats& fs = injectors[s]->stats();
      report.faults_crashes += fs.crashes;
      report.faults_recoveries += fs.recoveries;
      report.faults_partitions += fs.partitions;
      report.faults_heals += fs.heals;
      report.msgs_dropped_partition += ref.net->stats().dropped_partition;
      report.msgs_transformed += ref.net->stats().transformed;
    }

    // Consistency is per group history (registers are independent); the
    // combined report sums the checked populations and appends violations.
    const consistency::RegularityReport reg =
        consistency::RegularityChecker{}.check(*ref.history);
    report.regularity.reads_checked += reg.reads_checked;
    report.regularity.concurrent_write_pairs += reg.concurrent_write_pairs;
    report.regularity.violations.insert(report.regularity.violations.end(),
                                        reg.violations.begin(), reg.violations.end());
    const consistency::InversionReport inv =
        consistency::AtomicityChecker{}.check(*ref.history);
    report.atomicity.reads_checked += inv.reads_checked;
    report.atomicity.inversion_count += inv.inversion_count;

    report.net_copies_sent += ref.net->stats().sent;
    report.net_copies_delivered += ref.net->stats().delivered;
    report.payloads_built += ref.system->payloads_built();
    report.client_op_records += ref.client->op_records();
    report.client_flights_peak += ref.client->flights_peak();
    report.history_records += ref.history->records();
    report.op_log_bytes += ref.client->flight_bytes() + ref.history->bytes_held();
    for (const auto& [type, count] : ref.net->delivered_by_type()) {
      report.msgs_by_type[type] += count;
    }
  }

  report.min_active_3delta = min_active_3delta;
  report.join_latency_mean =
      report.joins_completed == 0
          ? 0.0
          : static_cast<double>(join_latency_total) /
                static_cast<double>(report.joins_completed);

  if (reads.count() > 0) {
    report.read_latency_mean = reads.total() / static_cast<double>(reads.count());
    report.read_latency_p50 = reads.percentile(0.50);
    report.read_latency_p99 = reads.percentile(0.99);
  }
  if (writes.count() > 0) {
    // The mean divides by writes_completed (== sample count): the formula
    // the pre-client driver used, kept bit-for-bit.
    report.write_latency_mean = writes.total() / static_cast<double>(report.writes_completed);
    report.write_latency_p50 = writes.percentile(0.50);
    report.write_latency_p99 = writes.percentile(0.99);
  }

  if (cfg.shard_count == 0) return report;

  // Shard-level tail/skew summary over shards that completed anything.
  double hot = 0.0;
  double cold = 0.0;
  bool any = false;
  std::uint64_t total_ops = 0;
  std::uint64_t max_ops = 0;
  for (const ShardMetrics& sm : report.shards) {
    total_ops += sm.ops_completed;
    max_ops = std::max(max_ops, sm.ops_completed);
    if (sm.ops_completed == 0) continue;
    if (!any) {
      hot = cold = sm.latency_p99;
      any = true;
    } else {
      hot = std::max(hot, sm.latency_p99);
      cold = std::min(cold, sm.latency_p99);
    }
  }
  report.shard_hot_p99 = hot;
  report.shard_cold_p99 = cold;
  const double mean_ops =
      report.shards.empty()
          ? 0.0
          : static_cast<double>(total_ops) / static_cast<double>(report.shards.size());
  report.shard_skew = mean_ops == 0.0 ? 0.0 : static_cast<double>(max_ops) / mean_ops;
  report.ops_per_tick = cfg.duration == 0
                            ? 0.0
                            : static_cast<double>(total_ops) /
                                  static_cast<double>(cfg.duration);
  return report;
}

}  // namespace dynreg::harness
