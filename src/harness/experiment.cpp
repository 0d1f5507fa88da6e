#include "harness/experiment.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "client/client.h"
#include "consistency/history.h"
#include "harness/aggregate.h"
#include "dynreg/abd_register.h"
#include "dynreg/es_register.h"
#include "dynreg/register_node.h"
#include "dynreg/sync_register.h"
#include "fault/decision.h"
#include "fault/injector.h"
#include "harness/builders.h"
#include "harness/workload.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "replay/hooks.h"
#include "replay/recorder.h"
#include "replay/replayer.h"
#include "replay/session.h"
#include "replay/trace_io.h"
#include "shard/sharded_run.h"

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
      sc.initial_value = kInitialValue;
      return [sc](sim::ProcessId id, node::Context& ctx, bool initial) {
        return std::make_unique<SyncRegisterNode>(id, ctx, sc, initial);
      };
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
      ec.initial_value = kInitialValue;
      return [ec](sim::ProcessId id, node::Context& ctx, bool initial) {
        return std::make_unique<EsRegisterNode>(id, ctx, ec, initial);
      };
    }
    case Protocol::kAbd: {
      AbdConfig ac;
      ac.n = n;
      ac.initial_value = kInitialValue;
      return [ac](sim::ProcessId id, node::Context& ctx, bool initial) {
        return std::make_unique<AbdRegisterNode>(id, ctx, ac, initial);
      };
    }
  }
  return nullptr;
}

std::vector<sim::ProcessId> designated_writers(const ExperimentConfig& cfg) {
  std::vector<sim::ProcessId> writers;
  if (!cfg.workload.writes_enabled) return writers;
  const std::size_t k = cfg.workload.writer_mode == workload::WriterMode::kConcurrent
                            ? std::max<std::size_t>(1, cfg.workload.concurrent_writers)
                            : 1;
  for (std::size_t w = 0; w < k && w < cfg.n; ++w) {
    writers.push_back(static_cast<sim::ProcessId>(w));
  }
  return writers;
}

MetricsReport run_experiment(const ExperimentConfig& cfg) {
  replay::Session& session = replay::Session::instance();
  switch (session.mode()) {
    case replay::Session::Mode::kOff:
      return run_experiment(cfg, replay::RunHooks{});
    case replay::Session::Mode::kRecord: {
      replay::Trace trace;
      trace.fingerprint = replay::fingerprint(cfg);
      trace.seed = cfg.seed;
      replay::RunHooks hooks;
      hooks.record = &trace;
      MetricsReport report = run_experiment(cfg, hooks);
      trace.recorded_hash = report.trace_hash;
      session.commit(std::move(trace));
      return report;
    }
    case replay::Session::Mode::kReplay: {
      const std::shared_ptr<const replay::Trace> trace =
          session.find(replay::fingerprint(cfg), cfg.seed);
      replay::RunHooks hooks;
      hooks.replay = trace.get();
      MetricsReport report = run_experiment(cfg, hooks);
      // No comparison when either side ran without the auditor (hash 0).
      session.note_replay(trace->recorded_hash == 0 || report.trace_hash == 0 ||
                          report.trace_hash == trace->recorded_hash);
      return report;
    }
  }
  return run_experiment(cfg, replay::RunHooks{});  // unreachable
}

MetricsReport run_experiment(const ExperimentConfig& cfg, const replay::RunHooks& hooks) {
  // The sharded keyspace has its own pipeline (per-shard worlds, keyed
  // workload, shard-aware replay wiring); shard_count == 0 keeps this
  // function byte-identical to pre-shard builds.
  if (cfg.shard_count > 0) return shard::run_sharded(cfg, hooks);

  sim::Simulation sim(cfg.seed);

  // Replay components must outlive the run; the chooser in particular is
  // only referenced (non-owning) by the Client.
  std::unique_ptr<replay::TraceReplayer> replayer;
  if (hooks.replay != nullptr) {
    // Aliasing ctor: the session/caller guarantees *hooks.replay outlives
    // this call, so the shared_ptr carries no ownership.
    replayer = std::make_unique<replay::TraceReplayer>(
        std::shared_ptr<const replay::Trace>(std::shared_ptr<const replay::Trace>(),
                                             hooks.replay));
  }

  std::unique_ptr<net::DelayModel> delays =
      replayer ? replayer->make_delay_model() : build_delays(cfg);
  if (hooks.record != nullptr) {
    hooks.record->churn_loop =
        cfg.churn_kind == ChurnKind::kConstant && cfg.churn_rate > 0.0;
    delays = std::make_unique<replay::RecordingDelayModel>(std::move(delays),
                                                           *hooks.record);
  }

  net::Network net(sim, std::move(delays));
  net.set_loss_rate(cfg.loss_rate);
  if (cfg.dissemination == Dissemination::kTree) {
    // kFlat keeps the network's default FlatDisseminator.
    net.set_disseminator(std::make_unique<net::TreeDisseminator>(cfg.tree_fanout));
  }

  consistency::History history(kInitialValue);

  churn::SystemConfig sys_cfg;
  sys_cfg.initial_size = cfg.n;
  sys_cfg.leave_policy = cfg.leave_policy;
  sys_cfg.exempt = designated_writers(cfg);
  sys_cfg.chronicle = {cfg.chronicle_aggregate, 3 * cfg.delta, cfg.duration};

  std::unique_ptr<churn::ChurnModel> churn_model;
  if (replayer) {
    churn_model = replayer->make_churn_model();
  } else if (cfg.churn_kind == ChurnKind::kNone || cfg.churn_rate <= 0.0) {
    churn_model = std::make_unique<churn::NoChurn>();
  } else {
    churn_model = std::make_unique<churn::ConstantChurn>(cfg.churn_rate);
  }

  churn::System system(sim, net, sys_cfg, std::move(churn_model),
                       build_node_factory(cfg, cfg.n));
  client::Client client(sim, system, history, cfg.duration);

  std::optional<replay::TraceRecorder> recorder;
  if (hooks.record != nullptr) {
    recorder.emplace(*hooks.record);
    system.set_churn_observer(&*recorder);
    client.set_target_observer(&*recorder);
  }
  if (replayer) client.set_target_chooser(replayer->target_chooser());

  std::unique_ptr<workload::Generator> generator = workload::make_generator(
      workload::Env{sim, system, client, cfg.workload, cfg.duration,
                    designated_writers(cfg)});

  // The fault engine, when the config arms one. Decisions flow through the
  // source that matches the run mode: live draws from the run's Rng, a
  // recording wrapper that captures each word into the trace's fault stream
  // (format v3), or positional replay of a recorded stream — during replay
  // nothing here touches the Rng, like every other replayed component.
  std::unique_ptr<fault::DecisionSource> fault_decisions;
  std::unique_ptr<fault::Injector> injector;
  if (cfg.fault.enabled()) {
    if (hooks.replay != nullptr) {
      fault_decisions = std::make_unique<fault::ReplayDecisionSource>(
          std::shared_ptr<const replay::Trace>(std::shared_ptr<const replay::Trace>(),
                                               hooks.replay));
    } else {
      fault_decisions = std::make_unique<fault::LiveDecisionSource>(sim.rng());
      if (hooks.record != nullptr) {
        fault_decisions = std::make_unique<fault::RecordingDecisionSource>(
            std::move(fault_decisions), *hooks.record);
      }
    }
    injector = std::make_unique<fault::Injector>(sim, system, net, cfg.fault,
                                                 *fault_decisions,
                                                 designated_writers(cfg));
  }

  system.bootstrap();
  if (injector) injector->start();
  generator->start();
  sim.run_until(cfg.duration);

  MetricsReport report;
  const client::OpStats& ops = client.stats();
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

  report.joins_started = system.joins_started();
  report.joins_completed = system.joins_completed();
  report.joins_abandoned = system.joins_abandoned();
  report.join_latency_mean =
      system.joins_completed() == 0
          ? 0.0
          : static_cast<double>(system.join_latency_total()) /
                static_cast<double>(system.joins_completed());

  std::vector<double> read_lat = std::move(client.stats().read_latencies);
  if (!read_lat.empty()) {
    double total = 0.0;
    for (const double l : read_lat) total += l;
    report.read_latency_mean = total / static_cast<double>(read_lat.size());
    std::sort(read_lat.begin(), read_lat.end());
    report.read_latency_p50 = percentile(read_lat, 0.50);
    report.read_latency_p99 = percentile(read_lat, 0.99);
  }
  std::vector<double> write_lat = std::move(client.stats().write_latencies);
  if (!write_lat.empty()) {
    double total = 0.0;
    for (const double l : write_lat) total += l;
    // The mean divides by writes_completed (== sample count): the formula
    // the pre-client driver used, kept bit-for-bit.
    report.write_latency_mean = total / static_cast<double>(report.writes_completed);
    std::sort(write_lat.begin(), write_lat.end());
    report.write_latency_p50 = percentile(write_lat, 0.50);
    report.write_latency_p99 = percentile(write_lat, 0.99);
  }

  const auto& chron = system.chronicle();
  report.majority_active_always = chron.min_active_at(cfg.duration) * 2 > cfg.n;
  report.min_active_3delta = static_cast<double>(
      chron.min_active_through_window(3 * cfg.delta, cfg.duration));

  if (injector) {
    const fault::Injector::Stats& fs = injector->stats();
    report.faults_crashes = fs.crashes;
    report.faults_recoveries = fs.recoveries;
    report.faults_partitions = fs.partitions;
    report.faults_heals = fs.heals;
    report.msgs_dropped_partition = net.stats().dropped_partition;
    report.msgs_transformed = net.stats().transformed;
  }

  report.msgs_by_type = net.delivered_by_type();
  report.regularity = consistency::RegularityChecker{}.check(history);
  report.atomicity = consistency::AtomicityChecker{}.check(history);
  report.trace_hash = sim.trace_hash();
  return report;
}

}  // namespace dynreg::harness
