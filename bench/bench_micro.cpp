// M1 — substrate microbenchmarks (google-benchmark): event-queue
// throughput, network dispatch, consistency checking, full experiment
// runs (E4's and E16's replicas among them) as end-to-end figures of
// merit, and the build of a 1e5-process group.
//
// This binary measures wall-clock performance, not paper claims, so it
// lives outside the ExperimentRegistry / dynreg_exp CLI (its driver is
// google-benchmark's own main). See docs/EXPERIMENTS.md for the mapping of
// the registered experiments to the paper.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "churn/churn_model.h"
#include "churn/system.h"
#include "consistency/regularity_checker.h"
#include "harness/builders.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "net/network.h"
#include "net/receiver.h"
#include "node/context.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"

namespace {

using namespace dynreg;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < batch; ++i) {
      q.push(static_cast<sim::Time>(i * 7 % 1000), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);

// Random times spread far beyond the wheel window, so pushes constantly land
// in the far (heap) tier — the queue's worst case, kept honest here.
void BM_EventQueuePushPopFarSpread(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;  // cheap deterministic scramble
    for (std::size_t i = 0; i < batch; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      q.push(static_cast<sim::Time>(x % (64 * sim::EventQueue::kWindow)), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueuePushPopFarSpread)->Arg(10000);

// Interned once, so the benchmark measures dispatch, not the registry.
net::PayloadTypeId noop_type() {
  static const net::PayloadTypeId id = net::PayloadTypeRegistry::intern("noop");
  return id;
}

struct NoopPayload final : net::Payload {
  NoopPayload() : net::Payload(noop_type()) {}
};

// A stand-in for a protocol node: a separately allocated object the size of
// an EsRegisterNode whose handler reads and writes two of its cache lines,
// as a node checks its state and answers. Ids are attached in an order
// scrambled against allocation (and so address) order, the way a large
// run's nodes sit in the heap, so a broadcast's deliveries reach receivers
// the hardware cannot predict and each can miss the cache.
class NodeSizedReceiver final : public net::Receiver {
 public:
  void on_message(sim::ProcessId from, const net::Payload& payload) override {
    ++state_[0];
    state_[kWordsPerLine] += from + payload.type_id();
  }

 private:
  static constexpr std::size_t kWordsPerLine = 8;
  std::array<std::uint64_t, 39> state_{};  // with the vtable pointer: 320 bytes
};

// `n` separately allocated receivers, in an order scrambled against their
// allocation order: Fisher-Yates with a fixed xorshift stream, the same
// scramble every run.
template <typename R>
std::vector<std::unique_ptr<R>> scrambled_receivers(std::size_t n) {
  std::vector<std::unique_ptr<R>> receivers(n);
  for (auto& r : receivers) r = std::make_unique<R>();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = n; i > 1; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(receivers[i - 1], receivers[x % i]);
  }
  return receivers;
}

void BM_NetworkBroadcast(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto receivers = scrambled_receivers<NodeSizedReceiver>(n);
  for (auto _ : state) {
    sim::Simulation sim(1);
    net::Network network(sim, std::make_unique<net::FixedDelay>(1));
    for (std::size_t i = 0; i < n; ++i) {
      network.attach(static_cast<sim::ProcessId>(i), receivers[i].get());
    }
    for (int b = 0; b < 10; ++b) network.broadcast(0, net::make_payload<NoopPayload>());
    sim.run();
    benchmark::DoNotOptimize(network.stats().delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 10);
}
BENCHMARK(BM_NetworkBroadcast)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

// A reply naming its sender: no two repliers send equal payloads.
struct EchoPayload final : net::Payload {
  explicit EchoPayload(sim::ProcessId s) : net::Payload(noop_type()), sender(s) {}
  sim::ProcessId sender;
  friend bool operator==(const EchoPayload& a, const EchoPayload& b) {
    return a.sender == b.sender;
  }
};

// Sized and touched like NodeSizedReceiver, and answers as a quorum member
// does: each delivered copy gets one point-to-point reply to its sender,
// built through the group's payload memo as a protocol node's reply is.
// Every reply differs from the one before it, so every one misses the memo
// and opens a spill run of its own: the worst case for both. Process 0, the
// origin, does not reply.
class ReplyingReceiver final : public net::Receiver {
 public:
  void bind(net::Network* network, node::Context* ctx, sim::ProcessId id) {
    network_ = network;
    ctx_ = ctx;
    id_ = id;
  }
  void on_message(sim::ProcessId from, const net::Payload& payload) override {
    ++state_[0];
    state_[kWordsPerLine] += from + payload.type_id();
    if (id_ != 0) network_->send(id_, from, ctx_->shared_payload<EchoPayload>(id_));
  }

 private:
  static constexpr std::size_t kWordsPerLine = 8;
  net::Network* network_ = nullptr;
  node::Context* ctx_ = nullptr;
  sim::ProcessId id_ = 0;
  std::array<std::uint64_t, 36> state_{};  // with the vtable pointer: 320 bytes
};

// The fan-in half of a quorum round: every receiver of a batched broadcast
// from process 0 replies to it, so n - 1 copies converge on one destination
// at one tick. Items are broadcast copies, each with its reply.
void BM_NetworkFanIn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto receivers = scrambled_receivers<ReplyingReceiver>(n);
  for (auto _ : state) {
    sim::Simulation sim(1);
    net::Network network(sim, std::make_unique<net::FixedDelay>(1));
    node::Context ctx(sim, network, {});
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<sim::ProcessId>(i);
      receivers[i]->bind(&network, &ctx, id);
      network.attach(id, receivers[i].get());
    }
    for (int b = 0; b < 10; ++b) network.broadcast(0, net::make_payload<NoopPayload>());
    sim.run();
    benchmark::DoNotOptimize(network.stats().delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 10);
}
BENCHMARK(BM_NetworkFanIn)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RegularityChecker(benchmark::State& state) {
  const auto reads = static_cast<std::size_t>(state.range(0));
  consistency::History history(0);
  sim::Time t = 0;
  for (std::size_t w = 1; w <= 50; ++w) {
    const auto id = history.begin_write(0, t, static_cast<Value>(w));
    history.complete_write(id, t + 5);
    t += 10;
  }
  for (std::size_t i = 0; i < reads; ++i) {
    const sim::Time at = (i * 9) % t;
    const auto id = history.begin_read(1, at);
    // Return the latest value completed before `at` (valid history).
    const auto wi = at / 10;
    history.complete_read(id, at, wi == 0 ? 0 : static_cast<Value>(wi));
  }
  for (auto _ : state) {
    const auto report = consistency::RegularityChecker{}.check(history);
    benchmark::DoNotOptimize(report.reads_checked);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(reads));
}
BENCHMARK(BM_RegularityChecker)->Arg(1000)->Arg(10000);

void BM_FullSyncExperiment(benchmark::State& state) {
  for (auto _ : state) {
    harness::ExperimentConfig cfg;
    cfg.protocol = harness::Protocol::kSync;
    cfg.n = 20;
    cfg.delta = 5;
    cfg.duration = 1000;
    cfg.churn_rate = 0.01;
    cfg.workload.read_interval = 5;
    cfg.workload.write_interval = 40;
    const auto r = harness::run_experiment(cfg);
    benchmark::DoNotOptimize(r.reads_completed);
  }
}
BENCHMARK(BM_FullSyncExperiment)->Unit(benchmark::kMillisecond);

// One replica of the registered es_churn_sweep experiment (E4) at the
// paper's churn constraint — the end-to-end unit the seed-parallel sweep
// engine multiplies across seeds and grid points.
void BM_EsChurnSweepReplica(benchmark::State& state) {
  for (auto _ : state) {
    harness::ExperimentConfig cfg;
    cfg.protocol = harness::Protocol::kEventuallySync;
    cfg.timing = harness::Timing::kEventuallySynchronous;
    cfg.gst = 0;
    cfg.n = 21;
    cfg.delta = 5;
    cfg.duration = 5000;
    cfg.workload.read_interval = 10;
    cfg.workload.write_interval = 60;
    cfg.churn_rate = cfg.es_churn_threshold();
    const auto r = harness::run_experiment(cfg);
    benchmark::DoNotOptimize(r.reads_completed);
  }
}
BENCHMARK(BM_EsChurnSweepReplica)->Unit(benchmark::kMillisecond);

void BM_FullEsExperiment(benchmark::State& state) {
  for (auto _ : state) {
    harness::ExperimentConfig cfg;
    cfg.protocol = harness::Protocol::kEventuallySync;
    cfg.timing = harness::Timing::kEventuallySynchronous;
    cfg.gst = 0;
    cfg.n = 15;
    cfg.delta = 5;
    cfg.duration = 1000;
    cfg.churn_rate = cfg.es_churn_threshold();
    cfg.workload.read_interval = 10;
    cfg.workload.write_interval = 60;
    const auto r = harness::run_experiment(cfg);
    benchmark::DoNotOptimize(r.reads_completed);
  }
}
BENCHMARK(BM_FullEsExperiment)->Unit(benchmark::kMillisecond);

// One replica of E16's (scaling_churn) largest default cell: n = 1e3 sync
// processes under churn at 0.9 of Theorem 1's bound over the 150-tick
// horizon. Every join's INQUIRY draws a reply from each active member, so
// the cell is the O(c * n^2) sync.reply fan-in that E16 scales.
void BM_ScalingChurnReplica(benchmark::State& state) {
  for (auto _ : state) {
    harness::ExperimentConfig cfg;
    cfg.protocol = harness::Protocol::kSync;
    cfg.seed = harness::replica_seed(23, 0);  // E16's first replica
    cfg.n = 1000;
    cfg.delta = 3;
    cfg.duration = 150;
    cfg.churn_kind = harness::ChurnKind::kConstant;
    cfg.churn_rate = 0.9 * cfg.sync_churn_threshold();
    cfg.workload.read_interval = 20;
    cfg.workload.write_interval = 60;
    const auto r = harness::run_experiment(cfg);
    benchmark::DoNotOptimize(r.joins_completed);
  }
}
BENCHMARK(BM_ScalingChurnReplica)->Unit(benchmark::kMillisecond);

// Builds, bootstraps and destroys one ES membership group of n processes,
// the group of E15's largest scale cell (--max-n=100000): the set-up every
// 1e5-process world pays before its first event. Items are processes.
void BM_BuildEsWorld(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kEventuallySync;
  cfg.timing = harness::Timing::kEventuallySynchronous;
  cfg.n = n;
  cfg.dissemination = harness::Dissemination::kTree;
  cfg.tree_fanout = 4;
  for (auto _ : state) {
    sim::Simulation sim(1);
    net::Network net(sim, harness::build_delays(cfg));
    churn::SystemConfig sys;
    sys.initial_size = n;
    churn::System system(sim, net, sys, std::make_unique<churn::NoChurn>(),
                         harness::build_node_factory(cfg, n));
    system.bootstrap();
    benchmark::DoNotOptimize(system.active_count());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BuildEsWorld)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
