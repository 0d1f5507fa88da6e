// The pluggable workload engine: how an experiment generates read/write
// traffic against the deployed register. Every generator issues operations
// through the client layer (client::Client), which owns history recording,
// latency capture, and outcome accounting — generators only decide *when*
// and *from where* operations are issued.
//
// One Generator runs all three kinds of read traffic:
//   kOpenLoop    the classic driver: a read from a uniformly random active
//                process every read_interval, independent of completions.
//                Byte-identical to the pre-client workload driver for the
//                default configuration (the determinism gate pins this).
//   kClosedLoop  `clients` sessions (SessionLoop): each issues one read at a
//                time against a random active process, waits for it to
//                resolve, thinks for think_time, repeats. Session ops
//                serialize per target process, so latency grows with client
//                count.
//   kBursty      the open-loop read tick gated by an on/off phase square
//                wave (burst_on ticks of traffic, burst_off ticks of silence).
//
// All three keep the paper's designated-writer stream (writers are pinned
// processes inside the system, not clients): writes are issued open-loop
// every write_interval, writers kept (mostly) sequential.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "client/client.h"
#include "harness/workload_config.h"
#include "sim/simulation.h"

namespace dynreg::workload {

/// Everything a generator drives: the run's simulation, system, and client,
/// plus the traffic description and run horizon. References must outlive
/// the generator.
struct Env {
  sim::Simulation& sim;
  churn::System& system;
  client::Client& client;
  Config config;
  sim::Time horizon = 0;
  /// Designated writers (pinned). Empty when writes are disabled.
  std::vector<sim::ProcessId> writers;
};

/// The per-op client policy (deadline + retry) `config` describes, for the
/// unsharded engines and the keyed one alike. Default config fields build a
/// default OpOptions — byte-identical to the historical no-options issue
/// path.
[[nodiscard]] client::OpOptions op_options(const Config& config);

/// The closed loop every session runs, shared by the unsharded closed-loop
/// engine and the keyed one (shard/keyed_workload.h). Each session issues
/// one operation through `step`, waits for it to resolve (any outcome),
/// thinks max(1, think_time) ticks and repeats; a step that issues nothing
/// backs off one think interval instead. No wake-up is queued at or past
/// the horizon. The pause is at least one tick because instantaneous reads
/// (the sync protocol) would otherwise re-issue at the same timestamp
/// forever and the event queue would never drain.
class SessionLoop {
 public:
  /// Issues one operation with `done` as its resolution hook; returns an
  /// invalid handle when it issued nothing.
  using Step = sim::InlineFunction<client::OpHandle(client::OpHook done)>;

  SessionLoop(sim::Simulation& sim, sim::Time horizon, sim::Duration think_time,
              Step step);

  SessionLoop(const SessionLoop&) = delete;
  SessionLoop& operator=(const SessionLoop&) = delete;

  /// Starts `sessions` sessions, each issuing its first operation now.
  void start(std::size_t sessions);

 private:
  void issue();
  void resume();

  sim::Simulation& sim_;
  sim::Time horizon_;
  sim::Duration pause_;
  Step step_;
};

/// A workload engine. start() schedules the first events; traffic then
/// sustains itself through the simulation until the horizon.
class Generator {
 public:
  explicit Generator(Env env);

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Opens the sessions (closed loop) or the read tick, then the writer
  /// stream. Call once, after churn::System::bootstrap and before the run.
  void start();

 private:
  /// One open-loop read from a uniformly random active process (exact port
  /// of the classic driver).
  void issue_read();

  /// The open-loop read tick: a read every read_interval, skipped outside
  /// the burst phase under kBursty.
  void schedule_read_tick();

  /// The shared designated-writer stream: writes every write_interval,
  /// each writer kept (mostly) sequential — a tick is skipped while a write
  /// is outstanding unless it has been stuck for two intervals, so a
  /// blocked system shows up as a collapsing completion rate rather than a
  /// frozen issue count.
  void schedule_write_tick();
  void issue_write(sim::ProcessId writer);

  Env env_;
  SessionLoop sessions_;
  std::map<sim::ProcessId, std::vector<sim::Time>> outstanding_writes_;
};

/// Builds the engine `env.config.kind` names.
std::unique_ptr<Generator> make_generator(Env env);

}  // namespace dynreg::workload
