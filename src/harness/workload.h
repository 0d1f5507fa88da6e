// The pluggable workload engine: how an experiment generates read/write
// traffic against the deployed register. Every generator issues operations
// through the client layer (client::Client), which owns history recording,
// latency capture, and outcome accounting — generators only decide *when*
// and *from where* operations are issued.
//
// Three engines ship:
//   kOpenLoop    the classic driver: a read from a uniformly random active
//                process every read_interval, independent of completions.
//                Byte-identical to the pre-client workload driver for the
//                default configuration (the determinism gate pins this).
//   kClosedLoop  `clients` ClientSessions: each issues one read at a time
//                against a random active process, waits for it to resolve,
//                thinks for think_time, repeats. Session ops serialize per
//                target process, so latency grows with client count.
//   kBursty      open-loop reads gated by an on/off phase square wave
//                (burst_on ticks of traffic, burst_off ticks of silence).
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

/// A workload engine. start() schedules the first events; traffic then
/// sustains itself through the simulation until the horizon.
class Generator {
 public:
  explicit Generator(Env env) : env_(std::move(env)) {}
  virtual ~Generator() = default;

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Call once, after churn::System::bootstrap and before the run.
  virtual void start() = 0;

 protected:
  /// One open-loop read from a uniformly random active process (exact port
  /// of the classic driver).
  void issue_read();

  /// The shared open-loop read tick: a read every read_interval whenever
  /// read_tick_allowed() holds (always, by default; the bursty engine gates
  /// it by phase). One loop, so open-loop and bursty cannot drift apart.
  void schedule_read_tick();

  /// Whether the read tick firing at `now` should issue its read.
  virtual bool read_tick_allowed(sim::Time now) const;

  /// The shared designated-writer stream: writes every write_interval,
  /// each writer kept (mostly) sequential — a tick is skipped while a write
  /// is outstanding unless it has been stuck for two intervals, so a
  /// blocked system shows up as a collapsing completion rate rather than a
  /// frozen issue count.
  void schedule_write_tick();

  Env env_;

 private:
  void issue_write(sim::ProcessId writer);

  std::map<sim::ProcessId, std::vector<sim::Time>> outstanding_writes_;
};

/// Builds the engine `env.config.kind` names.
std::unique_ptr<Generator> make_generator(Env env);

}  // namespace dynreg::workload
