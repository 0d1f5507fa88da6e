#include "harness/workload.h"

#include <algorithm>
#include <utility>

namespace dynreg::workload {

const char* to_string(Kind k) {
  switch (k) {
    case Kind::kOpenLoop:
      return "open";
    case Kind::kClosedLoop:
      return "closed";
    case Kind::kBursty:
      return "bursty";
  }
  return "?";
}

// --- shared machinery --------------------------------------------------------

client::OpOptions op_options(const Config& config) {
  client::OpOptions options;
  if (config.op_deadline > 0) options.deadline = config.op_deadline;
  options.retry.max_attempts = config.retry_max_attempts;
  options.retry.backoff = config.retry_backoff;
  options.retry.exponential = config.retry_exponential;
  return options;
}

void Generator::issue_read() {
  // An active id always resolves to a live node (same event, no interleaved
  // departure); were that ever broken, the client would surface it as an
  // issued-nothing dropped record rather than a silent skip.
  const auto reader = env_.client.random_active();
  // Fire-and-forget: open-loop reads are observed through history/metrics
  // only, so the handle is intentionally dropped.
  if (reader) (void)env_.client.read(*reader, op_options(env_.config));
}

void Generator::issue_write(sim::ProcessId writer) {
  // Keep each writer (mostly) sequential: skip the tick while a write is
  // outstanding, unless it has been stuck for two intervals — then keep
  // issuing so a blocked system shows up as a collapsing completion rate
  // rather than a frozen issue count.
  auto& outstanding = outstanding_writes_[writer];
  if (!outstanding.empty() &&
      env_.sim.now() - outstanding.front() < 2 * env_.config.write_interval) {
    return;
  }

  // Writers are pinned (exempt from churn), so the target always exists.
  const Value v = env_.client.next_value();
  const sim::Time begun = env_.sim.now();
  outstanding.push_back(begun);
  // Fire-and-forget: outstanding-write bookkeeping runs through the
  // resolution hook, so the handle is intentionally dropped.
  (void)env_.client.write(writer, v, op_options(env_.config),
                          [this, writer, begun](const client::OpHandle&) {
                            auto& pending = outstanding_writes_[writer];
                            pending.erase(
                                std::find(pending.begin(), pending.end(), begun));
                          });
}

bool Generator::read_tick_allowed(sim::Time) const { return true; }

void Generator::schedule_read_tick() {
  const sim::Time next = env_.sim.now() + env_.config.read_interval;
  if (next >= env_.horizon) return;
  env_.sim.schedule_at(next, [this] {
    if (read_tick_allowed(env_.sim.now())) issue_read();
    schedule_read_tick();
  });
}

void Generator::schedule_write_tick() {
  const sim::Time next = env_.sim.now() + env_.config.write_interval;
  if (next >= env_.horizon) return;
  env_.sim.schedule_at(next, [this] {
    for (const sim::ProcessId w : env_.writers) issue_write(w);
    schedule_write_tick();
  });
}

// --- open loop ---------------------------------------------------------------

namespace {

/// The classic driver, byte-identical to the pre-client workload for the
/// default configuration.
class OpenLoopGenerator final : public Generator {
 public:
  using Generator::Generator;

  void start() override {
    schedule_read_tick();
    if (!env_.writers.empty()) schedule_write_tick();
  }
};

// --- closed loop -------------------------------------------------------------

class ClosedLoopGenerator final : public Generator {
 public:
  explicit ClosedLoopGenerator(Env env) : Generator(std::move(env)) {
    client::ClientSession::Config sc;
    sc.think_time = env_.config.think_time;
    sc.horizon = env_.horizon;
    sc.op_options = op_options(env_.config);
    sessions_.reserve(env_.config.clients);
    for (std::size_t i = 0; i < env_.config.clients; ++i) {
      sessions_.push_back(
          std::make_unique<client::ClientSession>(env_.client, env_.sim, sc));
    }
  }

  void start() override {
    // Sessions first (their first ops go out at t=0), then the writer
    // stream — the same relative order as the open-loop engine's ticks.
    for (auto& s : sessions_) s->start();
    if (!env_.writers.empty()) schedule_write_tick();
  }

 private:
  std::vector<std::unique_ptr<client::ClientSession>> sessions_;
};

// --- bursty ------------------------------------------------------------------

class BurstyGenerator final : public Generator {
 public:
  using Generator::Generator;

  void start() override {
    schedule_read_tick();
    if (!env_.writers.empty()) schedule_write_tick();
  }

 private:
  /// Phase is pure arithmetic on the clock (no extra toggle events): ticks
  /// [0, burst_on) of every on+off period carry traffic.
  bool read_tick_allowed(sim::Time now) const override {
    const sim::Duration period = env_.config.burst_on + env_.config.burst_off;
    if (period == 0) return true;
    return now % period < env_.config.burst_on;
  }
};

}  // namespace

std::unique_ptr<Generator> make_generator(Env env) {
  switch (env.config.kind) {
    case Kind::kClosedLoop:
      return std::make_unique<ClosedLoopGenerator>(std::move(env));
    case Kind::kBursty:
      return std::make_unique<BurstyGenerator>(std::move(env));
    case Kind::kOpenLoop:
      break;
  }
  return std::make_unique<OpenLoopGenerator>(std::move(env));
}

}  // namespace dynreg::workload
