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

SessionLoop::SessionLoop(sim::Simulation& sim, sim::Time horizon,
                         sim::Duration think_time, Step step)
    : sim_(sim),
      horizon_(horizon),
      pause_(std::max<sim::Duration>(1, think_time)),
      step_(std::move(step)) {}

void SessionLoop::start(std::size_t sessions) {
  for (std::size_t s = 0; s < sessions; ++s) issue();
}

void SessionLoop::issue() {
  if (sim_.now() >= horizon_) return;
  const client::OpHandle h = step_([this](const client::OpHandle&) { resume(); });
  if (!h.valid()) resume();
}

void SessionLoop::resume() {
  const sim::Time next = sim_.now() + pause_;
  if (next >= horizon_) return;
  sim_.schedule_at(next, [this] { issue(); });
}

Generator::Generator(Env env)
    : env_(std::move(env)),
      sessions_(env_.sim, env_.horizon, env_.config.think_time,
                [this](client::OpHook done) {
                  const auto target = env_.client.random_active();
                  if (!target) return client::OpHandle{};
                  return env_.client.session_read(*target, op_options(env_.config),
                                                  std::move(done));
                }) {}

void Generator::start() {
  // Sessions first (their first ops go out at t=0), then the writer stream
  // — the same relative order as the read tick's.
  if (env_.config.kind == Kind::kClosedLoop) {
    sessions_.start(env_.config.clients);
  } else {
    schedule_read_tick();
  }
  if (!env_.writers.empty()) schedule_write_tick();
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

void Generator::schedule_read_tick() {
  const sim::Time next = env_.sim.now() + env_.config.read_interval;
  if (next >= env_.horizon) return;
  env_.sim.schedule_at(next, [this] {
    // Bursty phase is pure arithmetic on the clock (no toggle events):
    // ticks [0, burst_on) of every on+off period carry traffic.
    const sim::Duration period = env_.config.burst_on + env_.config.burst_off;
    if (env_.config.kind != Kind::kBursty || period == 0 ||
        env_.sim.now() % period < env_.config.burst_on) {
      issue_read();
    }
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

std::unique_ptr<Generator> make_generator(Env env) {
  return std::make_unique<Generator>(std::move(env));
}

}  // namespace dynreg::workload
