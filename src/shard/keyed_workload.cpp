#include "shard/keyed_workload.h"

#include <algorithm>
#include <utility>

#include "harness/workload.h"
#include "shard/keyspace.h"

namespace dynreg::shard {

KeyedGenerator::KeyedGenerator(Env env)
    : env_(std::move(env)),
      picker_(env_.config.key_count, env_.config.zipf_s,
              mix64(env_.sim.seed() ^ kKeyedWorkloadSalt)),
      options_(workload::op_options(env_.config)) {}

void KeyedGenerator::start() {
  for (std::size_t s = 0; s < env_.config.clients; ++s) issue(s);
}

sim::Duration KeyedGenerator::think() const {
  return std::max<sim::Duration>(1, env_.config.think_time);
}

Key KeyedGenerator::pick_key(sim::Time now) {
  // Storm phase: every session hammers key 0. The sampler draw is skipped
  // entirely (the stream is private, so skipping draws is replay-safe).
  if (env_.config.storm_every > 0 && now % env_.config.storm_every < env_.config.storm_len) {
    return 0;
  }
  return static_cast<Key>(picker_.next());
}

void KeyedGenerator::issue(std::size_t session) {
  const sim::Time now = env_.sim.now();
  if (now >= env_.horizon) return;
  const Key key = pick_key(now);
  const bool is_read = picker_.uniform01() < env_.config.read_frac;
  auto done = [this, session](const client::OpHandle&) {
    resume_after(session, think());
  };
  const client::OpHandle h =
      is_read ? env_.router.read(key, options_, std::move(done))
              : env_.router.write(key, options_, std::move(done));
  // Nothing issued (shard momentarily memberless / writer absent): back off
  // one think time and try again — the session never dies.
  if (!h.valid()) resume_after(session, think());
}

void KeyedGenerator::resume_after(std::size_t session, sim::Duration pause) {
  const sim::Time next = env_.sim.now() + pause;
  if (next >= env_.horizon) return;
  env_.sim.schedule_at(next, [this, session] { issue(session); });
}

}  // namespace dynreg::shard
