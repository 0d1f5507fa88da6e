#include "shard/keyed_workload.h"

#include <utility>

#include "shard/keyspace.h"

namespace dynreg::shard {

KeyedGenerator::KeyedGenerator(Env env)
    : env_(std::move(env)),
      picker_(env_.config.key_count, env_.config.zipf_s,
              sim::mix64(env_.sim.seed() ^ kKeyedWorkloadSalt)),
      options_(workload::op_options(env_.config)),
      sessions_(env_.sim, env_.horizon, env_.config.think_time,
                [this](client::OpHook done) { return step(std::move(done)); }) {}

void KeyedGenerator::start() { sessions_.start(env_.config.clients); }

Key KeyedGenerator::pick_key(sim::Time now) {
  // Storm phase: every session hammers key 0. The sampler draw is skipped
  // entirely (the stream is private, so skipping draws is replay-safe).
  if (env_.config.storm_every > 0 && now % env_.config.storm_every < env_.config.storm_len) {
    return 0;
  }
  return static_cast<Key>(picker_.next());
}

client::OpHandle KeyedGenerator::step(client::OpHook done) {
  const Key key = pick_key(env_.sim.now());
  const bool is_read = picker_.uniform01() < env_.config.read_frac;
  return is_read ? env_.router.read(key, options_, std::move(done))
                 : env_.router.write(key, options_, std::move(done));
}

}  // namespace dynreg::shard
