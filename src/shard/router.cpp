#include "shard/router.h"

#include <utility>

#include "harness/world.h"

namespace dynreg::shard {

client::OpHandle ShardedClient::read(Key key, client::OpOptions options,
                                     client::OpHook done) {
  ShardRef& ref = map_.shard(owner_of(key));
  const auto target = ref.client->random_active();
  if (!target) return client::OpHandle{};
  return ref.client->session_read(*target, std::move(options), std::move(done));
}

client::OpHandle ShardedClient::write(Key key, client::OpOptions options,
                                      client::OpHook done) {
  ShardRef& ref = map_.shard(owner_of(key));
  if (ref.client->node(ref.writer) == nullptr) return client::OpHandle{};
  return ref.client->session_write(ref.writer, ref.client->next_value(),
                                   std::move(options), std::move(done));
}

void ShardedClient::harvest(const harness::ExperimentConfig& cfg,
                            harness::MetricsReport& report) const {
  report = harness::harvest(cfg, map_);
}

}  // namespace dynreg::shard
