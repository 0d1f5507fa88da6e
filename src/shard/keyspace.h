// The sharded keyspace: a deterministic hash partition of keys over a fixed
// number of shards, and the ShardMap directory resolving each shard to the
// live objects that serve it — its own churn::System membership group (one
// independent instance of the paper's protocol), its own Client/History,
// and its designated writer.
//
// The mapping is pure arithmetic (splitmix64 finalizer of the key, mod the
// shard count): no state, no rng, identical on every run and every worker —
// key routing is configuration, not a recorded decision.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"

namespace dynreg::churn {
class System;
}  // namespace dynreg::churn
namespace dynreg::client {
class Client;
}  // namespace dynreg::client
namespace dynreg::consistency {
class History;
}  // namespace dynreg::consistency
namespace dynreg::net {
class Network;
}  // namespace dynreg::net

namespace dynreg::shard {

using Key = std::uint64_t;
using ShardId = std::uint32_t;

/// The owning shard of `key`: hash-partitioned so consecutive keys spread
/// across shards (a zipfian head still concentrates *traffic*, which is the
/// point of E20, but the assignment itself is unbiased).
inline ShardId shard_of(Key key, std::size_t shard_count) {
  return shard_count <= 1
             ? 0
             : static_cast<ShardId>(sim::mix64(key) % static_cast<std::uint64_t>(shard_count));
}

/// One shard's serving stack. All pointers are non-owning references into
/// the run's per-shard worlds (harness::World); process ids are
/// per-System (every shard numbers its members from 0).
struct ShardRef {
  churn::System* system = nullptr;
  client::Client* client = nullptr;
  consistency::History* history = nullptr;
  net::Network* net = nullptr;
  /// The shard's designated writer (the paper's writer, pinned; process 0
  /// of this shard's id space).
  sim::ProcessId writer = 0;
  /// This shard's slice of the total population n.
  std::size_t n = 0;
};

/// Directory from shard id to its serving stack.
class ShardMap {
 public:
  explicit ShardMap(std::size_t count) : shards_(count == 0 ? 1 : count) {}

  [[nodiscard]] std::size_t size() const { return shards_.size(); }
  [[nodiscard]] ShardRef& shard(ShardId s) { return shards_[s]; }
  [[nodiscard]] const ShardRef& shard(ShardId s) const { return shards_[s]; }

  [[nodiscard]] ShardId owner_of(Key key) const {
    return shard_of(key, shards_.size());
  }

 private:
  std::vector<ShardRef> shards_;
};

}  // namespace dynreg::shard
