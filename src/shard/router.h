// The ShardedClient: keyed read(key)/write(key, v) routed to the owning
// shard's Client behind the existing Client/OpHandle seam — the protocols
// never learn that a keyspace exists. Reads go to a uniformly random active
// process of the owning shard (one shared-chooser rng draw, recorded in the
// picks stream like every target selection); writes funnel to the shard's
// designated writer and serialize through its session FIFO, which is
// exactly why aggregate write throughput scales with shard count.
#pragma once

#include "client/client.h"
#include "harness/metrics.h"
#include "shard/keyspace.h"

namespace dynreg::harness {
struct ExperimentConfig;
}  // namespace dynreg::harness

namespace dynreg::shard {

class ShardedClient {
 public:
  /// `map` must be fully populated (every ShardRef wired) and outlive the
  /// router.
  explicit ShardedClient(ShardMap& map) : map_(map) {}

  ShardedClient(const ShardedClient&) = delete;
  ShardedClient& operator=(const ShardedClient&) = delete;

  /// Session read of `key` against a random active process of its owning
  /// shard. Invalid handle when the shard has no active member (caller
  /// backs off and retries — nothing was issued).
  client::OpHandle read(Key key, client::OpOptions options = {},
                        client::OpHook done = {});

  /// Session write to `key`'s owning shard through its designated writer;
  /// the written value is the shard's own sequence (1, 2, 3, ...). Invalid
  /// handle when the writer is not in the shard (nothing was issued).
  client::OpHandle write(Key key, client::OpOptions options = {},
                         client::OpHook done = {});

  [[nodiscard]] ShardId owner_of(Key key) const { return map_.owner_of(key); }
  [[nodiscard]] ShardMap& map() { return map_; }
  [[nodiscard]] const ShardMap& map() const { return map_; }

  /// Fills `report` with harness::harvest over this router's shards (global
  /// fields plus the per-shard ShardMetrics slices). trace_hash and the
  /// simulation's counters are the caller's.
  void harvest(const harness::ExperimentConfig& cfg,
               harness::MetricsReport& report) const;

 private:
  ShardMap& map_;
};

}  // namespace dynreg::shard
