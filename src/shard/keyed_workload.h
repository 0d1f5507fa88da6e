// The keyed workload engine: `clients` closed-loop sessions (the shared
// workload::SessionLoop) issuing keyed reads/writes through the
// ShardedClient. Each session draws a key from a deterministic zipfian
// sampler, flips the read/write-mix coin, routes the op to the owning shard,
// waits for it to resolve, thinks, repeats — the closed loop self-throttles,
// which is what makes 1e5-session cells tractable.
//
// Hot-key storm phases: while `now % storm_every < storm_len` (when
// configured) every session hammers key 0 instead of drawing from the
// sampler, concentrating the whole population on one shard.
//
// Determinism: key choices and the mix coin come from ONE private
// hash-seeded stream (workload::ZipfianPicker) — zero run-Rng draws, so the
// engine adds nothing to the record/replay decision streams and is
// byte-identical at any --jobs.
#pragma once

#include <cstdint>

#include "client/client.h"
#include "harness/workload.h"
#include "harness/workload_config.h"
#include "harness/zipfian.h"
#include "shard/router.h"
#include "sim/simulation.h"

namespace dynreg::shard {

/// Salt folding the run seed into the keyed engine's private stream
/// ("keyedwrk"), keeping it disjoint from every other derived stream.
inline constexpr std::uint64_t kKeyedWorkloadSalt = 0x6b6579656477726bULL;  // "keyedwrk"

class KeyedGenerator {
 public:
  /// Everything the engine drives. References must outlive the generator;
  /// `config` supplies clients/think_time plus the keyed block
  /// (key_count/zipf_s/read_frac/storm_*).
  struct Env {
    sim::Simulation& sim;
    ShardedClient& router;
    workload::Config config;
    sim::Time horizon = 0;
  };

  explicit KeyedGenerator(Env env);

  KeyedGenerator(const KeyedGenerator&) = delete;
  KeyedGenerator& operator=(const KeyedGenerator&) = delete;

  /// Call once, after every shard's bootstrap and before the run. All
  /// sessions issue their first op at the current time (t=0).
  void start();

 private:
  /// The sessions' step: one keyed op, or an invalid handle when the owning
  /// shard is momentarily memberless or its writer absent.
  client::OpHandle step(client::OpHook done);
  [[nodiscard]] Key pick_key(sim::Time now);

  Env env_;
  workload::ZipfianPicker picker_;
  client::OpOptions options_;
  workload::SessionLoop sessions_;
};

}  // namespace dynreg::shard
