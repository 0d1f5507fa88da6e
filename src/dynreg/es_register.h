// The paper's eventually synchronous protocol (Section 5): a regular
// register that never relies on timing for safety. Reads, writes, and joins
// gather majority quorums (of the constant system size n) by broadcasting
// and re-broadcasting until enough distinct processes answer; eventual
// synchrony only guarantees the quorums eventually form (Theorems 3-4).
//
// The churn constraint is c < 1/(3*delta*n): the active-majority assumption
// |A(t)| > n/2 must hold so quorums of active processes exist.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include "dynreg/quorum_tally.h"
#include "dynreg/register_node.h"
#include "dynreg/types.h"
#include "sim/arena.h"

namespace dynreg {

struct EsConfig {
  /// The constant system size; quorums are majorities of n.
  std::size_t n = 10;
  /// Re-broadcast cadence for unfinished operations. Retransmission is what
  /// lets an operation pick up repliers that joined after it started.
  sim::Duration retransmit_interval = 10;
  /// Atomicity ablation: completed reads write back the value they return
  /// (an extra quorum round trip), upgrading regular to atomic.
  bool atomic_reads = false;
  /// Defensive hardening (docs/FAULTS.md): bounded exponential retransmit
  /// backoff — every rebroadcast of the same unfinished operation doubles
  /// the interval, capped at 8x the base. Off (the default) keeps the
  /// historical fixed cadence byte-identically; on, a partitioned minority
  /// stops paying a full-rate rebroadcast storm while it waits for heal.
  bool retransmit_backoff = false;
  /// Defensive hardening: reply-validation guard — drop inbound
  /// value-carrying messages (WRITE / REPLY / JOIN_REPLY) that are
  /// structurally inconsistent (no value claimed but a nonzero timestamp)
  /// or whose sequence number lies more than kTsEnvelope beyond everything
  /// this process has seen (a forged far-future timestamp would otherwise
  /// poison the monotone merge permanently). Off by default.
  bool validate_replies = false;
};

/// Plausibility envelope for EsConfig::validate_replies, in sequence
/// numbers. Benign lag (a reader behind a healed partition) stays far inside
/// it; a forged timestamp fabricated to dominate all future writes lands
/// outside.
inline constexpr std::uint64_t kTsEnvelope = 64;

class EsRegisterNode final : public RegisterNode {
 public:
  using Config = EsConfig;

  /// `ctx` carries the group's EsConfig (group_factory binds it).
  EsRegisterNode(sim::ProcessId id, node::Context& ctx, bool initial);

  void on_message(sim::ProcessId from, const net::Payload& payload) override;
  void on_departure() override;
  void read(const OpContext& op, ReadCompletion done) override;
  void write(const OpContext& op, Value v, WriteCompletion done) override;
  Value local_value() const override { return hot_.value; }
  bool is_active() const override { return hot_.active; }
  [[nodiscard]] DurableImage crash_image() const override {
    return DurableImage{hot_.value, hot_.ts, hot_.has_value};
  }
  /// Apply-as-floor: the image merges through the monotone apply() and the
  /// restarted process still runs the join protocol, so a stale disk image
  /// can never mask a newer value the join quorum knows.
  void restore(const DurableImage& image) override {
    if (image.has_value) apply(image.ts, image.value);
  }

 private:
  // What on_message reads for the bulk message types: an es.read reply reads
  // active, ts, value and has_value; an es.write's apply() also reads and
  // bumps max_seen_sn, after the validate_replies guard. Declared first, so
  // with the node::Node base it lies in bytes [0, 64), the span
  // net::Network prefetches ahead of batched delivery (checked in
  // es_register.cpp). validate_replies is the one EsConfig field a delivery
  // reads, so it is copied here from the group's config; the rest stays in
  // the node::Context.
  struct Hot {
    Timestamp ts;
    Value value = kBottom;
    std::uint64_t max_seen_sn = 0;
    bool has_value = false;
    bool active = false;
    bool validate_replies = false;
  };
  Hot hot_;

  // Pending-operation records live in maps drawn from the simulation's epoch
  // arena: each map node is a short-lived, uniform-size object churned once
  // per in-flight operation, exactly the traffic the arena batches. The
  // arena outlives the node (it belongs to the Simulation), so
  // erase/destruction order is unconstrained. The quorum tallies inside the
  // records are id-indexed bitmaps (dynreg/quorum_tally.h): one bit test per
  // reply, whatever the quorum size.
  template <typename V>
  using ArenaOpMap =
      std::map<std::uint64_t, V, std::less<std::uint64_t>,
               sim::ArenaAllocator<std::pair<const std::uint64_t, V>>>;

  struct PendingRead {
    ReadCompletion done;
    QuorumTally repliers;
    Timestamp best_ts;
    Value best_value = kBottom;
    bool has_value = false;
    bool in_writeback = false;
    std::uint32_t resends = 0;  // drives the bounded retransmit backoff
  };
  struct PendingWrite {
    WriteCompletion done;
    Timestamp ts;
    Value value = kBottom;
    QuorumTally ackers;
    bool is_read_writeback = false;
    std::uint64_t rid = 0;  // owning read, when is_read_writeback
    std::uint32_t resends = 0;  // drives the bounded retransmit backoff
  };

  // Everything a process needs only while a read, a write or its join is in
  // flight: one heap block, created by the first of them and freed as soon
  // as none is left (release_if_idle). An idle member is its node alone.
  struct Flight {
    explicit Flight(sim::Arena& arena)
        : reads(sim::ArenaAllocator<char>(arena)), writes(sim::ArenaAllocator<char>(arena)) {}
    ArenaOpMap<PendingRead> reads;
    ArenaOpMap<PendingWrite> writes;
    QuorumTally join_repliers;
    Timestamp join_best_ts;
    Value join_best_value = kBottom;
    std::uint32_t join_resends = 0;
    bool join_pending = false;
    bool join_has_value = false;
  };

  /// The group's constants, held once in its node::Context.
  [[nodiscard]] const EsConfig& config() const { return context().config<EsConfig>(); }
  [[nodiscard]] std::size_t majority() const { return config().n / 2 + 1; }
  /// Interval before the (resends+1)-th rebroadcast: the fixed cadence, or
  /// base << min(resends, 3) under the hardened exponential backoff.
  [[nodiscard]] sim::Duration retransmit_after(std::uint32_t resends) const {
    const EsConfig& c = config();
    if (!c.retransmit_backoff) return c.retransmit_interval;
    return c.retransmit_interval << (resends > 3 ? 3 : resends);
  }
  /// validate_replies guard; true = drop the message unprocessed.
  [[nodiscard]] bool rejects_envelope(const Timestamp& ts, bool msg_has_value) const {
    if (!hot_.validate_replies) return false;
    if (!msg_has_value) return ts.sn > 0;  // no value claimed, yet a timestamp
    return ts.sn > hot_.max_seen_sn + kTsEnvelope;
  }
  /// The join's request id: the process id in the high word, so it never
  /// collides with a read id.
  [[nodiscard]] std::uint64_t join_id() const { return static_cast<std::uint64_t>(id()) << 32; }
  /// The in-flight block, created on first use.
  Flight& flight();
  /// Frees the in-flight block once no read, write or join is pending.
  void release_if_idle();
  void apply(const Timestamp& ts, Value v);
  void start_join();
  void retransmit_join();
  void retransmit_read(std::uint64_t rid);
  void retransmit_write(std::uint64_t wid);
  void finish_read(std::uint64_t rid);
  void start_writeback(std::uint64_t rid);
  void maybe_finish_write(std::uint64_t wid);

  std::uint64_t next_rid_ = 0;
  std::uint64_t next_wid_ = 0;
  std::unique_ptr<Flight> flight_;  // null while nothing is in flight
};

}  // namespace dynreg
