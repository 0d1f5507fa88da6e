// Static-membership ABD baseline (Attiya, Bar-Noy, Dolev): the motivating
// contrast of Section 1. The replica set is fixed at the initial n processes;
// joiners act as clients only. Under churn the replica set drains, and once
// fewer than a majority remain every quorum operation blocks forever.
//
// Reads perform the full two-phase protocol (query + write-back), so the
// register is atomic — zero new/old inversions, by construction.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "dynreg/quorum_tally.h"
#include "dynreg/register_node.h"
#include "dynreg/types.h"

namespace dynreg {

struct AbdConfig {
  /// Size of the fixed replica set (the initial membership).
  std::size_t n = 10;
};

class AbdRegisterNode final : public RegisterNode {
 public:
  using Config = AbdConfig;

  /// `ctx` carries the group's AbdConfig (group_factory binds it).
  AbdRegisterNode(sim::ProcessId id, node::Context& ctx, bool initial);

  void on_message(sim::ProcessId from, const net::Payload& payload) override;
  void on_departure() override;
  void read(const OpContext& op, ReadCompletion done) override;
  void write(const OpContext& op, Value v, WriteCompletion done) override;
  Value local_value() const override { return hot_.value; }
  bool is_active() const override { return true; }  // no join protocol
  /// ABD's replica set is fixed at bootstrap: a crash-recovered process
  /// restarts under a fresh id and is a client, not a replica, whatever it
  /// salvaged from disk — so it reports a crash image (replicas only) but
  /// ignores restore(). Exactly the Section 1 motivation: static-membership
  /// quorums cannot readmit recovered state (docs/FAULTS.md).
  [[nodiscard]] DurableImage crash_image() const override {
    return hot_.replica ? DurableImage{hot_.value, hot_.ts, true} : DurableImage{};
  }

 private:
  // What on_message reads for the bulk message types: a replica answers
  // abd.read_query from ts and value, and applies abd.update and
  // abd.writeback into them. Declared first, so with the node::Node base it
  // lies in bytes [0, 64), the span net::Network prefetches ahead of batched
  // delivery (checked in abd_register.cpp).
  struct Hot {
    Timestamp ts;
    Value value = kBottom;
    bool replica = false;
  };
  Hot hot_;

  struct PendingRead {
    ReadCompletion done;
    QuorumTally repliers;
    Timestamp best_ts;
    Value best_value = kBottom;
    bool has_best = false;
    QuorumTally wb_ackers;
    bool in_writeback = false;
  };
  struct PendingWrite {
    WriteCompletion done;
    QuorumTally ackers;
  };
  // The pending reads and writes: one heap block, created by the first
  // operation and freed as soon as none is left (release_if_idle). A
  // replica that serves but never issues is its node alone.
  struct Flight {
    std::map<std::uint64_t, PendingRead> reads;
    std::map<std::uint64_t, PendingWrite> writes;
  };

  [[nodiscard]] std::size_t majority() const {
    return context().config<AbdConfig>().n / 2 + 1;
  }
  /// The in-flight block, created on first use.
  Flight& flight();
  /// Frees the in-flight block once no read or write is pending.
  void release_if_idle();
  void apply(const Timestamp& ts, Value v);
  void start_writeback(std::uint64_t rid);
  void maybe_finish_read(std::uint64_t rid);
  void maybe_finish_write(std::uint64_t wid);

  std::uint64_t next_rid_ = 0;
  std::uint64_t next_wid_ = 0;
  std::uint64_t sn_ = 0;

  std::unique_ptr<Flight> flight_;  // null while nothing is in flight
};

}  // namespace dynreg
