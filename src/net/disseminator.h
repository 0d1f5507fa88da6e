// Pluggable broadcast fan-out strategies (the "Disseminator seam", see
// docs/ARCHITECTURE.md).
//
// The paper's protocols broadcast constantly — every ES write is one process
// sending n-1 direct copies, so at n=1e5 a single hot writer pays O(n) sends
// per operation. A Disseminator decides how one logical broadcast reaches
// its recipients: it is a pure planner. For each recipient it asks the
// Network for the verdict of the physical edge that carries the copy
// (Network::hop_verdict: partition cut, loss, delay) and writes down the
// copy's arrival offset, or marks it kLost. It never schedules anything;
// the Network turns the finished plan into queued deliveries, one event per
// distinct arrival tick (see net/network.h).
//
//  - FlatDisseminator (the default): direct fan-out — the sender transmits
//    one copy to every recipient.
//  - TreeDisseminator: deterministic delegated multicast over an implicit
//    complete k-ary tree. The sender pushes to its k children; each
//    recipient forwards to its own children. Latency accumulates along the
//    path (depth ~ log_k n hops instead of 1), which is the honest price of
//    reducing the root's send cost from O(n) to O(k).
//
// Determinism contract: the tree is a pure function of (sorted recipient
// list, fanout) — position 0 is the sender, position j >= 1 is
// recipients[j-1], the parent of position j is (j-1)/k. Per-edge verdicts
// are drawn in ascending position order through the one DelayModel override
// point, so record/replay and the audit hash see a stable draw sequence.
// The plan is the tree's only per-position state: a position's entry is the
// time it relays at, so a child reads its parent's entry (written earlier,
// as parents precede children), and a lost position's entry keeps that time
// under the kLost mark.
//
// Modeling idealizations (documented, deliberate):
//  - Delivery handlers observe the LOGICAL sender (the original
//    broadcaster), not the relaying parent: protocols reply to whoever
//    initiated the operation, and relays are transparent transport.
//  - A lost or dropped edge loses only that recipient's copy; its subtree
//    still forwards (as if the relay layer repaired the hop) with a nominal
//    1-tick hop cost. Loss therefore stays a per-copy Bernoulli event, as
//    in the flat model, rather than compounding down subtrees.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "net/payload.h"
#include "sim/event_queue.h"  // ProcessId / Duration

namespace dynreg::net {

class Network;

class Disseminator {
 public:
  /// Mark on the plan entry of a copy that never arrives (cut or lost). The
  /// bits below it are the planner's own (the tree keeps the relay time
  /// there); an offset never reaches it.
  static constexpr sim::Duration kLost = sim::Duration{1} << 63;
  [[nodiscard]] static constexpr bool lost(sim::Duration entry) {
    return (entry & kLost) != 0;
  }

  virtual ~Disseminator() = default;

  /// Plans one broadcast of `payload` from `from` to every id in
  /// `recipients` (sorted ascending, never containing `from`): sets
  /// arrivals[i] (pre-sized to recipients.size()) to recipients[i]'s arrival
  /// offset from now, or an entry with the kLost mark. Edge verdicts come
  /// from Network::hop_verdict, drawn in the planner's fixed edge order.
  virtual void plan(Network& net, sim::ProcessId from,
                    const std::vector<sim::ProcessId>& recipients,
                    const Payload& payload, std::vector<sim::Duration>& arrivals) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// Direct fan-out: the sender transmits to every recipient itself.
class FlatDisseminator final : public Disseminator {
 public:
  void plan(Network& net, sim::ProcessId from,
            const std::vector<sim::ProcessId>& recipients, const Payload& payload,
            std::vector<sim::Duration>& arrivals) override;
  [[nodiscard]] std::string_view name() const override { return "flat"; }
};

/// Delegated multicast over an implicit complete k-ary tree in recipient-id
/// order (BFS positions; see file comment for the determinism contract).
class TreeDisseminator final : public Disseminator {
 public:
  explicit TreeDisseminator(std::uint32_t fanout = 4)
      : fanout_(fanout < 1 ? 1 : fanout) {}

  void plan(Network& net, sim::ProcessId from,
            const std::vector<sim::ProcessId>& recipients, const Payload& payload,
            std::vector<sim::Duration>& arrivals) override;
  [[nodiscard]] std::string_view name() const override { return "tree"; }
  [[nodiscard]] std::uint32_t fanout() const { return fanout_; }

 private:
  std::uint32_t fanout_;
};

}  // namespace dynreg::net
