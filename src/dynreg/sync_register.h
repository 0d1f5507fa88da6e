// The paper's synchronous protocol (Section 3): a regular register under
// continuous churn in a synchronous system with delay bound delta.
//
//  - join: wait delta (so concurrent WRITE broadcasts land at the active
//    processes first — Figure 3), broadcast INQUIRY, collect REPLYs for
//    2*delta (or delta + delta' with footnote 4's optimization), adopt the
//    value with the greatest timestamp, become active, then answer the
//    inquiries that arrived while joining.
//  - read: local, instantaneous — the protocol's "fast reads" design point.
//  - write: timestamp++, broadcast WRITE, update locally, done after delta.
//
// Theorem 1: this implements a regular register provided c < 1/(3*delta).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "dynreg/register_node.h"
#include "dynreg/types.h"

namespace dynreg {

struct SyncConfig {
  sim::Duration delta = 5;
  /// Figure 3(b) vs 3(a): the paper's protocol waits delta before inquiring;
  /// disabling the wait reproduces the broken variant.
  bool wait_before_inquiry = true;
  /// Footnote 4: with a known one-way bound delta' for replies, the inquiry
  /// collection window shrinks from 2*delta to delta + delta'.
  std::optional<sim::Duration> delta_pp;
  /// Anti-entropy extension (not in the paper): active processes rebroadcast
  /// their copy every interval, healing replicas behind lossy channels.
  std::optional<sim::Duration> refresh_interval;
};

class SyncRegisterNode final : public RegisterNode {
 public:
  using Config = SyncConfig;

  /// `ctx` carries the group's SyncConfig (group_factory binds it).
  SyncRegisterNode(sim::ProcessId id, node::Context& ctx, bool initial);

  void on_message(sim::ProcessId from, const net::Payload& payload) override;
  void on_departure() override;
  void read(const OpContext& op, ReadCompletion done) override;
  void write(const OpContext& op, Value v, WriteCompletion done) override;
  Value local_value() const override { return hot_.value; }
  bool is_active() const override { return hot_.active; }
  [[nodiscard]] DurableImage crash_image() const override {
    return DurableImage{hot_.value, hot_.ts, hot_.has_value};
  }
  /// Apply-as-floor (docs/FAULTS.md): the image merges through the monotone
  /// apply() while the restarted process still runs the full delta-wait join,
  /// so the recovered copy can only add information, never mask the join's.
  void restore(const DurableImage& image) override {
    if (image.has_value) apply(image.ts, image.value);
  }

 private:
  // What on_message reads: a sync.write applies into ts, value and
  // has_value; a sync.inquiry reply reads active and the same three; a
  // sync.reply checks joining. Declared first, so with the node::Node base it
  // lies in bytes [0, 64), the span net::Network prefetches ahead of batched
  // delivery (checked in sync_register.cpp).
  struct Hot {
    Timestamp ts;
    Value value = kBottom;
    bool has_value = false;
    bool active = false;
    bool joining = false;
  };
  Hot hot_;

  /// The group's constants, held once in its node::Context.
  [[nodiscard]] const SyncConfig& config() const { return context().config<SyncConfig>(); }
  void start_inquiry();
  void finish_join();
  void finish_write(std::uint64_t wid);
  void apply(const Timestamp& ts, Value v);
  void schedule_refresh();

  /// Inquiries that arrived while this process was still joining.
  std::vector<sim::ProcessId> pending_inquiries_;
  /// Writes waiting out their delta propagation window, tagged with a local
  /// sequence number. Held here (not captured in the timer) so a departure
  /// can resolve them with kDroppedOnDeparture. Every write waits exactly
  /// delta, so completions are strict FIFO: the front finishes first. A
  /// vector, because it allocates nothing until this process first writes
  /// (in most runs only the designated writer does); it holds only the
  /// writes of the last delta ticks, so erasing its front moves few.
  std::vector<std::pair<std::uint64_t, WriteCompletion>> pending_writes_;
  std::uint64_t next_wid_ = 0;
};

}  // namespace dynreg
