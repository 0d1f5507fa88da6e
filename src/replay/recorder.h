// Trace recording: observer + wrapper objects that capture one run's
// nondeterminism-relevant decisions into a replay::Trace as the run makes
// them. Pure pass-through — a recorded run consumes exactly the same rng
// draws in exactly the same order as an unrecorded one, so recording never
// changes the run it records.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "churn/system.h"
#include "client/client.h"
#include "net/delay_model.h"
#include "replay/trace.h"

namespace dynreg::replay {

/// Captures churn-driven membership actions and client target picks of one
/// membership group. Install via System::set_churn_observer +
/// Client::set_target_observer; must outlive the run. Churn records carry
/// the group's `shard` tag (0 when unsharded): every shard's recorder
/// appends to the one shared Trace in execution order, and replay routes
/// each churn record back to its shard's ReplayChurnModel by this tag
/// (replayer.h) — ids and churn-tick times repeat across shards, so an
/// untagged stream could not be demultiplexed. Picks need no tag: replay
/// consumes them through one shared positional chooser. Network decisions
/// are captured separately by RecordingDelayModel (the network owns its
/// delay model, so a wrapper — not an observer — is the natural seam there).
class TraceRecorder final : public churn::ChurnObserver, public client::TargetObserver {
 public:
  explicit TraceRecorder(Trace& out, std::uint32_t shard = 0)
      : out_(out), shard_(shard) {}

  void on_churn_join(sim::Time t) override {
    out_.churn.push_back({t, true, 0, shard_});
  }
  void on_churn_leave(sim::Time t, sim::ProcessId victim) override {
    out_.churn.push_back({t, false, victim, shard_});
  }
  void on_target(sim::Time now, sim::ProcessId chosen) override {
    out_.picks.push_back({now, chosen});
  }

 private:
  Trace& out_;
  std::uint32_t shard_;
};

/// Wraps the run's real delay model, appending every verdict (loss decision
/// + delivery delay) to the trace's net stream in transmit order.
class RecordingDelayModel final : public net::DelayModel {
 public:
  RecordingDelayModel(std::unique_ptr<net::DelayModel> inner, Trace& out)
      : inner_(std::move(inner)), out_(out) {}

  sim::Duration delay(sim::Time now, sim::ProcessId from, sim::ProcessId to,
                      const net::Payload& payload, sim::Rng& rng) override {
    // Unreached through the network (verdict() is the single entry point),
    // but the contract must hold for direct callers too.
    return inner_->delay(now, from, to, payload, rng);
  }

  Verdict verdict(sim::Time now, sim::ProcessId from, sim::ProcessId to,
                  const net::Payload& payload, double loss_rate, sim::Rng& rng) override {
    const Verdict v = inner_->verdict(now, from, to, payload, loss_rate, rng);
    out_.net.push_back(
        {now, from, to, payload.type_id(), v.lost, v.lost ? sim::Duration{0} : v.delay});
    return v;
  }

 private:
  std::unique_ptr<net::DelayModel> inner_;
  Trace& out_;
};

}  // namespace dynreg::replay
