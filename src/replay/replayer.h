// Trace replay: DelayModel / ChurnModel / TargetChooser implementations
// that re-feed a recorded (or perturbed) Trace into a run instead of the
// rng. The streams are consumed *positionally* — the k-th transmit gets the
// k-th net record — and the run's own sim::Rng is never drawn, so:
//
//   unperturbed trace   the replayed run re-makes every decision the
//                       recording made and is byte-identical to it (same
//                       trace_hash, same emitter output);
//   perturbed trace     the run follows the perturbed schedule until it
//                       diverges from the recording; past that point later
//                       records land on different messages (which is the
//                       point of schedule search — it explores neighbours,
//                       not exact replays), and exhausted streams fall back
//                       to a seeded private Rng, keeping even deeply
//                       diverged variants fully deterministic.
//
// All three components hold a shared_ptr to the trace, so a TraceReplayer
// may be destroyed before the Network/System that own the models it built.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "churn/churn_model.h"
#include "client/client.h"
#include "net/delay_model.h"
#include "replay/trace.h"
#include "sim/rng.h"

namespace dynreg::replay {

/// Salts separating the three fallback rng streams from each other and from
/// anything the recorded run derived from its seed.
inline constexpr std::uint64_t kNetFallbackSalt = 0x6e65742d66616c6cULL;    // "net-fall"
inline constexpr std::uint64_t kPickFallbackSalt = 0x7069636b2d66616cULL;   // "pick-fal"

/// Replays the net stream. Loss rate and the wrapped model's delay
/// distribution are ignored while records last; exhausted, it draws loss
/// from `loss_rate` and delays uniform in [1, trace.max_delay()] from its
/// private fallback rng.
class ReplayDelayModel final : public net::DelayModel {
 public:
  explicit ReplayDelayModel(std::shared_ptr<const Trace> trace)
      : trace_(std::move(trace)),
        max_delay_(trace_->max_delay()),
        fallback_(fold64(trace_->seed, kNetFallbackSalt)) {}

  sim::Duration delay(sim::Time, sim::ProcessId, sim::ProcessId, const net::Payload&,
                      sim::Rng&) override {
    return fallback_.uniform_int(1, max_delay_);
  }

  Verdict verdict(sim::Time, sim::ProcessId, sim::ProcessId, const net::Payload&,
                  double loss_rate, sim::Rng&) override {
    if (next_ < trace_->net.size()) {
      const NetRecord& r = trace_->net[next_++];
      if (r.lost) return {true, 0};
      return {false, r.delay < 1 ? sim::Duration{1} : r.delay};
    }
    if (loss_rate > 0.0 && fallback_.bernoulli(loss_rate)) return {true, 0};
    return {false, fallback_.uniform_int(1, max_delay_)};
  }

 private:
  std::shared_ptr<const Trace> trace_;
  sim::Duration max_delay_;
  sim::Rng fallback_;
  std::size_t next_ = 0;
};

/// Replays one membership group's share of the churn stream as a scripted
/// model: each churn tick executes, in recorded order, every record tagged
/// `shard` and stamped at or before `now` that has not run yet (perturbation
/// may shift a record between ticks; catch-up keeps every action executed
/// exactly once). Records of other shards are passed over: every shard's
/// model scans the shared stream with its own cursor, and all shards tick at
/// the same cadence, so each record is executed by exactly its owner exactly
/// once. Unsharded traces tag every record 0. Install only when the recorded
/// run drove a churn tick loop (Trace::churn_loop) so the tick-event
/// cadence — part of the audited event stream — matches the recording.
class ReplayChurnModel final : public churn::ChurnModel {
 public:
  explicit ReplayChurnModel(std::shared_ptr<const Trace> trace, std::uint32_t shard = 0)
      : trace_(std::move(trace)), shard_(shard) {}

  double rate() const override { return 0.0; }
  [[nodiscard]] bool scripted() const override { return true; }

  void actions_at(sim::Time now, std::vector<churn::ChurnAction>& out) override {
    while (next_ < trace_->churn.size() && trace_->churn[next_].time <= now) {
      const ChurnRecord& r = trace_->churn[next_++];
      if (r.shard == shard_) out.push_back({r.join, r.victim});
    }
  }

 private:
  std::shared_ptr<const Trace> trace_;
  std::size_t next_ = 0;
  std::uint32_t shard_ = 0;
};

/// Replays client target picks. A recorded pick that is no longer active
/// (possible only after divergence) falls back to a deterministic draw over
/// the current actives, as does an exhausted stream.
class ReplayTargetChooser final : public client::TargetChooser {
 public:
  explicit ReplayTargetChooser(std::shared_ptr<const Trace> trace)
      : trace_(std::move(trace)),
        fallback_(fold64(trace_->seed, kPickFallbackSalt)) {}

  sim::ProcessId choose_target(sim::Time,
                               const std::vector<sim::ProcessId>& actives) override {
    if (next_ < trace_->picks.size()) {
      const sim::ProcessId chosen = trace_->picks[next_++].chosen;
      for (const sim::ProcessId id : actives) {
        if (id == chosen) return chosen;
      }
    }
    return actives[static_cast<std::size_t>(
        fallback_.uniform_int(0, actives.size() - 1))];
  }

 private:
  std::shared_ptr<const Trace> trace_;
  sim::Rng fallback_;
  std::size_t next_ = 0;
};

/// Non-owning forwarding view over a shared ReplayDelayModel — what each
/// world's Network owns in a replay. Recording interleaved every world's
/// verdicts into the ONE net stream in execution order, so replay must
/// consume them through one shared positional cursor; the views give every
/// Network its own DelayModel object (networks own their models) while the
/// cursor stays shared. The TraceReplayer owns the real model and must
/// outlive every Network holding a view.
class SharedDelayModelView final : public net::DelayModel {
 public:
  explicit SharedDelayModelView(ReplayDelayModel* shared) : shared_(shared) {}

  sim::Duration delay(sim::Time now, sim::ProcessId from, sim::ProcessId to,
                      const net::Payload& payload, sim::Rng& rng) override {
    return shared_->delay(now, from, to, payload, rng);
  }

  Verdict verdict(sim::Time now, sim::ProcessId from, sim::ProcessId to,
                  const net::Payload& payload, double loss_rate, sim::Rng& rng) override {
    return shared_->verdict(now, from, to, payload, loss_rate, rng);
  }

 private:
  ReplayDelayModel* shared_;  // non-owning
};

/// Bundles the three replay components for one run. Owns the target chooser
/// (the Client only holds a non-owning pointer) and the shared delay
/// cursor; hands churn model ownership to the System; must outlive the run
/// it drives.
class TraceReplayer {
 public:
  explicit TraceReplayer(std::shared_ptr<const Trace> trace)
      : trace_(std::move(trace)), chooser_(trace_) {}

  /// A standalone delay model with its own cursor, owned by the caller —
  /// for a run whose one Network replays the whole net stream.
  [[nodiscard]] std::unique_ptr<net::DelayModel> make_delay_model() {
    return std::make_unique<ReplayDelayModel>(trace_);
  }

  /// A forwarding view over the replayer's one shared cursor (see
  /// SharedDelayModelView). Call once per Network; the replayer must
  /// outlive them all.
  [[nodiscard]] std::unique_ptr<net::DelayModel> make_delay_model_view() {
    if (!shared_delay_) shared_delay_ = std::make_unique<ReplayDelayModel>(trace_);
    return std::make_unique<SharedDelayModelView>(shared_delay_.get());
  }

  /// ReplayChurnModel over shard `shard`'s records when the recording drove
  /// a churn loop, NoChurn otherwise (then no tick events existed to
  /// reproduce).
  [[nodiscard]] std::unique_ptr<churn::ChurnModel> make_churn_model(
      std::uint32_t shard = 0) const {
    if (trace_->churn_loop) return std::make_unique<ReplayChurnModel>(trace_, shard);
    return std::make_unique<churn::NoChurn>();
  }

  [[nodiscard]] client::TargetChooser* target_chooser() { return &chooser_; }

 private:
  std::shared_ptr<const Trace> trace_;
  ReplayTargetChooser chooser_;
  std::unique_ptr<ReplayDelayModel> shared_delay_;
};

}  // namespace dynreg::replay
