// Message delay models. The network asks the model for each (sender,
// receiver, payload) copy individually, so a model can implement anything
// from a fixed latency to a per-message adversary.
#pragma once

#include <optional>

#include "net/payload.h"
#include "sim/inline_function.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace dynreg::net {

class DelayModel {
 public:
  virtual ~DelayModel() = default;

  /// Delivery delay for one message copy. Must be >= 1 so no delivery is
  /// instantaneous (the simulation processes it as a strictly later event).
  virtual sim::Duration delay(sim::Time now, sim::ProcessId from, sim::ProcessId to,
                              const Payload& payload, sim::Rng& rng) = 0;

  /// The full per-copy fate: lost to an omission fault, or delivered after
  /// `delay` ticks.
  struct Verdict {
    bool lost = false;
    sim::Duration delay = 1;  ///< meaningful only when !lost
  };

  /// One decision per transmit, combining the loss draw and the delay draw.
  /// The network routes every copy through here so that a single override
  /// point sees — and can record or replace — all of a run's network
  /// nondeterminism (see src/replay/). The default implementation preserves
  /// the historical rng draw order exactly: one bernoulli draw iff
  /// loss_rate > 0, then the model's delay draw only for surviving copies.
  virtual Verdict verdict(sim::Time now, sim::ProcessId from, sim::ProcessId to,
                          const Payload& payload, double loss_rate, sim::Rng& rng) {
    if (loss_rate > 0.0 && rng.bernoulli(loss_rate)) return {true, 0};
    return {false, delay(now, from, to, payload, rng)};
  }
};

/// Every message takes exactly `d` ticks.
class FixedDelay final : public DelayModel {
 public:
  explicit FixedDelay(sim::Duration d) : d_(d < 1 ? 1 : d) {}
  sim::Duration delay(sim::Time, sim::ProcessId, sim::ProcessId, const Payload&,
                      sim::Rng&) override {
    return d_;
  }

 private:
  sim::Duration d_;
};

/// The paper's synchronous model: every delay is in [1, delta].
class SynchronousDelay final : public DelayModel {
 public:
  explicit SynchronousDelay(sim::Duration delta) : delta_(delta < 1 ? 1 : delta) {}
  sim::Duration delay(sim::Time, sim::ProcessId, sim::ProcessId, const Payload&,
                      sim::Rng& rng) override {
    return rng.uniform_int(1, delta_);
  }

 private:
  sim::Duration delta_;
};

/// Eventually synchronous model: arbitrary (bounded by pre_gst_max only for
/// simulation finiteness) before GST, then delta-bounded. Processes never
/// learn GST; only the network knows it.
class EventuallySynchronousDelay final : public DelayModel {
 public:
  EventuallySynchronousDelay(sim::Time gst, sim::Duration pre_gst_max, sim::Duration delta)
      : gst_(gst),
        pre_gst_max_(pre_gst_max < 1 ? 1 : pre_gst_max),
        delta_(delta < 1 ? 1 : delta) {}
  sim::Duration delay(sim::Time now, sim::ProcessId, sim::ProcessId, const Payload&,
                      sim::Rng& rng) override {
    if (now < gst_) return rng.uniform_int(1, pre_gst_max_);
    return rng.uniform_int(1, delta_);
  }

 private:
  sim::Time gst_;
  sim::Duration pre_gst_max_;
  sim::Duration delta_;
};

/// Scripted adversary: a user callback may pin the delay of any message; for
/// messages it declines (nullopt) the delay is uniform in [1, default_max].
/// This is how the impossibility and Figure 3 benches construct their bad
/// runs.
class AsyncAdversarialDelay final : public DelayModel {
 public:
  /// Consulted once per message copy — a hot path, hence InlineFunction
  /// (oversized adversary captures fall back to one heap block per *model*,
  /// never per message).
  using Script = sim::InlineFunction<std::optional<sim::Duration>(
      sim::Time now, sim::ProcessId from, sim::ProcessId to, const Payload& payload)>;

  AsyncAdversarialDelay(sim::Duration default_max, Script script)
      : default_max_(default_max < 1 ? 1 : default_max), script_(std::move(script)) {}

  sim::Duration delay(sim::Time now, sim::ProcessId from, sim::ProcessId to,
                      const Payload& payload, sim::Rng& rng) override {
    if (script_) {
      if (const auto pinned = script_(now, from, to, payload)) {
        return *pinned < 1 ? 1 : *pinned;
      }
    }
    return rng.uniform_int(1, default_max_);
  }

 private:
  sim::Duration default_max_;
  Script script_;
};

}  // namespace dynreg::net
