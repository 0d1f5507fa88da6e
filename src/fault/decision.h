// DecisionSource: the fault engine's one gateway to randomness, mirroring
// the replay hook layer (replay/hooks.h) the net/churn/pick streams use.
//
// Every fault the Injector injects — crash victim, recovery coin, partition
// salt, Byzantine transform choice — derives from raw 64-bit words drawn
// through this interface:
//
//   Live       draws the run's sim::Rng (a plain, unrecorded run);
//   Recording  wraps Live and appends each word to Trace::faults, so the
//              fault schedule records into DRTR traces (format v3);
//   Replay     consumes Trace::faults positionally and never touches the
//              run's Rng — during replay the net/churn/pick models do not
//              draw either, so a live fault draw would consume an Rng
//              subsequence that does not exist in the recording and diverge.
//
// This file is the ONLY place in src/fault/ allowed to touch sim::Rng; the
// dynreg-lint rule `fault-rng-bypass` enforces that (docs/ANALYSIS.md).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "replay/trace.h"
#include "sim/rng.h"

namespace dynreg::fault {

/// Seeds the fallback stream a ReplayDecisionSource switches to when the
/// recorded fault stream is exhausted (a perturbed schedule can reach more
/// decision points than the recording had).
inline constexpr std::uint64_t kFaultFallbackSalt = 0x66616c742d66616cULL;

/// Raw 64-bit fault-decision words plus the derived draws the Injector
/// actually consumes. The derivations are deliberately the same arithmetic
/// as sim::Rng's, so a Live source behaves exactly like drawing the Rng —
/// but every word flows through one overridable point.
class DecisionSource {
 public:
  virtual ~DecisionSource() = default;

  /// One raw decision word, stamped with the simulated time it was drawn.
  virtual std::uint64_t draw(sim::Time now) = 0;

  /// Uniform double in [0, 1) derived from one draw.
  double uniform01(sim::Time now) { return sim::unit01(draw(now)); }

  /// Biased coin derived from one draw.
  bool bernoulli(sim::Time now, double p) {
    return p > 0.0 && uniform01(now) < p;
  }

  /// Uniform integer in [lo, hi] (inclusive) derived from one draw.
  std::uint64_t uniform_int(sim::Time now, std::uint64_t lo, std::uint64_t hi) {
    return lo + draw(now) % (hi - lo + 1);
  }
};

/// Draws the run's own Rng — the plain, unrecorded path.
class LiveDecisionSource final : public DecisionSource {
 public:
  // dynreg-lint: allow(fault-rng-bypass): the decision layer IS the sanctioned Rng consumer
  explicit LiveDecisionSource(sim::Rng& rng) : rng_(rng) {}

  std::uint64_t draw(sim::Time) override { return rng_.next(); }

 private:
  // dynreg-lint: allow(fault-rng-bypass): the decision layer IS the sanctioned Rng consumer
  sim::Rng& rng_;
};

/// Wraps another source (normally Live) and appends every word to the
/// trace's fault stream, in draw order.
class RecordingDecisionSource final : public DecisionSource {
 public:
  RecordingDecisionSource(std::unique_ptr<DecisionSource> inner,
                          replay::Trace& out)
      : inner_(std::move(inner)), out_(out) {}

  std::uint64_t draw(sim::Time now) override {
    const std::uint64_t v = inner_->draw(now);
    out_.faults.push_back(replay::FaultRecord{now, v});
    return v;
  }

 private:
  std::unique_ptr<DecisionSource> inner_;
  replay::Trace& out_;
};

/// Feeds recorded words back positionally; once the stream is exhausted
/// (perturbed schedules only), falls back to a trace-seeded Rng so the run
/// stays deterministic without ever touching the run's own Rng.
class ReplayDecisionSource final : public DecisionSource {
 public:
  explicit ReplayDecisionSource(std::shared_ptr<const replay::Trace> trace)
      : trace_(std::move(trace)),
        fallback_(replay::fold64(trace_->seed, kFaultFallbackSalt)) {}

  std::uint64_t draw(sim::Time) override {
    if (next_ < trace_->faults.size()) return trace_->faults[next_++].value;
    return fallback_.next();
  }

 private:
  std::shared_ptr<const replay::Trace> trace_;
  std::size_t next_ = 0;
  // dynreg-lint: allow(fault-rng-bypass): exhausted-stream fallback, seeded from the trace
  sim::Rng fallback_;
};

}  // namespace dynreg::fault
