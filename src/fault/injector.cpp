#include "fault/injector.h"

#include <algorithm>

#include "dynreg/messages.h"
#include "dynreg/register_node.h"
#include "net/payload.h"
#include "sim/rng.h"

namespace dynreg::fault {

Injector::Injector(sim::Simulation& sim, churn::System& system,
                   net::Network& net, Plan plan, DecisionSource& decisions,
                   std::vector<sim::ProcessId> exempt)
    : sim_(sim),
      system_(system),
      net_(net),
      plan_(plan),
      decisions_(decisions),
      exempt_(std::move(exempt)) {
  // The network asks link_cut only while a partition is active, and
  // transform only when the plan arms Byzantine faults at all.
  arm_cuts(false);
  arm_transforms(plan_.byzantine_enabled());
}

void Injector::start() {
  net_.set_fault_hook(this);
  if (plan_.byzantine_enabled()) {
    // One salt fixes the faulty set for the whole run: membership is a pure
    // hash of (salt, id), so even processes spawned later land on a
    // deterministic honesty assignment.
    byz_salt_ = decisions_.draw(sim_.now());
  }
  if (plan_.crash_enabled() || plan_.partition_enabled()) {
    sim_.schedule_after(plan_.tick, [this] { tick(); });
  }
}

void Injector::tick() {
  const sim::Time now = sim_.now();
  // Decision-draw order within a tick is fixed (partition, then crash):
  // whether each draw happens depends only on the Plan and on deterministic
  // run state, so recording and replay stay positionally aligned.
  if (plan_.partition_enabled() && !cuts_armed()) {
    const double p = plan_.partition.rate * static_cast<double>(plan_.tick);
    if (decisions_.bernoulli(now, p)) {
      partition_salt_ = decisions_.draw(now);
      arm_cuts(true);
      ++stats_.partitions;
      sim_.schedule_after(plan_.partition.duration, [this] {
        arm_cuts(false);
        ++stats_.heals;
      });
    }
  }
  if (plan_.crash_enabled()) {
    crash_credit_ += plan_.crash.rate * static_cast<double>(plan_.tick);
    while (crash_credit_ >= 1.0) {
      crash_credit_ -= 1.0;
      crash_one(now);
    }
  }
  sim_.schedule_after(plan_.tick, [this] { tick(); });
}

void Injector::crash_one(sim::Time now) {
  // Victims come from the active membership minus the exempt set (the
  // designated writers, matching the churn system's own exemption). An empty
  // candidate set skips the event without drawing — membership is
  // deterministic, so record and replay skip identically.
  const std::vector<sim::ProcessId>& active = system_.active_ids();
  candidates_.clear();
  for (const sim::ProcessId id : active) {
    if (std::find(exempt_.begin(), exempt_.end(), id) == exempt_.end()) {
      candidates_.push_back(id);
    }
  }
  if (candidates_.empty()) return;

  const std::uint64_t idx =
      decisions_.uniform_int(now, 0, candidates_.size() - 1);
  const sim::ProcessId victim = candidates_[idx];
  const bool recover = decisions_.bernoulli(now, plan_.crash.recover_fraction);

  DurableImage image;  // empty = volatile restart
  if (recover && plan_.crash.restart == RestartState::kDurable) {
    if (node::Node* n = system_.find(victim)) {
      if (const RegisterNode* reg = n->as_register()) image = reg->crash_image();
    }
  }

  // Direct leave()/spawn() calls bypass the ChurnObserver by design: injected
  // crashes re-occur from the replayed fault stream, so recording them into
  // the churn stream as well would double them on replay.
  system_.leave(victim);
  ++stats_.crashes;

  if (recover) {
    sim_.schedule_after(plan_.crash.recovery_delay, [this, image] {
      const sim::ProcessId id = system_.spawn();
      ++stats_.recoveries;
      if (image.has_value) {
        if (node::Node* n = system_.find(id)) {
          if (RegisterNode* reg = n->as_register()) reg->restore(image);
        }
      }
    });
  }
}

bool Injector::on_minority_side(sim::ProcessId id) const {
  // Exempt processes (the designated writers) always land on the majority
  // side: a partition models replicas losing connectivity, not the writer
  // itself vanishing — the paper pins the writer inside the system the same
  // way. Without this, a cut that hashes the writer into the minority would
  // silence its broadcasts and conflate a partition fault with writer loss.
  if (std::find(exempt_.begin(), exempt_.end(), id) != exempt_.end()) {
    return false;
  }
  return sim::unit01(replay::fold64(partition_salt_, id)) < plan_.partition.fraction;
}

bool Injector::is_byzantine(sim::ProcessId id) const {
  if (std::find(exempt_.begin(), exempt_.end(), id) != exempt_.end()) {
    return false;  // designated writers stay honest; the adversary is inside
  }
  return sim::unit01(replay::fold64(byz_salt_, id)) < plan_.byzantine.fraction;
}

bool Injector::link_cut(sim::Time /*now*/, sim::ProcessId from,
                        sim::ProcessId to) {
  if (!cuts_armed()) return false;
  const bool a = on_minority_side(from);
  const bool b = on_minority_side(to);
  // Asymmetric = lossy uplink: only minority->majority traffic is cut, so
  // the majority's broadcasts still reach everyone but replies from the
  // minority are lost. Symmetric cuts drop both directions.
  if (plan_.partition.asymmetric) return a && !b;
  return a != b;
}

net::PayloadPtr Injector::transform(sim::Time now, sim::ProcessId from,
                                    sim::ProcessId to,
                                    const net::PayloadPtr& payload) {
  if (!plan_.byzantine_enabled()) return nullptr;
  // The adversary rewrites only (ts, value) records that claim a value:
  // transforming a request, or a reply holding no value, would mean
  // fabricating protocol ids, which the delivery-time seam deliberately
  // does not do.
  const msg::Stamped* m = msg::stamped(*payload);
  if (m == nullptr || !m->has_value) return nullptr;
  // Stash the earliest (ts, value) the wire carried — fuel for the
  // stale-replay transform. A pure observation: no decision draw.
  if (!have_stale_) {
    stale_ts_ = m->ts;
    stale_value_ = m->value;
    have_stale_ = true;
  }
  if (!is_byzantine(from)) return nullptr;
  if (!decisions_.bernoulli(now, plan_.byzantine.transform_rate)) {
    return nullptr;
  }
  return transform_copy(decisions_.draw(now), from, to, *m);
}

net::PayloadPtr Injector::transform_copy(std::uint64_t word,
                                         sim::ProcessId from,
                                         sim::ProcessId to,
                                         const msg::Stamped& m) {
  enum Kind : std::uint8_t { kEquivocate, kStale, kForge, kCorrupt };
  Kind kinds[4];
  std::size_t count = 0;
  if (plan_.byzantine.equivocate) kinds[count++] = kEquivocate;
  if (plan_.byzantine.stale_replay) kinds[count++] = kStale;
  if (plan_.byzantine.forge) kinds[count++] = kForge;
  if (plan_.byzantine.corrupt) kinds[count++] = kCorrupt;
  // byzantine_enabled() guaranteed count > 0. The low bits pick the kind;
  // the rest of the word parameterizes it.
  Kind kind = kinds[word % count];
  const std::uint64_t d = word >> 3;
  if (kind == kStale && !have_stale_) kind = kCorrupt;  // no stash yet

  Timestamp ts = m.ts;
  Value value = m.value;
  switch (kind) {
    case kEquivocate:
      // Same timestamp, recipient-dependent value: different recipients of
      // one broadcast observe different "copies" of the same write.
      value = m.value + 1 + static_cast<Value>(to % 7);
      break;
    case kStale:
      // Re-send the oldest observation the wire carried, as if the sender
      // had never learned anything since.
      ts = stale_ts_;
      value = stale_value_;
      break;
    case kForge:
      // Fabricated far-future timestamp claiming authorship: sn jumps far
      // enough (>= +100) that the ES envelope guard (kTsEnvelope, 64) can
      // tell it from benign lag, which stays close to the frontier.
      ts = Timestamp{m.ts.sn + 100 + (d % 924), from};
      value = m.value ^ 0x5a5a5a5;
      break;
    case kCorrupt:
      // Bit corruption of the value alone; the timestamp stays plausible.
      value = m.value ^ static_cast<Value>(1 + (d % 255));
      break;
  }
  // Same tag and operation id; only (ts, value) is the adversary's.
  return net::make_payload_in<msg::Stamped>(sim_.blocks(), m.type_id(), m.id, ts, value, true);
}

}  // namespace dynreg::fault
