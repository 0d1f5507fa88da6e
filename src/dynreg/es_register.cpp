#include "dynreg/es_register.h"

#include <algorithm>
#include <utility>

#include "dynreg/messages.h"

namespace dynreg {

EsRegisterNode::EsRegisterNode(sim::ProcessId id, node::Context& ctx, bool initial)
    : RegisterNode(id, ctx) {
  // An es.write or es.read delivery reads only its receiver's hot fields,
  // validate_replies among them.
  static_assert(sizeof(node::Node) + sizeof(Hot) <= 64,
                "on_message's hot fields must end within the receiver's first 64 bytes");
  hot_.validate_replies = config().validate_replies;
  if (initial) {
    hot_.value = kInitialValue;
    hot_.ts = Timestamp{0, 0};
    hot_.has_value = true;
    hot_.active = true;
    notify_active();
  } else {
    start_join();
  }
}

void EsRegisterNode::apply(const Timestamp& ts, Value v) {
  hot_.max_seen_sn = std::max(hot_.max_seen_sn, ts.sn);
  if (!hot_.has_value || hot_.ts < ts) {
    hot_.ts = ts;
    hot_.value = v;
    hot_.has_value = true;
  }
}

EsRegisterNode::Flight& EsRegisterNode::flight() {
  // The pending maps draw their nodes from the simulation's epoch arena
  // (ArenaAllocator<char> converts to each map's allocator).
  if (!flight_) flight_ = std::make_unique<Flight>(context().arena());
  return *flight_;
}

void EsRegisterNode::release_if_idle() {
  if (flight_ && !flight_->join_pending && flight_->reads.empty() && flight_->writes.empty()) {
    flight_.reset();
  }
}

// --- join -------------------------------------------------------------------

void EsRegisterNode::start_join() {
  Flight& f = flight();
  f.join_pending = true;
  broadcast(make_payload<msg::Request>(msg::kEsJoin, join_id()));
  schedule_after(retransmit_after(f.join_resends), [this] { retransmit_join(); });
}

void EsRegisterNode::retransmit_join() {
  if (!flight_ || !flight_->join_pending) return;
  broadcast(make_payload<msg::Request>(msg::kEsJoin, join_id()));
  schedule_after(retransmit_after(++flight_->join_resends), [this] { retransmit_join(); });
}

// --- read -------------------------------------------------------------------

void EsRegisterNode::read(const OpContext&, ReadCompletion done) {
  const std::uint64_t rid = next_rid_++;
  PendingRead& r = flight().reads.try_emplace(rid).first->second;
  r.done = std::move(done);
  // The reader's own copy counts towards the quorum without a message.
  r.repliers.insert(id());
  if (hot_.has_value) {
    r.best_ts = hot_.ts;
    r.best_value = hot_.value;
    r.has_value = true;
  }
  broadcast(make_payload<msg::Request>(msg::kEsRead, rid));
  schedule_after(retransmit_after(0), [this, rid] { retransmit_read(rid); });
  if (r.repliers.size() >= majority()) finish_read(rid);  // n == 1 corner
}

void EsRegisterNode::retransmit_read(std::uint64_t rid) {
  if (!flight_) return;
  const auto it = flight_->reads.find(rid);
  if (it == flight_->reads.end() || it->second.in_writeback) return;
  broadcast(make_payload<msg::Request>(msg::kEsRead, rid));
  schedule_after(retransmit_after(++it->second.resends),
                      [this, rid] { retransmit_read(rid); });
}

void EsRegisterNode::finish_read(std::uint64_t rid) {
  if (!flight_) return;
  const auto it = flight_->reads.find(rid);
  if (it == flight_->reads.end()) return;
  if (config().atomic_reads && !it->second.in_writeback) {
    start_writeback(rid);
    return;
  }
  PendingRead r = std::move(it->second);
  flight_->reads.erase(it);
  release_if_idle();
  r.done(OpOutcome::kOk, r.has_value ? r.best_value : kBottom);
}

void EsRegisterNode::start_writeback(std::uint64_t rid) {
  // ABD-style second phase: make the value about to be returned reach a
  // majority before returning it, so no later read can see an older one.
  Flight& f = *flight_;  // caller verified presence
  PendingRead& r = f.reads.find(rid)->second;
  r.in_writeback = true;
  const std::uint64_t wid = (next_wid_++ << 1) | 1;
  PendingWrite& w = f.writes.try_emplace(wid).first->second;
  w.ts = r.best_ts;
  w.value = r.best_value;
  w.is_read_writeback = true;
  w.rid = rid;
  w.ackers.insert(id());
  broadcast(make_payload<msg::Stamped>(msg::kEsWrite, wid, w.ts, w.value, true));
  schedule_after(retransmit_after(0), [this, wid] { retransmit_write(wid); });
  maybe_finish_write(wid);  // n == 1 corner: the self-vote is the quorum
}

// --- write ------------------------------------------------------------------

void EsRegisterNode::write(const OpContext&, Value v, WriteCompletion done) {
  // Timestamps advance past everything this process has seen, so concurrent
  // writers converge on a total (sn, writer id) order — the multi-writer
  // extension of Section 7.
  const Timestamp ts{std::max(hot_.ts.sn, hot_.max_seen_sn) + 1, id()};
  apply(ts, v);
  const std::uint64_t wid = next_wid_++ << 1;
  PendingWrite& w = flight().writes.try_emplace(wid).first->second;
  w.done = std::move(done);
  w.ts = ts;
  w.value = v;
  w.ackers.insert(id());
  broadcast(make_payload<msg::Stamped>(msg::kEsWrite, wid, ts, v, true));
  schedule_after(retransmit_after(0), [this, wid] { retransmit_write(wid); });
  maybe_finish_write(wid);  // n == 1 corner: the self-vote is the quorum
}

void EsRegisterNode::maybe_finish_write(std::uint64_t wid) {
  if (!flight_) return;
  const auto it = flight_->writes.find(wid);
  if (it == flight_->writes.end() || it->second.ackers.size() < majority()) return;
  PendingWrite w = std::move(it->second);
  flight_->writes.erase(it);
  if (w.is_read_writeback) {
    finish_read(w.rid);
    return;
  }
  release_if_idle();
  if (w.done) w.done(OpOutcome::kOk);
}

void EsRegisterNode::on_departure() {
  // Resolve every in-flight operation as dropped, in id order (deterministic
  // for the client's records). A read in its write-back phase owns its
  // completion through the reads map; the paired write-back entry in the
  // writes map has no completion of its own, so nothing resolves twice.
  const std::unique_ptr<Flight> f = std::move(flight_);
  if (!f) return;
  for (auto& [rid, r] : f->reads) {
    if (r.done) r.done(OpOutcome::kDroppedOnDeparture, kBottom);
  }
  for (auto& [wid, w] : f->writes) {
    if (w.done) w.done(OpOutcome::kDroppedOnDeparture);
  }
}

void EsRegisterNode::retransmit_write(std::uint64_t wid) {
  if (!flight_) return;
  const auto it = flight_->writes.find(wid);
  if (it == flight_->writes.end()) return;
  broadcast(
      make_payload<msg::Stamped>(msg::kEsWrite, wid, it->second.ts, it->second.value, true));
  schedule_after(retransmit_after(++it->second.resends),
                      [this, wid] { retransmit_write(wid); });
}

// --- message handling -------------------------------------------------------

void EsRegisterNode::on_message(sim::ProcessId from, const net::Payload& payload) {
  const net::PayloadTypeId type = payload.type_id();

  if (type == msg::kEsWrite) {
    // Every process — active or joining — stores newer values and acks.
    const auto& m = static_cast<const msg::Stamped&>(payload);
    if (rejects_envelope(m.ts, true)) return;  // forged-timestamp guard: no store, no ack
    apply(m.ts, m.value);
    reply<msg::Request>(from, msg::kEsAck, m.id);
  } else if (type == msg::kEsAck) {
    const auto& m = static_cast<const msg::Request&>(payload);
    if (!flight_) return;
    const auto it = flight_->writes.find(m.id);
    if (it == flight_->writes.end()) return;
    it->second.ackers.insert(from);
    maybe_finish_write(m.id);
  } else if (type == msg::kEsRead) {
    const auto& m = static_cast<const msg::Request&>(payload);
    if (hot_.active) {
      reply<msg::Stamped>(from, msg::kEsReply, m.id, hot_.ts, hot_.value, hot_.has_value);
    }
  } else if (type == msg::kEsReply) {
    const auto& m = static_cast<const msg::Stamped&>(payload);
    if (rejects_envelope(m.ts, m.has_value)) return;  // malformed/out-of-envelope reply
    if (!flight_) return;
    const auto it = flight_->reads.find(m.id);
    if (it == flight_->reads.end() || it->second.in_writeback) return;
    PendingRead& r = it->second;
    r.repliers.insert(from);
    if (m.has_value && (!r.has_value || r.best_ts < m.ts)) {
      r.best_ts = m.ts;
      r.best_value = m.value;
      r.has_value = true;
    }
    if (r.repliers.size() >= majority()) finish_read(m.id);
  } else if (type == msg::kEsJoin) {
    const auto& m = static_cast<const msg::Request&>(payload);
    if (hot_.active) {
      reply<msg::Stamped>(from, msg::kEsJoinReply, m.id, hot_.ts, hot_.value, hot_.has_value);
    }
  } else if (type == msg::kEsJoinReply) {
    const auto& m = static_cast<const msg::Stamped&>(payload);
    if (rejects_envelope(m.ts, m.has_value)) return;  // malformed/out-of-envelope reply
    if (!flight_ || !flight_->join_pending || m.id != join_id()) return;
    Flight& f = *flight_;
    f.join_repliers.insert(from);
    if (m.has_value && (!f.join_has_value || f.join_best_ts < m.ts)) {
      f.join_best_ts = m.ts;
      f.join_best_value = m.value;
      f.join_has_value = true;
    }
    if (f.join_repliers.size() >= majority()) {
      f.join_pending = false;
      if (f.join_has_value) apply(f.join_best_ts, f.join_best_value);
      release_if_idle();
      hot_.active = true;
      notify_active();
    }
  }
}

}  // namespace dynreg
