#include "dynreg/es_register.h"

#include <algorithm>
#include <utility>

#include "dynreg/messages.h"

namespace dynreg {

EsRegisterNode::EsRegisterNode(sim::ProcessId id, node::Context& ctx, EsConfig config,
                               bool initial)
    : RegisterNode(id, ctx),
      ctx_(ctx),
      config_(std::move(config)),
      // The pending maps draw their nodes from the simulation's epoch arena
      // (ArenaAllocator<char> converts to each map's allocator).
      reads_(sim::ArenaAllocator<char>(ctx.arena())),
      writes_(sim::ArenaAllocator<char>(ctx.arena())) {
  static_assert(sizeof(node::Node) + sizeof(Hot) <= 64,
                "on_message's hot fields must end within the receiver's first 64 bytes");
  if (initial) {
    hot_.value = kInitialValue;
    hot_.ts = Timestamp{0, 0};
    hot_.has_value = true;
    hot_.active = true;
    ctx_.notify_active();
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

// --- join -------------------------------------------------------------------

void EsRegisterNode::start_join() {
  join_pending_ = true;
  join_id_ = static_cast<std::uint64_t>(id()) << 32;
  broadcast(make_payload<msg::Request>(msg::kEsJoin, join_id_));
  ctx_.schedule_after(retransmit_after(join_resends_), [this] { retransmit_join(); });
}

void EsRegisterNode::retransmit_join() {
  if (!join_pending_) return;
  broadcast(make_payload<msg::Request>(msg::kEsJoin, join_id_));
  ctx_.schedule_after(retransmit_after(++join_resends_), [this] { retransmit_join(); });
}

// --- read -------------------------------------------------------------------

void EsRegisterNode::read(const OpContext&, ReadCompletion done) {
  const std::uint64_t rid = next_rid_++;
  PendingRead& r = reads_.try_emplace(rid).first->second;
  r.done = std::move(done);
  // The reader's own copy counts towards the quorum without a message.
  r.repliers.insert(id());
  if (hot_.has_value) {
    r.best_ts = hot_.ts;
    r.best_value = hot_.value;
    r.has_value = true;
  }
  broadcast(make_payload<msg::Request>(msg::kEsRead, rid));
  ctx_.schedule_after(retransmit_after(0), [this, rid] { retransmit_read(rid); });
  if (r.repliers.size() >= majority()) finish_read(rid);  // n == 1 corner
}

void EsRegisterNode::retransmit_read(std::uint64_t rid) {
  const auto it = reads_.find(rid);
  if (it == reads_.end() || it->second.in_writeback) return;
  broadcast(make_payload<msg::Request>(msg::kEsRead, rid));
  ctx_.schedule_after(retransmit_after(++it->second.resends),
                      [this, rid] { retransmit_read(rid); });
}

void EsRegisterNode::finish_read(std::uint64_t rid) {
  const auto it = reads_.find(rid);
  if (it == reads_.end()) return;
  if (config_.atomic_reads && !it->second.in_writeback) {
    start_writeback(rid);
    return;
  }
  PendingRead r = std::move(it->second);
  reads_.erase(it);
  r.done(OpOutcome::kOk, r.has_value ? r.best_value : kBottom);
}

void EsRegisterNode::start_writeback(std::uint64_t rid) {
  // ABD-style second phase: make the value about to be returned reach a
  // majority before returning it, so no later read can see an older one.
  PendingRead& r = reads_.find(rid)->second;  // caller verified presence
  r.in_writeback = true;
  const std::uint64_t wid = (next_wid_++ << 1) | 1;
  PendingWrite& w = writes_.try_emplace(wid).first->second;
  w.ts = r.best_ts;
  w.value = r.best_value;
  w.is_read_writeback = true;
  w.rid = rid;
  w.ackers.insert(id());
  broadcast(make_payload<msg::Stamped>(msg::kEsWrite, wid, w.ts, w.value, true));
  ctx_.schedule_after(retransmit_after(0), [this, wid] { retransmit_write(wid); });
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
  PendingWrite& w = writes_.try_emplace(wid).first->second;
  w.done = std::move(done);
  w.ts = ts;
  w.value = v;
  w.ackers.insert(id());
  broadcast(make_payload<msg::Stamped>(msg::kEsWrite, wid, ts, v, true));
  ctx_.schedule_after(retransmit_after(0), [this, wid] { retransmit_write(wid); });
  maybe_finish_write(wid);  // n == 1 corner: the self-vote is the quorum
}

void EsRegisterNode::maybe_finish_write(std::uint64_t wid) {
  const auto it = writes_.find(wid);
  if (it == writes_.end() || it->second.ackers.size() < majority()) return;
  PendingWrite w = std::move(it->second);
  writes_.erase(it);
  if (w.is_read_writeback) {
    finish_read(w.rid);
  } else if (w.done) {
    w.done(OpOutcome::kOk);
  }
}

void EsRegisterNode::on_departure() {
  // Resolve every in-flight operation as dropped, in id order (deterministic
  // for the client's records). A read in its write-back phase owns its
  // completion through reads_; the paired write-back entry in writes_ has no
  // completion of its own, so nothing resolves twice.
  auto reads = std::move(reads_);
  reads_.clear();
  auto writes = std::move(writes_);
  writes_.clear();
  for (auto& [rid, r] : reads) {
    if (r.done) r.done(OpOutcome::kDroppedOnDeparture, kBottom);
  }
  for (auto& [wid, w] : writes) {
    if (w.done) w.done(OpOutcome::kDroppedOnDeparture);
  }
}

void EsRegisterNode::retransmit_write(std::uint64_t wid) {
  const auto it = writes_.find(wid);
  if (it == writes_.end()) return;
  broadcast(
      make_payload<msg::Stamped>(msg::kEsWrite, wid, it->second.ts, it->second.value, true));
  ctx_.schedule_after(retransmit_after(++it->second.resends),
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
    send(from, make_payload<msg::Request>(msg::kEsAck, m.id));
  } else if (type == msg::kEsAck) {
    const auto& m = static_cast<const msg::Request&>(payload);
    const auto it = writes_.find(m.id);
    if (it == writes_.end()) return;
    it->second.ackers.insert(from);
    maybe_finish_write(m.id);
  } else if (type == msg::kEsRead) {
    const auto& m = static_cast<const msg::Request&>(payload);
    if (hot_.active) {
      send(from, make_payload<msg::Stamped>(msg::kEsReply, m.id, hot_.ts, hot_.value,
                                            hot_.has_value));
    }
  } else if (type == msg::kEsReply) {
    const auto& m = static_cast<const msg::Stamped&>(payload);
    if (rejects_envelope(m.ts, m.has_value)) return;  // malformed/out-of-envelope reply
    const auto it = reads_.find(m.id);
    if (it == reads_.end() || it->second.in_writeback) return;
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
      send(from, make_payload<msg::Stamped>(msg::kEsJoinReply, m.id, hot_.ts, hot_.value,
                                            hot_.has_value));
    }
  } else if (type == msg::kEsJoinReply) {
    const auto& m = static_cast<const msg::Stamped&>(payload);
    if (rejects_envelope(m.ts, m.has_value)) return;  // malformed/out-of-envelope reply
    if (!join_pending_ || m.id != join_id_) return;
    join_repliers_.insert(from);
    if (m.has_value && (!join_has_value_ || join_best_ts_ < m.ts)) {
      join_best_ts_ = m.ts;
      join_best_value_ = m.value;
      join_has_value_ = true;
    }
    if (join_repliers_.size() >= majority()) {
      join_pending_ = false;
      if (join_has_value_) apply(join_best_ts_, join_best_value_);
      hot_.active = true;
      ctx_.notify_active();
    }
  }
}

}  // namespace dynreg
