#include "dynreg/es_register.h"

#include <algorithm>
#include <utility>

#include "dynreg/messages.h"

namespace dynreg {

EsRegisterNode::EsRegisterNode(sim::ProcessId id, node::Context& ctx, EsConfig config,
                               bool initial)
    : RegisterNode(id),
      ctx_(ctx),
      config_(std::move(config)),
      // The pending maps draw their nodes from the simulation's epoch arena
      // (ArenaAllocator<char> converts to each map's allocator).
      reads_(sim::ArenaAllocator<char>(ctx.arena())),
      writes_(sim::ArenaAllocator<char>(ctx.arena())) {
  if (initial) {
    value_ = config_.initial_value;
    ts_ = Timestamp{0, 0};
    has_value_ = true;
    active_ = true;
    ctx_.notify_active();
  } else {
    start_join();
  }
}

void EsRegisterNode::apply(const Timestamp& ts, Value v) {
  max_seen_sn_ = std::max(max_seen_sn_, ts.sn);
  if (!has_value_ || ts_ < ts) {
    ts_ = ts;
    value_ = v;
    has_value_ = true;
  }
}

// --- join -------------------------------------------------------------------

void EsRegisterNode::start_join() {
  join_pending_ = true;
  join_id_ = static_cast<std::uint64_t>(id()) << 32;
  ctx_.broadcast(ctx_.make_payload<msg::EsJoin>(join_id_));
  ctx_.schedule_after(retransmit_after(join_resends_), [this] { retransmit_join(); });
}

void EsRegisterNode::retransmit_join() {
  if (!join_pending_) return;
  ctx_.broadcast(ctx_.make_payload<msg::EsJoin>(join_id_));
  ctx_.schedule_after(retransmit_after(++join_resends_), [this] { retransmit_join(); });
}

// --- read -------------------------------------------------------------------

void EsRegisterNode::read(const OpContext&, ReadCompletion done) {
  const std::uint64_t rid = next_rid_++;
  PendingRead& r = reads_.try_emplace(rid).first->second;
  r.done = std::move(done);
  // The reader's own copy counts towards the quorum without a message.
  r.repliers.insert(id());
  if (has_value_) {
    r.best_ts = ts_;
    r.best_value = value_;
    r.has_value = true;
  }
  ctx_.broadcast(ctx_.make_payload<msg::EsRead>(rid));
  ctx_.schedule_after(retransmit_after(0), [this, rid] { retransmit_read(rid); });
  if (r.repliers.size() >= majority()) finish_read(rid);  // n == 1 corner
}

void EsRegisterNode::retransmit_read(std::uint64_t rid) {
  const auto it = reads_.find(rid);
  if (it == reads_.end() || it->second.in_writeback) return;
  ctx_.broadcast(ctx_.make_payload<msg::EsRead>(rid));
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
  ctx_.broadcast(ctx_.make_payload<msg::EsWrite>(wid, w.ts, w.value));
  ctx_.schedule_after(retransmit_after(0), [this, wid] { retransmit_write(wid); });
  maybe_finish_write(wid);  // n == 1 corner: the self-vote is the quorum
}

// --- write ------------------------------------------------------------------

void EsRegisterNode::write(const OpContext&, Value v, WriteCompletion done) {
  // Timestamps advance past everything this process has seen, so concurrent
  // writers converge on a total (sn, writer id) order — the multi-writer
  // extension of Section 7.
  const Timestamp ts{std::max(ts_.sn, max_seen_sn_) + 1, id()};
  apply(ts, v);
  const std::uint64_t wid = next_wid_++ << 1;
  PendingWrite& w = writes_.try_emplace(wid).first->second;
  w.done = std::move(done);
  w.ts = ts;
  w.value = v;
  w.ackers.insert(id());
  ctx_.broadcast(ctx_.make_payload<msg::EsWrite>(wid, ts, v));
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
  ctx_.broadcast(ctx_.make_payload<msg::EsWrite>(wid, it->second.ts, it->second.value));
  ctx_.schedule_after(retransmit_after(++it->second.resends),
                      [this, wid] { retransmit_write(wid); });
}

// --- message handling -------------------------------------------------------

void EsRegisterNode::on_message(sim::ProcessId from, const net::Payload& payload) {
  const net::PayloadTypeId type = payload.type_id();

  if (type == msg::EsWrite::kTypeId) {
    // Every process — active or joining — stores newer values and acks.
    const auto& m = static_cast<const msg::EsWrite&>(payload);
    if (rejects_envelope(m.ts, true)) return;  // forged-timestamp guard: no store, no ack
    apply(m.ts, m.value);
    ctx_.send(from, ctx_.make_payload<msg::EsAck>(m.wid));
  } else if (type == msg::EsAck::kTypeId) {
    const auto& m = static_cast<const msg::EsAck&>(payload);
    const auto it = writes_.find(m.wid);
    if (it == writes_.end()) return;
    it->second.ackers.insert(from);
    maybe_finish_write(m.wid);
  } else if (type == msg::EsRead::kTypeId) {
    const auto& m = static_cast<const msg::EsRead&>(payload);
    if (active_) {
      ctx_.send(from, ctx_.make_payload<msg::EsReply>(m.rid, ts_, value_, has_value_));
    }
  } else if (type == msg::EsReply::kTypeId) {
    const auto& m = static_cast<const msg::EsReply&>(payload);
    if (rejects_envelope(m.ts, m.has_value)) return;  // malformed/out-of-envelope reply
    const auto it = reads_.find(m.rid);
    if (it == reads_.end() || it->second.in_writeback) return;
    PendingRead& r = it->second;
    r.repliers.insert(from);
    if (m.has_value && (!r.has_value || r.best_ts < m.ts)) {
      r.best_ts = m.ts;
      r.best_value = m.value;
      r.has_value = true;
    }
    if (r.repliers.size() >= majority()) finish_read(m.rid);
  } else if (type == msg::EsJoin::kTypeId) {
    const auto& m = static_cast<const msg::EsJoin&>(payload);
    if (active_) {
      ctx_.send(from,
                ctx_.make_payload<msg::EsJoinReply>(m.jid, ts_, value_, has_value_));
    }
  } else if (type == msg::EsJoinReply::kTypeId) {
    const auto& m = static_cast<const msg::EsJoinReply&>(payload);
    if (rejects_envelope(m.ts, m.has_value)) return;  // malformed/out-of-envelope reply
    if (!join_pending_ || m.jid != join_id_) return;
    join_repliers_.insert(from);
    if (m.has_value && (!join_has_value_ || join_best_ts_ < m.ts)) {
      join_best_ts_ = m.ts;
      join_best_value_ = m.value;
      join_has_value_ = true;
    }
    if (join_repliers_.size() >= majority()) {
      join_pending_ = false;
      if (join_has_value_) apply(join_best_ts_, join_best_value_);
      active_ = true;
      ctx_.notify_active();
    }
  }
}

}  // namespace dynreg
