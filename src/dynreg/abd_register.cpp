#include "dynreg/abd_register.h"

#include <utility>

#include "dynreg/messages.h"

namespace dynreg {

AbdRegisterNode::AbdRegisterNode(sim::ProcessId id, node::Context& ctx, bool initial)
    : RegisterNode(id, ctx) {
  static_assert(sizeof(node::Node) + sizeof(Hot) <= 64,
                "on_message's hot fields must end within the receiver's first 64 bytes");
  hot_.replica = initial;
  if (hot_.replica) {
    hot_.value = kInitialValue;
    hot_.ts = Timestamp{0, 0};
  }
  // ABD has no join protocol: every member is immediately operational.
  notify_active();
}

AbdRegisterNode::Flight& AbdRegisterNode::flight() {
  if (!flight_) flight_ = std::make_unique<Flight>();
  return *flight_;
}

void AbdRegisterNode::release_if_idle() {
  if (flight_ && flight_->reads.empty() && flight_->writes.empty()) flight_.reset();
}

void AbdRegisterNode::apply(const Timestamp& ts, Value v) {
  if (hot_.ts < ts) {
    hot_.ts = ts;
    hot_.value = v;
  }
}

void AbdRegisterNode::read(const OpContext&, ReadCompletion done) {
  const std::uint64_t rid = next_rid_++;
  PendingRead& r = flight().reads[rid];
  r.done = std::move(done);
  if (hot_.replica) {
    r.repliers.insert(id());
    r.best_ts = hot_.ts;
    r.best_value = hot_.value;
    r.has_best = true;
  }
  broadcast(make_payload<msg::Request>(msg::kAbdReadQuery, rid));
  if (r.repliers.size() >= majority()) start_writeback(rid);  // n == 1 corner
}

void AbdRegisterNode::write(const OpContext&, Value v, WriteCompletion done) {
  // Advance past every timestamp this process has observed so a writer whose
  // local counter lags (multi-writer configs) cannot issue an already
  // superseded timestamp that replicas would ack but never store.
  sn_ = std::max(sn_, hot_.ts.sn) + 1;
  const Timestamp ts{sn_, id()};
  const std::uint64_t wid = next_wid_++;
  PendingWrite& w = flight().writes[wid];
  w.done = std::move(done);
  if (hot_.replica) {
    apply(ts, v);
    w.ackers.insert(id());
  }
  broadcast(make_payload<msg::Stamped>(msg::kAbdUpdate, wid, ts, v, true));
  maybe_finish_write(wid);  // n == 1 corner
}

void AbdRegisterNode::start_writeback(std::uint64_t rid) {
  // Phase 2: write the chosen value back to a majority before returning.
  PendingRead& r = flight_->reads.find(rid)->second;  // caller verified presence
  r.in_writeback = true;
  if (hot_.replica) {
    apply(r.best_ts, r.best_value);
    r.wb_ackers.insert(id());
  }
  broadcast(make_payload<msg::Stamped>(msg::kAbdWriteback, rid, r.best_ts, r.best_value, true));
  maybe_finish_read(rid);
}

void AbdRegisterNode::maybe_finish_read(std::uint64_t rid) {
  if (!flight_) return;
  const auto it = flight_->reads.find(rid);
  if (it == flight_->reads.end() || !it->second.in_writeback ||
      it->second.wb_ackers.size() < majority()) {
    return;
  }
  PendingRead finished = std::move(it->second);
  flight_->reads.erase(it);
  release_if_idle();
  finished.done(OpOutcome::kOk, finished.best_value);
}

void AbdRegisterNode::maybe_finish_write(std::uint64_t wid) {
  if (!flight_) return;
  const auto it = flight_->writes.find(wid);
  if (it == flight_->writes.end() || it->second.ackers.size() < majority()) return;
  PendingWrite finished = std::move(it->second);
  flight_->writes.erase(it);
  release_if_idle();
  finished.done(OpOutcome::kOk);
}

void AbdRegisterNode::on_departure() {
  // Resolve every in-flight quorum operation as dropped, in id order.
  const std::unique_ptr<Flight> f = std::move(flight_);
  if (!f) return;
  for (auto& [rid, r] : f->reads) {
    if (r.done) r.done(OpOutcome::kDroppedOnDeparture, kBottom);
  }
  for (auto& [wid, w] : f->writes) {
    if (w.done) w.done(OpOutcome::kDroppedOnDeparture);
  }
}

void AbdRegisterNode::on_message(sim::ProcessId from, const net::Payload& payload) {
  const net::PayloadTypeId type = payload.type_id();

  if (type == msg::kAbdReadQuery) {
    if (!hot_.replica) return;
    const auto& m = static_cast<const msg::Request&>(payload);
    reply<msg::Stamped>(from, msg::kAbdReadReply, m.id, hot_.ts, hot_.value, true);
  } else if (type == msg::kAbdReadReply) {
    const auto& m = static_cast<const msg::Stamped&>(payload);
    if (!flight_) return;
    const auto it = flight_->reads.find(m.id);
    if (it == flight_->reads.end() || it->second.in_writeback) return;
    PendingRead& r = it->second;
    r.repliers.insert(from);
    if (!r.has_best || r.best_ts < m.ts) {
      r.best_ts = m.ts;
      r.best_value = m.value;
      r.has_best = true;
    }
    if (r.repliers.size() >= majority()) start_writeback(m.id);
  } else if (type == msg::kAbdWriteback) {
    if (!hot_.replica) return;
    const auto& m = static_cast<const msg::Stamped&>(payload);
    apply(m.ts, m.value);
    reply<msg::Request>(from, msg::kAbdWritebackAck, m.id);
  } else if (type == msg::kAbdWritebackAck) {
    const auto& m = static_cast<const msg::Request&>(payload);
    if (!flight_) return;
    const auto it = flight_->reads.find(m.id);
    if (it == flight_->reads.end() || !it->second.in_writeback) return;
    it->second.wb_ackers.insert(from);
    maybe_finish_read(m.id);
  } else if (type == msg::kAbdUpdate) {
    if (!hot_.replica) return;
    const auto& m = static_cast<const msg::Stamped&>(payload);
    apply(m.ts, m.value);
    reply<msg::Request>(from, msg::kAbdUpdateAck, m.id);
  } else if (type == msg::kAbdUpdateAck) {
    const auto& m = static_cast<const msg::Request&>(payload);
    if (!flight_) return;
    const auto it = flight_->writes.find(m.id);
    if (it == flight_->writes.end()) return;
    it->second.ackers.insert(from);
    maybe_finish_write(m.id);
  }
}

}  // namespace dynreg
