#include "dynreg/sync_register.h"

#include <utility>

#include "dynreg/messages.h"

namespace dynreg {

SyncRegisterNode::SyncRegisterNode(sim::ProcessId id, node::Context& ctx,
                                   SyncConfig config, bool initial)
    : RegisterNode(id, ctx), ctx_(ctx), config_(std::move(config)) {
  static_assert(sizeof(node::Node) + sizeof(Hot) <= 64,
                "on_message's hot fields must end within the receiver's first 64 bytes");
  if (initial) {
    hot_.value = kInitialValue;
    hot_.ts = Timestamp{0, 0};
    hot_.has_value = true;
    hot_.active = true;
    ctx_.notify_active();
    schedule_refresh();
  } else {
    hot_.joining = true;
    if (config_.wait_before_inquiry) {
      // The initial delta wait guarantees any WRITE broadcast concurrent
      // with the join has landed at every active process before their
      // replies are generated (Figure 3b).
      ctx_.schedule_after(config_.delta, [this] { start_inquiry(); });
    } else {
      start_inquiry();
    }
  }
}

void SyncRegisterNode::start_inquiry() {
  broadcast(make_payload<msg::Request>(msg::kSyncInquiry, 0));
  // A reply takes at most delta (inquiry) + delta (reply) to round-trip;
  // footnote 4 tightens the return leg to a known delta'.
  const sim::Duration window =
      config_.delta + (config_.delta_pp ? *config_.delta_pp : config_.delta);
  ctx_.schedule_after(window, [this] { finish_join(); });
}

void SyncRegisterNode::finish_join() {
  hot_.joining = false;
  hot_.active = true;
  ctx_.notify_active();
  // Answer inquiries that arrived while we were still joining.
  for (const sim::ProcessId j : pending_inquiries_) {
    send(j, make_payload<msg::Stamped>(msg::kSyncReply, 0, hot_.ts, hot_.value, hot_.has_value));
  }
  pending_inquiries_.clear();
  schedule_refresh();
}

void SyncRegisterNode::apply(const Timestamp& ts, Value v) {
  if (!hot_.has_value || hot_.ts < ts) {
    hot_.ts = ts;
    hot_.value = v;
    hot_.has_value = true;
  }
}

void SyncRegisterNode::schedule_refresh() {
  if (!config_.refresh_interval) return;
  ctx_.schedule_after(*config_.refresh_interval, [this] {
    if (hot_.active && hot_.has_value) {
      broadcast(make_payload<msg::Stamped>(msg::kSyncRefresh, 0, hot_.ts, hot_.value, true));
    }
    schedule_refresh();
  });
}

void SyncRegisterNode::on_message(sim::ProcessId from, const net::Payload& payload) {
  const net::PayloadTypeId type = payload.type_id();
  if (type == msg::kSyncWrite || type == msg::kSyncRefresh) {
    const auto& m = static_cast<const msg::Stamped&>(payload);
    apply(m.ts, m.value);
  } else if (type == msg::kSyncReply) {
    // Replies feed the join phase only; one arriving after the collection
    // window closed is discarded (this is exactly what makes the no-wait
    // variant of Figure 3a unsafe).
    const auto& m = static_cast<const msg::Stamped&>(payload);
    if (hot_.joining && m.has_value) apply(m.ts, m.value);
  } else if (type == msg::kSyncInquiry) {
    if (hot_.active) {
      send(from, make_payload<msg::Stamped>(msg::kSyncReply, 0, hot_.ts, hot_.value,
                                            hot_.has_value));
    } else {
      pending_inquiries_.push_back(from);
    }
  }
}

void SyncRegisterNode::read(const OpContext&, ReadCompletion done) {
  // Reads are local and instantaneous — the "fast reads" design point. A
  // read can therefore never be dropped mid-flight: it resolves before the
  // invocation returns.
  done(OpOutcome::kOk, hot_.value);
}

void SyncRegisterNode::write(const OpContext&, Value v, WriteCompletion done) {
  Timestamp ts{hot_.ts.sn + 1, id()};
  apply(ts, v);
  broadcast(make_payload<msg::Stamped>(msg::kSyncWrite, 0, ts, v, true));
  // In the synchronous model every copy lands within delta; the write
  // returns exactly then (Section 3.3). The completion waits in
  // pending_writes_ (not inside the timer) so a departure can resolve it.
  const std::uint64_t wid = next_wid_++;
  pending_writes_.emplace_back(wid, std::move(done));
  ctx_.schedule_after(config_.delta, [this, wid] { finish_write(wid); });
}

void SyncRegisterNode::finish_write(std::uint64_t wid) {
  // Writes all wait the same delta, so their timers fire in issue order and
  // the finishing write is always the queue's front. (A cleared queue —
  // departure resolved everything — cannot be observed here: departure also
  // cancels the timers.)
  if (pending_writes_.empty() || pending_writes_.front().first != wid) return;
  WriteCompletion done = std::move(pending_writes_.front().second);
  pending_writes_.pop_front();
  done(OpOutcome::kOk);
}

void SyncRegisterNode::on_departure() {
  // Resolve every in-flight write as dropped (in issue order, so the
  // client's records resolve deterministically). Reads are instantaneous
  // and never pend; join state has no client-visible operation attached.
  auto pending = std::move(pending_writes_);
  pending_writes_.clear();
  for (auto& [wid, done] : pending) {
    if (done) done(OpOutcome::kDroppedOnDeparture);
  }
}

}  // namespace dynreg
