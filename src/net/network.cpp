#include "net/network.h"

#include <algorithm>
#include <cstdint>
#include <new>
#include <utility>

namespace dynreg::net {

void Network::attach(sim::ProcessId id, Handler handler) {
  if (id >= slots_.size()) slots_.resize(id + 1);
  Slot& slot = slots_[id];
  if (!slot.attached) {
    // The churn system hands out increasing ids, so this is almost always
    // an O(1) append; the insert keeps the membership sorted regardless.
    if (attached_ids_.empty() || attached_ids_.back() < id) {
      attached_ids_.push_back(id);
    } else {
      attached_ids_.insert(
          std::lower_bound(attached_ids_.begin(), attached_ids_.end(), id), id);
    }
  }
  slot.handler = std::move(handler);
  slot.attached = true;
  ++slot.generation;
}

void Network::detach(sim::ProcessId id) {
  if (id >= slots_.size()) return;
  Slot& slot = slots_[id];
  if (!slot.attached) return;
  slot.attached = false;
  slot.handler.reset();  // release the closure's resources eagerly
  ++slot.generation;
  attached_ids_.erase(
      std::lower_bound(attached_ids_.begin(), attached_ids_.end(), id));
}

void Network::set_disseminator(std::unique_ptr<Disseminator> d) {
  disseminator_ = d != nullptr ? std::move(d) : std::make_unique<FlatDisseminator>();
}

Network::Hop Network::hop_verdict(sim::ProcessId hop_from, sim::ProcessId to,
                                  const Payload& payload) {
  // Partition cuts act on the physical edge and are checked BEFORE the delay
  // model: a cut copy consumes no Rng draw, so the recorded net stream stays
  // positionally aligned between faulted record and replay runs.
  if (fault_hook_ != nullptr && fault_hook_->link_cut(sim_.now(), hop_from, to)) {
    ++stats_.dropped_partition;
    return {true, 0};
  }
  ++stats_.sent;
  const DelayModel::Verdict verdict =
      delays_->verdict(sim_.now(), hop_from, to, payload, loss_rate_, sim_.rng());
  if (verdict.lost) {
    ++stats_.dropped_loss;
    return {true, 0};
  }
  return {false, verdict.delay < 1 ? 1 : verdict.delay};
}

void Network::send(sim::ProcessId from, sim::ProcessId to, PayloadPtr payload) {
  const Hop hop = hop_verdict(from, to, *payload);
  if (hop.lost) return;
  auto task = [this, from, to, payload = std::move(payload)] {
    deliver(from, to, payload);
  };
  // The point-to-point closure is one queued event per reply/ack; it must
  // never outgrow the scheduler's inline capture budget.
  static_assert(sizeof(task) <= sim::InlineTask::kInlineCapacity,
                "delivery closure must stay inline — see sim/inline_task.h");
  sim_.schedule_after(hop.delay, std::move(task));
}

void Network::broadcast(sim::ProcessId from, PayloadPtr payload) {
  // A broadcast addresses the membership at send time. Planning only draws
  // verdicts and scheduling only queues future deliveries (no handler runs
  // synchronously), so the membership cannot change under this walk.
  // Ascending id order matches the previous ordered-map fan-out, which keeps
  // the RNG draw sequence — and thus every run — bit-identical.
  recipients_scratch_.clear();
  for (const sim::ProcessId to : attached_ids_) {
    if (to != from) recipients_scratch_.push_back(to);
  }
  arrivals_scratch_.resize(recipients_scratch_.size());
  disseminator_->plan(*this, from, recipients_scratch_, *payload, arrivals_scratch_);
  schedule_batches(from, payload);
}

void Network::schedule_batches(sim::ProcessId from, const PayloadPtr& payload) {
  constexpr sim::Duration kLost = Disseminator::kLost;
  const std::vector<sim::Duration>& arrivals = arrivals_scratch_;
  sim::Duration lo = kLost;
  sim::Duration hi = 0;
  std::uint32_t survivors = 0;
  for (const sim::Duration d : arrivals) {
    if (d == kLost) continue;
    lo = std::min(lo, d);
    hi = std::max(hi, d);
    ++survivors;
  }
  if (survivors == 0) return;

  // Group the surviving positions by arrival offset, stably. Offsets span a
  // few delay bounds in practice, so a counting sort is linear; an
  // adversarial delay script with a far-flung offset falls back to a
  // comparison sort rather than a huge count table.
  order_scratch_.resize(survivors);
  const auto n = static_cast<std::uint32_t>(arrivals.size());
  if (hi - lo <= 2 * std::uint64_t{survivors} + 64) {
    counts_scratch_.assign(hi - lo + 2, 0);
    for (const sim::Duration d : arrivals) {
      if (d != kLost) ++counts_scratch_[d - lo + 1];
    }
    for (std::size_t k = 1; k < counts_scratch_.size(); ++k) {
      counts_scratch_[k] += counts_scratch_[k - 1];
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      if (arrivals[i] != kLost) order_scratch_[counts_scratch_[arrivals[i] - lo]++] = i;
    }
  } else {
    std::uint32_t k = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (arrivals[i] != kLost) order_scratch_[k++] = i;
    }
    std::stable_sort(order_scratch_.begin(), order_scratch_.end(),
                     [&arrivals](std::uint32_t a, std::uint32_t b) {
                       return arrivals[a] < arrivals[b];
                     });
  }

  for (std::uint32_t begin = 0; begin < survivors;) {
    const sim::Duration offset = arrivals[order_scratch_[begin]];
    std::uint32_t end = begin + 1;
    while (end < survivors && arrivals[order_scratch_[end]] == offset) ++end;
    auto task = [this, batch = make_batch(from, payload, &order_scratch_[begin],
                                          end - begin)] { deliver_batch(*batch); };
    static_assert(sizeof(task) <= sim::InlineTask::kInlineCapacity,
                  "batch closure must stay inline — see sim/inline_task.h");
    sim_.schedule_after(offset, std::move(task));
    begin = end;
  }
}

Network::BatchPtr Network::make_batch(sim::ProcessId from, const PayloadPtr& payload,
                                      const std::uint32_t* positions,
                                      std::uint32_t count) {
  sim::Arena& arena = sim_.arena();
  void* block = arena.allocate(sizeof(Batch) + count * sizeof(sim::ProcessId),
                               alignof(Batch));
  BatchPtr batch(new (block) Batch{payload, from, count}, BatchDeleter{&arena});
  sim::ProcessId* ids = batch->ids();
  for (std::uint32_t k = 0; k < count; ++k) ids[k] = recipients_scratch_[positions[k]];
  return batch;
}

void Network::deliver_batch(Batch& batch) {
  const sim::ProcessId* ids = batch.ids();
  for (std::uint32_t k = 0; k < batch.count; ++k) {
    // step() folded this event's dispatch for the first copy; every further
    // copy folds its own, so the digest matches one event per copy.
    if (k > 0) sim_.audit_dispatch();
    deliver(batch.from, ids[k], batch.payload);
  }
}

void Network::deliver(sim::ProcessId from, sim::ProcessId to, const PayloadPtr& payload) {
  if (to >= slots_.size() || !slots_[to].attached) {
    ++stats_.dropped_departed;  // receiver departed while the copy was in flight
    return;
  }
  ++stats_.delivered;
  // Byzantine transforms rewrite the copy at delivery time.
  const Payload* observed = payload.get();
  PayloadPtr replacement;
  if (fault_hook_ != nullptr) {
    replacement = fault_hook_->transform(sim_.now(), from, to, payload);
    if (replacement != nullptr) {
      observed = replacement.get();
      ++stats_.transformed;
    }
  }
  const PayloadTypeId type = observed->type_id();
  if (type >= delivered_by_type_id_.size()) delivered_by_type_id_.resize(type + 1, 0);
  ++delivered_by_type_id_[type];
  // Audit builds fold each delivery's shape into the event-stream hash
  // (no-op otherwise) — a reordered or re-addressed message diverges the
  // digest even when the counters happen to agree.
  sim_.audit_note((std::uint64_t{from} << 40) | (std::uint64_t{to} << 16) | type);
  slots_[to].handler(from, *observed);
}

std::map<std::string, std::uint64_t> Network::delivered_by_type() const {
  std::map<std::string, std::uint64_t> by_name;
  for (std::size_t id = 0; id < delivered_by_type_id_.size(); ++id) {
    if (delivered_by_type_id_[id] == 0) continue;
    by_name.emplace(PayloadTypeRegistry::name(static_cast<PayloadTypeId>(id)),
                    delivered_by_type_id_[id]);
  }
  return by_name;
}

}  // namespace dynreg::net
