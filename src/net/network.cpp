#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <new>
#include <utility>

#include "sim/prefetch.h"

namespace dynreg::net {

namespace {

// Prefetch distances of the batched delivery loop, in copies ahead of the
// one being delivered: the recipient's slot first (one id-indexed load),
// then, once that slot is cached, the receiver object it points to. Chosen
// on perfbench quorum_scale (seed 1, n=1e5; reference-scaled wall_s,
// median of 8 runner processes, 4-vCPU Xeon VM): no prefetch 1.50 s;
// (slot, receiver) = (8, 4) 1.05 s, (16, 8) 1.05 s, (32, 16) 1.01 s,
// (48, 24) 1.05 s. The gain is flat across that range, within the run-to-run
// spread, and (16, 8) sits in its middle. The receiver prefetch covers
// bytes [0, 64) of the node, which can straddle two lines: the protocols
// keep everything a bulk handler reads there, the network handle it sends
// through included (node/node.h). Prefetching only the first line left the
// rest a miss: 0.84 s against 0.76 s for both lines (8 interleaved pairs,
// 8/8 won). While the handler still loaded its separately allocated
// Context, the second line had measured no clear gain (1.05 s -> 1.00 s).
constexpr std::uint32_t kSlotPrefetch = 16;
constexpr std::uint32_t kReceiverPrefetch = 8;

// Bytes of runs in a Unicast's first spill block (three single-copy runs);
// each further block doubles, up to kSpillMaxBlock (256 single-copy runs).
// A reply group is often a handful of copies, so the first block stays
// small; a 1e5-process quorum fans in thousands per tick.
constexpr std::uint32_t kSpillFirstBlock = 72;
constexpr std::uint32_t kSpillMaxBlock = 6144;

// Where a run may start at or after byte `offset` of a block: runs are
// 8-byte aligned.
constexpr std::uint32_t run_start(std::uint32_t offset) { return (offset + 7) & ~7u; }

}  // namespace

void Network::attach(sim::ProcessId id, Receiver* receiver) {
  assert(receiver != nullptr);
  if (id >= slots_.size()) slots_.resize(id + 1);
  Slot& slot = slots_[id];
  if (slot.receiver == nullptr) {
    // The churn system hands out increasing ids, so this is almost always
    // an O(1) append; the insert keeps the membership sorted regardless.
    if (attached_ids_.empty() || attached_ids_.back() < id) {
      attached_ids_.push_back(id);
    } else {
      attached_ids_.insert(
          std::lower_bound(attached_ids_.begin(), attached_ids_.end(), id), id);
    }
  }
  slot.receiver = receiver;
}

void Network::detach(sim::ProcessId id) {
  if (id >= slots_.size()) return;
  Slot& slot = slots_[id];
  if (slot.receiver == nullptr) return;
  slot.receiver = nullptr;
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
  if (fault_hook_ != nullptr && fault_hook_->cuts_armed() &&
      fault_hook_->link_cut(sim_.now(), hop_from, to)) {
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

void Network::send(sim::ProcessId from, sim::ProcessId to, const PayloadPtr& payload) {
  const Hop hop = hop_verdict(from, to, *payload);
  if (hop.lost) return;
  if (coalescing_) {
    Unicast* group = sim_.newest_as<Unicast>(sim_.now() + hop.delay);
    if (group != nullptr && group->network == this && group->to == to) {
      group->append(from, payload);
      return;
    }
  }
  // The point-to-point closure must never outgrow the scheduler's inline
  // capture budget: newest_as() finds only in-place Unicasts.
  static_assert(sizeof(Unicast) <= sim::InlineTask::kInlineCapacity,
                "delivery closure must stay inline — see sim/inline_task.h");
  sim_.schedule_after(hop.delay, Unicast(this, from, to, payload));
}

std::uint32_t Network::next_run(std::uint32_t at, std::uint32_t count) {
  return run_start(at + sizeof(Run) + (count - 1) * std::uint32_t{sizeof(sim::ProcessId)});
}

void Network::Unicast::append(sim::ProcessId sender, const PayloadPtr& p) {
  static_assert(alignof(Run) <= 8 && alignof(Spill) >= 8 && sizeof(Spill) % 8 == 0,
                "runs sit 8-byte aligned after the block header");
  const auto new_block = [this](std::uint32_t capacity) {
    sim::Arena& arena = network->sim_.arena();
    void* block = arena.allocate(sizeof(Spill) + capacity, alignof(Spill));
    Spill* b = new (block) Spill{&arena, nullptr, nullptr, nullptr, 0, capacity};
    b->tail = b;
    return b;
  };
  if (spill == nullptr) spill = new_block(kSpillFirstBlock);
  Spill* tail = spill->tail;
  Run* run = tail->open;
  if (run != nullptr && run->payload == p &&
      tail->used + sizeof(sim::ProcessId) <= tail->capacity) {
    run->more()[run->count - 1] = sender;
    ++run->count;
    tail->used += sizeof(sim::ProcessId);
    return;
  }
  std::uint32_t at = run_start(tail->used);
  if (at + sizeof(Run) > tail->capacity) {
    Spill* next = new_block(std::min(2 * tail->capacity, kSpillMaxBlock));
    tail->next = next;
    spill->tail = tail = next;
    at = 0;
  }
  tail->open = new (tail->runs() + at) Run{p, 1, sender};
  tail->used = at + sizeof(Run);
}

void Network::free_spill(Spill* head) noexcept {
  sim::Arena& arena = *head->arena;
  for (Spill* b = head; b != nullptr;) {
    Spill* next = b->next;
    for (std::uint32_t at = 0; at < b->used;) {
      Run* run = reinterpret_cast<Run*>(b->runs() + at);
      at = next_run(at, run->count);
      run->~Run();
    }
    arena.deallocate(b);
    b = next;
  }
}

void Network::deliver_spill(sim::ProcessId to, Spill& head) {
  for (Spill* b = &head; b != nullptr; b = b->next) {
    for (std::uint32_t at = 0; at < b->used;) {
      Run& run = *reinterpret_cast<Run*>(b->runs() + at);
      const sim::ProcessId* more = run.more();
      for (std::uint32_t k = 0; k < run.count; ++k) {
        // Each coalesced copy was one queued event in the per-copy design.
        sim_.audit_dispatch();
        deliver(k == 0 ? run.from : more[k - 1], to, run.payload);
      }
      at = next_run(at, run.count);
    }
  }
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
  const std::vector<sim::Duration>& arrivals = arrivals_scratch_;
  sim::Duration lo = Disseminator::kLost;
  sim::Duration hi = 0;
  std::uint32_t survivors = 0;
  for (const sim::Duration d : arrivals) {
    if (Disseminator::lost(d)) continue;
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
      if (!Disseminator::lost(d)) ++counts_scratch_[d - lo + 1];
    }
    for (std::size_t k = 1; k < counts_scratch_.size(); ++k) {
      counts_scratch_[k] += counts_scratch_[k - 1];
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!Disseminator::lost(arrivals[i])) {
        order_scratch_[counts_scratch_[arrivals[i] - lo]++] = i;
      }
    }
  } else {
    std::uint32_t k = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!Disseminator::lost(arrivals[i])) order_scratch_[k++] = i;
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
  const std::uint32_t count = batch.count;
  // Deliveries never run synchronously, so batches do not nest.
  coalescing_ = count >= kCoalesceMinBatch;
  for (std::uint32_t k = 0; k < count; ++k) {
    // Hints only, and always in bounds: a receiver may detach (or attach a
    // new id, growing slots_) before its copy comes up, and deliver()
    // re-reads the slot then. A stale receiver pointer is only prefetched,
    // never dereferenced.
    if (k + kSlotPrefetch < count && ids[k + kSlotPrefetch] < slots_.size()) {
      sim::prefetch_ro(&slots_[ids[k + kSlotPrefetch]]);
    }
    if (k + kReceiverPrefetch < count && ids[k + kReceiverPrefetch] < slots_.size()) {
      // A heap-allocated node is only 16-byte aligned, so its bytes [0, 64)
      // can straddle two lines. A detached slot is null, and null + 63 is
      // not a pointer to form.
      const Receiver* receiver = slots_[ids[k + kReceiverPrefetch]].receiver;
      if (receiver != nullptr) {
        sim::prefetch_ro(receiver);
        sim::prefetch_ro(reinterpret_cast<const char*>(receiver) + 63);
      }
    }
    // step() folded this event's dispatch for the first copy; every further
    // copy folds its own, so the digest matches one event per copy.
    if (k > 0) sim_.audit_dispatch();
    deliver(batch.from, ids[k], batch.payload);
  }
  coalescing_ = false;
}

void Network::deliver(sim::ProcessId from, sim::ProcessId to, const PayloadPtr& payload) {
  if (to >= slots_.size() || slots_[to].receiver == nullptr) {
    ++stats_.dropped_departed;  // receiver departed while the copy was in flight
    return;
  }
  ++stats_.delivered;
  // Byzantine transforms rewrite the copy at delivery time.
  const Payload* observed = payload.get();
  PayloadPtr replacement;
  if (fault_hook_ != nullptr && fault_hook_->transforms_armed()) {
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
  slots_[to].receiver->on_message(from, *observed);
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
