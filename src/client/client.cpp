#include "client/client.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace dynreg::client {

Client::Client(sim::Simulation& sim, churn::System& system,
               consistency::History& history, sim::Time horizon)
    : sim_(sim), system_(system), history_(history), horizon_(horizon) {}

void OpHandle::retired() const {
  std::fprintf(stderr,
               "client: OpHandle of operation %" PRIu64
               " read after its resolution hook returned; read what you need "
               "inside the hook\n",
               id_);
  std::abort();
}

sim::Duration Client::retry_delay(const Flight& f) const {
  const RetryPolicy& retry = f.options.retry;
  if (!retry.exponential || retry.backoff == 0) return retry.backoff;
  const std::uint32_t exp = std::min<std::uint32_t>(f.attempts - 1, 5);
  const sim::Duration base = retry.backoff << exp;
  // Jitter from a pure hash of (seed, op, attempt): deterministic per run,
  // different across ops/attempts, zero Rng draws (replay-transparent).
  const std::uint64_t h =
      sim::mix64(sim::mix64(sim_.seed() ^ (f.id * sim::kGolden64)) ^ f.attempts);
  return base + static_cast<sim::Duration>(h % retry.backoff);
}

RegisterNode* Client::node(sim::ProcessId id) {
  node::Node* n = system_.find(id);
  return n == nullptr ? nullptr : n->as_register();
}

std::uint32_t Client::new_flight(OpType type, Value v, sim::ProcessId target, bool session,
                                 OpOptions options, OpHook done) {
  std::uint32_t slot;
  if (free_flights_.empty()) {
    if (flight_slots_ % kChunk == 0) {
      flight_chunks_.push_back(std::make_unique<Flight[]>(kChunk));
    }
    slot = flight_slots_++;
  } else {
    slot = free_flights_.back();
    free_flights_.pop_back();
  }
  // A free slot has no station, no open attempt and no hook (resolve()
  // leaves it so); everything else is set here.
  Flight& f = flight_at(slot);
  f.id = next_id_++;
  f.type = type;
  f.value = v;
  f.invoked_at = sim_.now();
  f.attempts = 0;
  f.outcome = OpOutcome::kOk;
  f.resolved = false;
  f.target = target;
  f.session = session;
  f.options = std::move(options);
  f.on_resolved = std::move(done);
  return slot;
}

OpHandle Client::issue(std::uint32_t slot) {
  const Flight& f = flight_at(slot);
  const OpHandle handle(&f, f.id);
  if (f.session) {
    enqueue_session(slot);
  } else {
    start_attempt(slot);
  }
  return handle;
}

OpHandle Client::read(sim::ProcessId target, OpOptions options, OpHook done) {
  return issue(new_flight(OpType::kRead, kBottom, target, /*session=*/false,
                          std::move(options), std::move(done)));
}

OpHandle Client::write(sim::ProcessId target, Value v, OpOptions options, OpHook done) {
  return issue(new_flight(OpType::kWrite, v, target, /*session=*/false, std::move(options),
                          std::move(done)));
}

OpHandle Client::session_read(sim::ProcessId target, OpOptions options, OpHook done) {
  return issue(new_flight(OpType::kRead, kBottom, target, /*session=*/true,
                          std::move(options), std::move(done)));
}

OpHandle Client::session_write(sim::ProcessId target, Value v, OpOptions options,
                               OpHook done) {
  return issue(new_flight(OpType::kWrite, v, target, /*session=*/true, std::move(options),
                          std::move(done)));
}

std::optional<sim::ProcessId> Client::random_active() {
  const auto& actives = system_.active_ids();
  if (actives.empty()) return std::nullopt;
  const sim::ProcessId chosen =
      chooser_ != nullptr
          ? chooser_->choose_target(sim_.now(), actives)
          : actives[static_cast<std::size_t>(
                sim_.rng().uniform_int(0, actives.size() - 1))];
  if (target_observer_ != nullptr) target_observer_->on_target(sim_.now(), chosen);
  return chosen;
}

void Client::enqueue_session(std::uint32_t slot) {
  Flight& f = flight_at(slot);
  f.station = f.target;
  f.next_in_station = Flight::kNoSlot;
  if (f.target >= stations_.size()) stations_.resize(f.target + std::size_t{1});
  Station& st = stations_[f.target];
  if (st.head == Flight::kNoSlot) {
    st.head = st.tail = slot;
    start_attempt(slot);
  } else {
    flight_at(st.tail).next_in_station = slot;
    st.tail = slot;
  }
}

void Client::start_attempt(std::uint32_t slot) {
  Flight& f = flight_at(slot);
  const OpId id = f.id;
  const std::uint32_t attempt = ++f.attempts;
  if (attempt > 1) ++stats_.retries;  // a re-dispatch, not the first issue
  f.attempt_open = true;
  RegisterNode* reg = node(f.target);
  if (reg == nullptr) {
    // Nothing went on the wire (not counted as issued): the target departed
    // before this attempt could start — e.g. a queued session op whose
    // station process left, or a retry against the original target.
    finish_attempt(slot, OpOutcome::kDroppedOnDeparture, kBottom);
    return;
  }
  const sim::Time now = sim_.now();
  const OpContext ctx{id, now};
  if (f.type == OpType::kRead) {
    // Issued counts operations, not dispatches: a retry re-enters here but
    // is accounted under stats_.retries, so completion rates stay per-op.
    if (attempt == 1) ++stats_.reads_issued;
    f.history_op_or_responded_at = history_.begin_read(f.target, now);
    reg->read(ctx, [this, slot, id, attempt](OpOutcome o, Value v) {
      on_node_completion(slot, id, attempt, o, v);
    });
  } else {
    if (attempt == 1) ++stats_.writes_issued;
    f.history_op_or_responded_at = history_.begin_write(f.target, now, f.value);
    reg->write(ctx, f.value, [this, slot, id, attempt](OpOutcome o) {
      on_node_completion(slot, id, attempt, o, kBottom);
    });
  }
  // The attempt may already have resolved (sync reads complete inside the
  // invocation) and retired its slot; only a still-open attempt needs its
  // deadline armed.
  if (pending(slot, id) != nullptr && f.attempt_open && f.options.deadline) {
    sim_.schedule_after(*f.options.deadline, [this, slot, id, attempt] {
      on_deadline(slot, id, attempt);
    });
  }
}

// The callbacks below carry (slot, op id, attempt) and act only while the
// slot still holds their op unresolved: a resolved op's slot may already
// belong to a later op.

void Client::on_node_completion(std::uint32_t slot, OpId id, std::uint32_t attempt,
                                OpOutcome outcome, Value v) {
  // Late (post-timeout) or stale (previous attempt's) completions are
  // discarded: the op resolves exactly once, and each attempt is accounted
  // exactly once.
  const Flight* f = pending(slot, id);
  if (f == nullptr || !f->attempt_open || f->attempts != attempt) return;
  finish_attempt(slot, outcome, v);
}

void Client::on_deadline(std::uint32_t slot, OpId id, std::uint32_t attempt) {
  const Flight* f = pending(slot, id);
  if (f == nullptr || !f->attempt_open || f->attempts != attempt) return;
  finish_attempt(slot, OpOutcome::kTimedOut, kBottom);
}

void Client::finish_attempt(std::uint32_t slot, OpOutcome outcome, Value v) {
  Flight& f = flight_at(slot);
  f.attempt_open = false;
  const sim::Time now = sim_.now();
  if (outcome == OpOutcome::kOk) {
    if (f.type == OpType::kRead) {
      history_.complete_read(f.history_op_or_responded_at, now, v);
      ++stats_.reads_completed;
      if (v == kBottom) ++stats_.reads_of_bottom;
      stats_.read_latencies.push_back(static_cast<double>(now - f.invoked_at));
      f.value = v;
    } else {
      history_.complete_write(f.history_op_or_responded_at, now);
      ++stats_.writes_completed;
      stats_.write_latencies.push_back(static_cast<double>(now - f.invoked_at));
    }
    resolve(slot, OpOutcome::kOk);
    return;
  }

  // Failed attempt. Its history interval stays open: the operation may have
  // taken partial effect (a dropped write's broadcast may have landed), and
  // an open interval is exactly how the checkers model that.
  if (f.type == OpType::kRead) {
    if (outcome == OpOutcome::kDroppedOnDeparture) {
      ++stats_.reads_dropped;
    } else {
      ++stats_.reads_timed_out;
    }
  } else {
    if (outcome == OpOutcome::kDroppedOnDeparture) {
      ++stats_.writes_dropped;
    } else {
      ++stats_.writes_timed_out;
    }
  }

  if (f.attempts < f.options.retry.max_attempts && now < horizon_) {
    // The failed service attempt is over: free its station now so the FIFO
    // keeps draining during the backoff (the retry re-enters a station);
    // the retry itself is counted when it actually re-issues.
    if (f.station != Flight::kNoStation) {
      const sim::ProcessId st = f.station;
      f.station = Flight::kNoStation;
      release_station(st, f);
    }
    sim_.schedule_after(retry_delay(f), [this, slot, id = f.id, attempt = f.attempts + 1] {
      retry_attempt(slot, id, attempt);
    });
    return;
  }
  resolve(slot, outcome);
}

void Client::retry_attempt(std::uint32_t slot, OpId id, std::uint32_t attempt) {
  Flight* f = pending(slot, id);
  if (f == nullptr || f->attempt_open || f->attempts + 1 != attempt) return;
  if (node(f->target) == nullptr) {
    if (f->type == OpType::kWrite) {
      // Writes stay pinned to their writer; with the writer gone the
      // operation cannot be re-issued.
      resolve(slot, OpOutcome::kDroppedOnDeparture);
      return;
    }
    // Reads reconnect: re-target a uniformly random active process.
    const auto target = random_active();
    if (!target) {
      resolve(slot, OpOutcome::kDroppedOnDeparture);
      return;
    }
    f->target = *target;
  }
  if (f->session) {
    enqueue_session(slot);  // re-enter the new target's FIFO, never bypass it
  } else {
    start_attempt(slot);
  }
}

void Client::resolve(std::uint32_t slot, OpOutcome outcome) {
  Flight& f = flight_at(slot);
  // The slot's word turns from the history record into the response time
  // here, before the hook reads it.
  f.resolved = true;
  f.outcome = outcome;
  f.history_op_or_responded_at = sim_.now();
  if (f.on_resolved) {
    OpHook hook = std::move(f.on_resolved);
    hook(OpHandle(&f, f.id));
  }
  if (f.station != Flight::kNoStation) {
    const sim::ProcessId st = f.station;
    f.station = Flight::kNoStation;
    release_station(st, f);
  }
  f.id = Flight::kNoOp;  // retires every handle and callback of the op
  free_flights_.push_back(slot);
}

void Client::release_station(sim::ProcessId target, const Flight& head) {
  // Only the op in service releases, and it is the head: pop it.
  Station& st = stations_[target];
  st.head = head.next_in_station;
  if (st.head == Flight::kNoSlot) return;
  // Hand the station to the next queued op at a fresh event: resolution may
  // be running inside System::leave's drop cascade, where the departing
  // target is still half-attached — dispatching now would issue into a node
  // that is being torn down. Until then the queued op has no attempt, no
  // deadline and no retry pending, so it is still the head when this fires.
  sim_.schedule_after(0, [this, target] { start_attempt(stations_[target].head); });
}

}  // namespace dynreg::client
