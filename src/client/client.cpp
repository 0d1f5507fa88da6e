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

sim::Duration Client::retry_delay(OpId id, const OpRecord& rec,
                                  const RetryPolicy& retry) const {
  if (!retry.exponential || retry.backoff == 0) return retry.backoff;
  const std::uint32_t exp = std::min<std::uint32_t>(rec.attempts - 1, 5);
  const sim::Duration base = retry.backoff << exp;
  // Jitter from a pure hash of (seed, op, attempt): deterministic per run,
  // different across ops/attempts, zero Rng draws (replay-transparent).
  const std::uint64_t h =
      sim::mix64(sim::mix64(sim_.seed() ^ (id * sim::kGolden64)) ^ rec.attempts);
  return base + static_cast<sim::Duration>(h % retry.backoff);
}

RegisterNode* Client::node(sim::ProcessId id) {
  return dynamic_cast<RegisterNode*>(system_.find(id));
}

OpId Client::new_record(OpType type, sim::ProcessId target, bool session,
                        OpOptions options, OpHook done) {
  const OpId id = next_id_++;
  if (id == Flight::kNoOp) {
    // Session FIFOs link ops by 32-bit id and read kNoOp as "no op".
    std::fprintf(stderr,
                 "client: operation id %" PRIu64
                 " would collide with the session FIFO's end marker; a client "
                 "issues at most %" PRIu64 " operations\n",
                 id, OpId{Flight::kNoOp});
    std::abort();
  }
  if (id % kChunk == 0) chunks_.push_back(std::make_unique<OpRecord[]>(kChunk));
  OpRecord& rec = record(id);
  rec.type = type;
  rec.invoked_at = sim_.now();
  if (free_flights_.empty()) {
    if (flight_slots_ % kChunk == 0) {
      flight_chunks_.push_back(std::make_unique<Flight[]>(kChunk));
    }
    rec.flight_or_responded_at = flight_slots_++;
  } else {
    rec.flight_or_responded_at = free_flights_.back();
    free_flights_.pop_back();
  }
  Flight& f = flight(rec);
  f.target = target;
  f.session = session;
  f.options = std::move(options);
  f.on_resolved = std::move(done);
  return id;
}

OpHandle Client::read(sim::ProcessId target, OpOptions options, OpHook done) {
  const OpId id =
      new_record(OpType::kRead, target, /*session=*/false, std::move(options), std::move(done));
  start_attempt(id);
  return OpHandle(&record(id), id);
}

OpHandle Client::write(sim::ProcessId target, Value v, OpOptions options, OpHook done) {
  const OpId id =
      new_record(OpType::kWrite, target, /*session=*/false, std::move(options), std::move(done));
  record(id).value = v;
  start_attempt(id);
  return OpHandle(&record(id), id);
}

OpHandle Client::session_read(sim::ProcessId target, OpOptions options, OpHook done) {
  const OpId id =
      new_record(OpType::kRead, target, /*session=*/true, std::move(options), std::move(done));
  enqueue_session(id);
  return OpHandle(&record(id), id);
}

OpHandle Client::session_write(sim::ProcessId target, Value v, OpOptions options,
                               OpHook done) {
  const OpId id =
      new_record(OpType::kWrite, target, /*session=*/true, std::move(options), std::move(done));
  record(id).value = v;
  enqueue_session(id);
  return OpHandle(&record(id), id);
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

void Client::enqueue_session(OpId id) {
  Flight& f = flight(record(id));
  f.station = f.target;
  f.next_in_station = Flight::kNoOp;
  if (f.target >= stations_.size()) stations_.resize(f.target + std::size_t{1});
  Station& st = stations_[f.target];
  const auto op = static_cast<std::uint32_t>(id);
  if (st.head == Flight::kNoOp) {
    st.head = st.tail = op;
    start_attempt(id);
  } else {
    flight(record(st.tail)).next_in_station = op;
    st.tail = op;
  }
}

void Client::start_attempt(OpId id) {
  OpRecord& rec = record(id);
  Flight& f = flight(rec);
  ++rec.attempts;
  if (rec.attempts > 1) ++stats_.retries;  // a re-dispatch, not the first issue
  f.attempt_open = true;
  RegisterNode* reg = node(f.target);
  if (reg == nullptr) {
    // Nothing went on the wire (not counted as issued): the target departed
    // before this attempt could start — e.g. a queued session op whose
    // station process left, or a retry against the original target.
    finish_attempt(id, OpOutcome::kDroppedOnDeparture, kBottom);
    return;
  }
  const sim::Time now = sim_.now();
  const OpContext ctx{id, now};
  if (rec.type == OpType::kRead) {
    // Issued counts operations, not dispatches: a retry re-enters here but
    // is accounted under stats_.retries, so completion rates stay per-op.
    if (rec.attempts == 1) ++stats_.reads_issued;
    f.history_op = history_.begin_read(f.target, now);
    reg->read(ctx, [this, id, attempt = rec.attempts](OpOutcome o, Value v) {
      on_node_completion(id, attempt, o, v);
    });
  } else {
    if (rec.attempts == 1) ++stats_.writes_issued;
    f.history_op = history_.begin_write(f.target, now, rec.value);
    reg->write(ctx, rec.value, [this, id, attempt = rec.attempts](OpOutcome o) {
      on_node_completion(id, attempt, o, kBottom);
    });
  }
  // The attempt may already have resolved (sync reads complete inside the
  // invocation) and returned its flight; only a still-open attempt needs
  // its deadline armed.
  if (!rec.resolved && f.attempt_open && f.options.deadline) {
    sim_.schedule_after(*f.options.deadline,
                        [this, id, attempt = rec.attempts] {
                          on_deadline(id, attempt);
                        });
  }
}

// The callbacks below test rec.resolved before they touch the flight: a
// resolved op's slot may already belong to a later op.

void Client::on_node_completion(OpId id, std::uint32_t attempt, OpOutcome outcome,
                                Value v) {
  OpRecord& rec = record(id);
  // Late (post-timeout) or stale (previous attempt's) completions are
  // discarded: the record resolves exactly once, and each attempt is
  // accounted exactly once.
  if (rec.resolved || !flight(rec).attempt_open || rec.attempts != attempt) return;
  finish_attempt(id, outcome, v);
}

void Client::on_deadline(OpId id, std::uint32_t attempt) {
  OpRecord& rec = record(id);
  if (rec.resolved || !flight(rec).attempt_open || rec.attempts != attempt) return;
  finish_attempt(id, OpOutcome::kTimedOut, kBottom);
}

void Client::finish_attempt(OpId id, OpOutcome outcome, Value v) {
  OpRecord& rec = record(id);
  Flight& f = flight(rec);
  f.attempt_open = false;
  const sim::Time now = sim_.now();
  if (outcome == OpOutcome::kOk) {
    if (rec.type == OpType::kRead) {
      history_.complete_read(f.history_op, now, v);
      ++stats_.reads_completed;
      if (v == kBottom) ++stats_.reads_of_bottom;
      stats_.read_latencies.push_back(static_cast<double>(now - rec.invoked_at));
      rec.value = v;
    } else {
      history_.complete_write(f.history_op, now);
      ++stats_.writes_completed;
      stats_.write_latencies.push_back(static_cast<double>(now - rec.invoked_at));
    }
    resolve(id, OpOutcome::kOk);
    return;
  }

  // Failed attempt. Its history interval stays open: the operation may have
  // taken partial effect (a dropped write's broadcast may have landed), and
  // an open interval is exactly how the checkers model that.
  if (rec.type == OpType::kRead) {
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

  if (rec.attempts < f.options.retry.max_attempts && now < horizon_) {
    // The failed service attempt is over: free its station now so the FIFO
    // keeps draining during the backoff (the retry re-enters a station);
    // the retry itself is counted when it actually re-issues.
    if (f.station != Flight::kNoStation) {
      const sim::ProcessId st = f.station;
      f.station = Flight::kNoStation;
      release_station(st, f);
    }
    sim_.schedule_after(retry_delay(id, rec, f.options.retry),
                        [this, id, attempt = rec.attempts + 1] {
                          retry_attempt(id, attempt);
                        });
    return;
  }
  resolve(id, outcome);
}

void Client::retry_attempt(OpId id, std::uint32_t attempt) {
  OpRecord& rec = record(id);
  if (rec.resolved) return;
  Flight& f = flight(rec);
  if (f.attempt_open || rec.attempts + 1 != attempt) return;
  if (node(f.target) == nullptr) {
    if (rec.type == OpType::kWrite) {
      // Writes stay pinned to their writer; with the writer gone the
      // operation cannot be re-issued.
      resolve(id, OpOutcome::kDroppedOnDeparture);
      return;
    }
    // Reads reconnect: re-target a uniformly random active process.
    const auto target = random_active();
    if (!target) {
      resolve(id, OpOutcome::kDroppedOnDeparture);
      return;
    }
    f.target = *target;
  }
  if (f.session) {
    enqueue_session(id);  // re-enter the new target's FIFO, never bypass it
  } else {
    start_attempt(id);
  }
}

void Client::resolve(OpId id, OpOutcome outcome) {
  OpRecord& rec = record(id);
  // The row's word turns from the flight slot into the response time here,
  // before the hook reads it.
  const auto slot = static_cast<std::uint32_t>(rec.flight_or_responded_at);
  Flight& f = flight_at(slot);
  rec.resolved = true;
  rec.outcome = outcome;
  rec.flight_or_responded_at = sim_.now();
  if (f.on_resolved) {
    OpHook hook = std::move(f.on_resolved);
    hook(OpHandle(&rec, id));
  }
  if (f.station != Flight::kNoStation) {
    const sim::ProcessId st = f.station;
    f.station = Flight::kNoStation;
    release_station(st, f);
  }
  free_flights_.push_back(slot);
}

void Client::release_station(sim::ProcessId target, const Flight& head) {
  // Only the op in service releases, and it is the head: pop it.
  Station& st = stations_[target];
  st.head = head.next_in_station;
  if (st.head == Flight::kNoOp) return;
  // Hand the station to the next queued op at a fresh event: resolution may
  // be running inside System::leave's drop cascade, where the departing
  // target is still half-attached — dispatching now would issue into a node
  // that is being torn down.
  sim_.schedule_after(0, [this, target] {
    start_attempt(stations_[target].head);
  });
}

}  // namespace dynreg::client
