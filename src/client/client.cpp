#include "client/client.h"

#include <algorithm>
#include <utility>

namespace dynreg::client {

Client::Client(sim::Simulation& sim, churn::System& system,
               consistency::History& history, sim::Time horizon)
    : sim_(sim), system_(system), history_(history), horizon_(horizon) {}

sim::Duration Client::retry_delay(const OpRecord& rec) const {
  const RetryPolicy& retry = rec.options.retry;
  if (!retry.exponential || retry.backoff == 0) return retry.backoff;
  const std::uint32_t exp = std::min<std::uint32_t>(rec.attempts - 1, 5);
  const sim::Duration base = retry.backoff << exp;
  // Jitter from a pure hash of (seed, op, attempt): deterministic per run,
  // different across ops/attempts, zero Rng draws (replay-transparent).
  const std::uint64_t h =
      sim::mix64(sim::mix64(sim_.seed() ^ (rec.id * sim::kGolden64)) ^ rec.attempts);
  return base + static_cast<sim::Duration>(h % retry.backoff);
}

RegisterNode* Client::node(sim::ProcessId id) {
  return dynamic_cast<RegisterNode*>(system_.find(id));
}

OpRecord& Client::new_record(OpType type, sim::ProcessId target, OpOptions options,
                             OpHook done) {
  const OpId id = next_id_++;
  if (id % kChunk == 0) chunks_.push_back(std::make_unique<OpRecord[]>(kChunk));
  OpRecord& rec = record(id);
  rec.id = id;
  rec.type = type;
  rec.target = target;
  rec.options = std::move(options);
  rec.invoked_at = sim_.now();
  rec.on_resolved = std::move(done);
  return rec;
}

OpHandle Client::read(sim::ProcessId target, OpOptions options, OpHook done) {
  OpRecord& rec = new_record(OpType::kRead, target, std::move(options), std::move(done));
  start_attempt(rec);
  return OpHandle(&rec);
}

OpHandle Client::write(sim::ProcessId target, Value v, OpOptions options, OpHook done) {
  OpRecord& rec = new_record(OpType::kWrite, target, std::move(options), std::move(done));
  rec.value = v;
  start_attempt(rec);
  return OpHandle(&rec);
}

OpHandle Client::session_read(sim::ProcessId target, OpOptions options, OpHook done) {
  OpRecord& rec = new_record(OpType::kRead, target, std::move(options), std::move(done));
  rec.session = true;
  enqueue_session(rec);
  return OpHandle(&rec);
}

OpHandle Client::session_write(sim::ProcessId target, Value v, OpOptions options,
                               OpHook done) {
  OpRecord& rec = new_record(OpType::kWrite, target, std::move(options), std::move(done));
  rec.value = v;
  rec.session = true;
  enqueue_session(rec);
  return OpHandle(&rec);
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

void Client::enqueue_session(OpRecord& rec) {
  rec.station = rec.target;
  rec.next_in_station = OpRecord::kNoOp;
  if (rec.target >= stations_.size()) stations_.resize(rec.target + std::size_t{1});
  Station& st = stations_[rec.target];
  const auto slot = static_cast<std::uint32_t>(rec.id);
  if (st.head == OpRecord::kNoOp) {
    st.head = st.tail = slot;
    start_attempt(rec);
  } else {
    record(st.tail).next_in_station = slot;
    st.tail = slot;
  }
}

void Client::start_attempt(OpRecord& rec) {
  ++rec.attempts;
  if (rec.attempts > 1) ++stats_.retries;  // a re-dispatch, not the first issue
  rec.attempt_open = true;
  RegisterNode* reg = node(rec.target);
  if (reg == nullptr) {
    // Nothing went on the wire (not counted as issued): the target departed
    // before this attempt could start — e.g. a queued session op whose
    // station process left, or a retry against the original target.
    finish_attempt(rec, OpOutcome::kDroppedOnDeparture, kBottom);
    return;
  }
  const sim::Time now = sim_.now();
  const OpContext ctx{rec.id, now};
  if (rec.type == OpType::kRead) {
    // Issued counts operations, not dispatches: a retry re-enters here but
    // is accounted under stats_.retries, so completion rates stay per-op.
    if (rec.attempts == 1) ++stats_.reads_issued;
    rec.history_op = history_.begin_read(rec.target, now);
    reg->read(ctx, [this, id = rec.id, attempt = rec.attempts](OpOutcome o, Value v) {
      on_node_completion(id, attempt, o, v);
    });
  } else {
    if (rec.attempts == 1) ++stats_.writes_issued;
    rec.history_op = history_.begin_write(rec.target, now, rec.value);
    reg->write(ctx, rec.value, [this, id = rec.id, attempt = rec.attempts](OpOutcome o) {
      on_node_completion(id, attempt, o, kBottom);
    });
  }
  // The attempt may already have resolved (sync reads complete inside the
  // invocation); only a still-open attempt needs its deadline armed.
  if (rec.attempt_open && rec.options.deadline) {
    sim_.schedule_after(*rec.options.deadline,
                        [this, id = rec.id, attempt = rec.attempts] {
                          on_deadline(id, attempt);
                        });
  }
}

void Client::on_node_completion(OpId id, std::uint32_t attempt, OpOutcome outcome,
                                Value v) {
  OpRecord& rec = record(id);
  // Late (post-timeout) or stale (previous attempt's) completions are
  // discarded: the record resolves exactly once, and each attempt is
  // accounted exactly once.
  if (rec.resolved || !rec.attempt_open || rec.attempts != attempt) return;
  finish_attempt(rec, outcome, v);
}

void Client::on_deadline(OpId id, std::uint32_t attempt) {
  OpRecord& rec = record(id);
  if (rec.resolved || !rec.attempt_open || rec.attempts != attempt) return;
  finish_attempt(rec, OpOutcome::kTimedOut, kBottom);
}

void Client::finish_attempt(OpRecord& rec, OpOutcome outcome, Value v) {
  rec.attempt_open = false;
  const sim::Time now = sim_.now();
  if (outcome == OpOutcome::kOk) {
    if (rec.type == OpType::kRead) {
      history_.complete_read(rec.history_op, now, v);
      ++stats_.reads_completed;
      if (v == kBottom) ++stats_.reads_of_bottom;
      stats_.read_latencies.push_back(static_cast<double>(now - rec.invoked_at));
      rec.value = v;
    } else {
      history_.complete_write(rec.history_op, now);
      ++stats_.writes_completed;
      stats_.write_latencies.push_back(static_cast<double>(now - rec.invoked_at));
    }
    resolve(rec, OpOutcome::kOk);
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

  if (rec.attempts < rec.options.retry.max_attempts && now < horizon_) {
    // The failed service attempt is over: free its station slot now so the
    // FIFO keeps draining during the backoff (the retry re-enters a
    // station); the retry itself is counted when it actually re-issues.
    if (rec.station != OpRecord::kNoStation) {
      const sim::ProcessId st = rec.station;
      rec.station = OpRecord::kNoStation;
      release_station(st);
    }
    sim_.schedule_after(retry_delay(rec),
                        [this, id = rec.id, attempt = rec.attempts + 1] {
                          retry_attempt(id, attempt);
                        });
    return;
  }
  resolve(rec, outcome);
}

void Client::retry_attempt(OpId id, std::uint32_t attempt) {
  OpRecord& rec = record(id);
  if (rec.resolved || rec.attempt_open || rec.attempts + 1 != attempt) return;
  if (node(rec.target) == nullptr) {
    if (rec.type == OpType::kWrite) {
      // Writes stay pinned to their writer; with the writer gone the
      // operation cannot be re-issued.
      resolve(rec, OpOutcome::kDroppedOnDeparture);
      return;
    }
    // Reads reconnect: re-target a uniformly random active process.
    const auto target = random_active();
    if (!target) {
      resolve(rec, OpOutcome::kDroppedOnDeparture);
      return;
    }
    rec.target = *target;
  }
  if (rec.session) {
    enqueue_session(rec);  // re-enter the new target's FIFO, never bypass it
  } else {
    start_attempt(rec);
  }
}

void Client::resolve(OpRecord& rec, OpOutcome outcome) {
  rec.resolved = true;
  rec.outcome = outcome;
  rec.responded_at = sim_.now();
  if (rec.on_resolved) {
    OpHook hook = std::move(rec.on_resolved);
    hook(OpHandle(&rec));
  }
  if (rec.station != OpRecord::kNoStation) {
    const sim::ProcessId st = rec.station;
    rec.station = OpRecord::kNoStation;
    release_station(st);
  }
}

void Client::release_station(sim::ProcessId target) {
  // Only the op in service releases, and it is the head: pop it.
  Station& st = stations_[target];
  st.head = record(st.head).next_in_station;
  if (st.head == OpRecord::kNoOp) return;
  // Hand the slot to the next queued op at a fresh event: resolution may be
  // running inside System::leave's drop cascade, where the departing target
  // is still half-attached — dispatching now would issue into a node that
  // is being torn down.
  sim_.schedule_after(0, [this, target] {
    start_attempt(record(stations_[target].head));
  });
}

}  // namespace dynreg::client
