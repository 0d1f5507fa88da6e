#include "replay/session.h"

#include <string>
#include <utility>

#include "replay/trace_io.h"

namespace dynreg::replay {

Session::Session(std::vector<Trace> traces) : replaying_(true) {
  for (Trace& t : traces) {
    const Key key{t.fingerprint, t.seed};
    traces_.emplace(key, std::make_shared<const Trace>(std::move(t)));
  }
}

void Session::commit(Trace trace) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Key key{trace.fingerprint, trace.seed};
  traces_.emplace(key, std::make_shared<const Trace>(std::move(trace)));
}

std::shared_ptr<const Trace> Session::find(std::uint64_t fingerprint,
                                           std::uint64_t seed) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = traces_.find(Key{fingerprint, seed});
  if (it == traces_.end()) {
    throw TraceError("no trace recorded for config fingerprint " +
                     std::to_string(fingerprint) + ", seed " + std::to_string(seed) +
                     " — the trace file does not cover this run (different "
                     "experiment options?)");
  }
  return it->second;
}

void Session::note_replay(bool hash_match) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++replays_;
  if (!hash_match) ++hash_mismatches_;
}

std::vector<Trace> Session::collected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Trace> out;
  out.reserve(traces_.size());
  for (const auto& [key, trace] : traces_) out.push_back(*trace);
  return out;
}

std::size_t Session::replays() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return replays_;
}

std::size_t Session::hash_mismatches() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hash_mismatches_;
}

SessionRun::SessionRun(Session* session, std::uint64_t key, std::uint64_t seed)
    : session_(key == 0 ? nullptr : session) {
  if (session_ == nullptr) return;
  if (session_->replaying_) {
    replayed_ = session_->find(key, seed);
    hooks_.replay = replayed_.get();
  } else {
    recorded_.fingerprint = key;
    recorded_.seed = seed;
    hooks_.record = &recorded_;
  }
}

void SessionRun::finish(std::uint64_t trace_hash) {
  if (hooks_.record != nullptr) {
    recorded_.recorded_hash = trace_hash;
    session_->commit(std::move(recorded_));
  } else if (replayed_) {
    session_->note_replay(replayed_->recorded_hash == 0 || trace_hash == 0 ||
                          trace_hash == replayed_->recorded_hash);
  }
  hooks_ = RunHooks{};
  replayed_.reset();
}

}  // namespace dynreg::replay
