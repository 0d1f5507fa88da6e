// A record/replay session: the set of runs one `dynreg_exp record|replay`
// invocation captures or re-feeds. The invocation owns the session and
// hands it to the runs it enrols (harness::run_grid, which runs every
// replica through run_in_session, or a scripted cluster's SessionRun). A
// run that is not handed a session is a plain live run, so nested replay
// machinery (schedule search, the minimizer) and any experiment that should
// stay out of a recording simply never see it.
//
// A recording session files each enrolled run's trace; a replay session
// drives each enrolled run from the trace filed under its (config
// fingerprint, seed) key. Sessions are independent of one another, and one
// session is shared by every worker of a sweep, so commits and lookups are
// thread-safe. Determinism across --jobs holds because a run's trace is a
// pure function of (config, seed): when a sweep runs identical (config,
// seed) replicas, whichever commits first wins and the rest are
// byte-identical duplicates, so the collected trace set is independent of
// scheduling.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "replay/hooks.h"
#include "replay/trace.h"

namespace dynreg::replay {

class Session {
 public:
  /// A recording session: every run enrolled in it files its trace here.
  Session() = default;

  /// A replay session over `traces`, keyed by (fingerprint, seed).
  explicit Session(std::vector<Trace> traces);

  /// Recording: snapshot of the committed traces in deterministic
  /// (fingerprint, seed) order — what `dynreg_exp record` serializes.
  [[nodiscard]] std::vector<Trace> collected() const;

  /// Replay: enrolled runs completed, and how many of them ended with an
  /// audit hash that differs from the recording.
  [[nodiscard]] std::size_t replays() const;
  [[nodiscard]] std::size_t hash_mismatches() const;

 private:
  friend class SessionRun;

  /// Files one run's trace. First commit per key wins (see header
  /// comment); later identical commits are dropped.
  void commit(Trace trace);

  /// The trace for this key. Throws TraceError when the session holds no
  /// such trace — a replay that silently fell back to fresh randomness
  /// would defeat the whole point.
  [[nodiscard]] std::shared_ptr<const Trace> find(std::uint64_t fingerprint,
                                                  std::uint64_t seed) const;

  /// Tallies one completed replayed run and whether its audit hash matched
  /// the recording.
  void note_replay(bool hash_match);

  using Key = std::pair<std::uint64_t, std::uint64_t>;  // (fingerprint, seed)

  const bool replaying_ = false;
  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<const Trace>> traces_;
  std::size_t replays_ = 0;
  std::size_t hash_mismatches_ = 0;
};

/// One run's enrolment in a session, keyed (key, seed). Recording: owns the
/// trace the run records into. Replaying: holds the trace filed under the
/// key (throws TraceError when there is none). A null session, or key 0,
/// makes a plain run: the hooks are empty and finish() does nothing.
class SessionRun {
 public:
  SessionRun(Session* session, std::uint64_t key, std::uint64_t seed);

  SessionRun(const SessionRun&) = delete;
  SessionRun& operator=(const SessionRun&) = delete;

  [[nodiscard]] const RunHooks& hooks() const { return hooks_; }

  /// Ends the run: commits the recorded trace stamped with `trace_hash`, or
  /// notes the replay and whether its hash matched the recording (no
  /// comparison when either side ran without the auditor, hash 0).
  void finish(std::uint64_t trace_hash);

 private:
  Session* session_;
  Trace recorded_;
  std::shared_ptr<const Trace> replayed_;
  RunHooks hooks_;
};

}  // namespace dynreg::replay
