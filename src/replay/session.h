// The process-wide record/replay session. harness::run_experiment consults
// it on every no-hooks run: in record mode each run is captured and
// committed here; in replay mode each run is driven from the trace filed
// under its (config fingerprint, seed) key.
//
// The session is the bridge between the CLI (`dynreg_exp record|replay`,
// which sets the mode around a whole experiment invocation) and the runs an
// experiment's sweep spawns — possibly thousands, possibly concurrently
// (parallel_sweep). All entry points are thread-safe. Determinism across
// --jobs holds because a run's trace is a pure function of (config, seed):
// when a sweep runs identical (config, seed) replicas, whichever commits
// first wins and the rest are byte-identical duplicates, so the collected
// trace set is independent of scheduling.
//
// A run enrols through a SessionRun, which turns the session's mode into
// the run's RunHooks. Nested replay machinery (schedule search, the
// minimizer) bypasses the session entirely via the run_experiment(cfg,
// RunHooks) overload.
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
  enum class Mode { kOff, kRecord, kReplay };

  static Session& instance();

  /// Enters record mode (discarding any previous state).
  void begin_record();

  /// Enters replay mode over the given traces, keyed by (fingerprint, seed).
  void begin_replay(std::vector<Trace> traces);

  /// Returns to kOff and clears all state.
  void end();

  [[nodiscard]] Mode mode() const;

  /// Record mode: files one run's trace. First commit per key wins (see
  /// header comment); later identical commits are dropped.
  void commit(Trace trace);

  /// Replay mode: the trace for this key. Throws TraceError when the
  /// session holds no such trace — a replay that silently fell back to
  /// fresh randomness would defeat the whole point.
  [[nodiscard]] std::shared_ptr<const Trace> find(std::uint64_t fingerprint,
                                                  std::uint64_t seed) const;

  /// Replay mode: tallies one completed replayed run and whether its audit
  /// hash matched the recording (hash_match must be true when either side
  /// ran without DYNREG_AUDIT — there is nothing to compare).
  void note_replay(bool hash_match);

  /// Snapshot of the committed traces in deterministic (fingerprint, seed)
  /// order — what `dynreg_exp record` serializes.
  [[nodiscard]] std::vector<Trace> collected() const;

  [[nodiscard]] std::size_t replays() const;
  [[nodiscard]] std::size_t hash_mismatches() const;

 private:
  Session() = default;

  using Key = std::pair<std::uint64_t, std::uint64_t>;  // (fingerprint, seed)

  mutable std::mutex mutex_;
  Mode mode_ = Mode::kOff;
  std::map<Key, std::shared_ptr<const Trace>> traces_;
  std::size_t replays_ = 0;
  std::size_t hash_mismatches_ = 0;
};

/// One run's enrolment in the session, keyed (key, seed). Record mode: owns
/// the trace the run records into. Replay mode: holds the trace filed under
/// the key (throws TraceError when there is none). Off mode, or key 0: the
/// hooks are empty and finish() does nothing.
class SessionRun {
 public:
  SessionRun(std::uint64_t key, std::uint64_t seed);

  SessionRun(const SessionRun&) = delete;
  SessionRun& operator=(const SessionRun&) = delete;

  [[nodiscard]] const RunHooks& hooks() const { return hooks_; }

  /// Ends the run: commits the recorded trace stamped with `trace_hash`, or
  /// notes the replay and whether its hash matched the recording (no
  /// comparison when either side ran without the auditor, hash 0).
  void finish(std::uint64_t trace_hash);

 private:
  Trace recorded_;
  std::shared_ptr<const Trace> replayed_;
  RunHooks hooks_;
};

}  // namespace dynreg::replay
