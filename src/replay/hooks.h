// Per-run replay hooks for harness::run_experiment. Exactly one of the two
// pointers may be set:
//
//   record   capture the run's schedule into *record (the caller pre-fills
//            fingerprint/seed, the run sets churn_loop; recorded_hash is
//            the caller's to stamp from the returned report);
//   replay   drive the run from *replay instead of the rng (see
//            replay/replayer.h for the divergence semantics).
//
// Default-constructed hooks make a plain live run. A replay::SessionRun
// builds them for a run enrolled in a record/replay session; the schedule
// searcher and the minimizer build their own, so their nested replays stay
// out of any session an invocation holds.
#pragma once

#include "replay/trace.h"

namespace dynreg::replay {

struct RunHooks {
  Trace* record = nullptr;
  const Trace* replay = nullptr;
};

}  // namespace dynreg::replay
