// Per-run replay hooks for harness::run_experiment. Exactly one of the two
// pointers may be set:
//
//   record   capture the run's schedule into *record (the caller pre-fills
//            fingerprint/seed, the run sets churn_loop; recorded_hash is
//            the caller's to stamp from the returned report);
//   replay   drive the run from *replay instead of the rng (see
//            replay/replayer.h for the divergence semantics).
//
// The hooks overload never consults the global replay::Session — that is
// what lets the schedule searcher and the minimizer run thousands of nested
// replays while a CLI-level record/replay session is in flight.
#pragma once

#include "replay/trace.h"

namespace dynreg::replay {

struct RunHooks {
  Trace* record = nullptr;
  const Trace* replay = nullptr;
};

}  // namespace dynreg::replay
