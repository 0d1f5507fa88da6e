// Seed-parallel experiment replicas: parallel_for and its --jobs mapping.
//
// The simulation core is single-threaded by design (one Simulation, one Rng,
// one EventQueue per run); parallelism lives entirely up here, where each
// body owns a whole replica. Nothing below src/harness/ ever sees a second
// thread, and dynreg-lint's thread-scope rule keeps every thread this
// library starts inside parallel_for.
#pragma once

#include <cstddef>
#include <functional>

namespace dynreg::harness {

/// Maps a user-facing --jobs value to a thread count: 0 means "one per
/// hardware thread" (falling back to 1 when the hardware is unknown).
std::size_t resolve_jobs(std::size_t jobs);

/// Type-erased per-index body for parallel_for. Exactly one is constructed
/// per parallel_for *call* — every thread calls it by reference — so the
/// type-erasure cost is O(sweeps), never per event.
// dynreg-lint: allow(std-function): one instance per parallel_for call, O(sweeps) not O(events)
using IndexBody = std::function<void(std::size_t)>;

/// Runs body(0) .. body(count-1) and returns when all have finished. The
/// calling thread and min(resolve_jobs(jobs), count) - 1 helper threads
/// claim indices from one shared counter, so jobs = 1 runs every body on the
/// calling thread in index order. A body's output must go to its own
/// pre-sized slot `i`: that is race-free and independent of the thread
/// count, the determinism contract every caller relies on. Every body runs
/// even if some throw; the first exception caught is rethrown on the
/// calling thread once all have finished.
void parallel_for(std::size_t jobs, std::size_t count, const IndexBody& body);

}  // namespace dynreg::harness
