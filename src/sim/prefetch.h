// Portable software-prefetch hint for the simulator's hot loops.
#pragma once

namespace dynreg::sim {

/// Asks the CPU to start loading the cache line at `p` for reading. Only a
/// hint: it never faults, so `p` may be null or stale, and it is a no-op on
/// compilers without the builtin.
inline void prefetch_ro(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

}  // namespace dynreg::sim
