// Core value types shared by every layer of the register simulation.
#pragma once

#include <cstdint>

namespace dynreg {

/// The register holds integer values; kBottom is the distinguished "no value
/// yet" mark a joining process carries before its join completes.
using Value = std::int64_t;
inline constexpr Value kBottom = -1;

/// Every register starts holding 0 (the paper's well-defined initial value):
/// the bootstrap members hold it, and the history checks reads against it.
inline constexpr Value kInitialValue = 0;

/// Write timestamps: lexicographic (sequence number, writer id). The paper's
/// single-writer protocol only needs the sequence number; the multi-writer
/// extension (Section 7) breaks ties on the writer id.
struct Timestamp {
  std::uint64_t sn = 0;
  std::uint32_t writer = 0;

  friend bool operator<(const Timestamp& a, const Timestamp& b) {
    if (a.sn != b.sn) return a.sn < b.sn;
    return a.writer < b.writer;
  }
  friend bool operator==(const Timestamp& a, const Timestamp& b) {
    return a.sn == b.sn && a.writer == b.writer;
  }
  friend bool operator>(const Timestamp& a, const Timestamp& b) { return b < a; }
};

}  // namespace dynreg
