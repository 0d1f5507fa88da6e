// Versioned binary serialization for schedule traces, and the canonical
// ExperimentConfig encoding that both the trace file format and the replay
// session's config fingerprint are built on.
//
// File format (all integers little-endian; "varint" is LEB128). The
// authoritative field-by-field layout is config_fields / trace_fields /
// file_fields in trace_io.cpp, which the encoder and the decoder share:
//
//   u32  magic    0x52545244 ("DRTR")
//   u32  version  4 (kTraceVersion; any other version is rejected)
//   varint experiment-name length + bytes   (registry id, may be empty)
//   varint seed count + varint seeds        (the run set recorded)
//   u8   has-config; if 1: canonical ExperimentConfig encoding (the single
//        scenario the file's traces drive — search/minimize artifacts)
//   varint trace count
//   per trace:
//     varint fingerprint, varint seed, u64 recorded-hash, u8 churn-loop
//     four streams (net, churn, picks, faults), each varint count + records
//     with delta-encoded times and varint fields; net records carry the
//     interned payload type id and a lost flag (delay only when not lost);
//     churn records carry a join flag, the victim (leaves only) and the
//     owning shard tag; fault records carry the raw 64-bit decision word
//   u64  checksum   fold64 over every preceding byte
//
// The decoder is fully bounds-checked and throws TraceError (with a
// position-stamped message) on truncation, bad magic, unknown version, a
// checksum mismatch, or a value too large for its field — never UB,
// whatever the bytes. trace_format_test fuzzes it with seeded corruptions
// under ASan/UBSan.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "replay/trace.h"

namespace dynreg::replay {

inline constexpr std::uint32_t kTraceMagic = 0x52545244u;  // "DRTR"
// Version 2 appended the dissemination mode + tree fanout to the embedded
// config. Version 3 added the fault-decision stream per trace (crash /
// partition / Byzantine words, see replay/trace.h) and appended the per-op
// client policy, ES hardening flags, and the fault::Plan to the embedded
// config. Version 4 tags every churn record with its owning shard and
// appends the shard layer (shard_count) and keyed-workload fields
// (key_count, zipf_s, read_frac, storm_every, storm_len) to the embedded
// config, so sharded runs record/replay/search like everything else. Older
// files are rejected (no binary traces are kept as fixtures; recordings are
// artifacts of the session that made them).
inline constexpr std::uint32_t kTraceVersion = 4u;

/// Malformed trace bytes (truncation, bad magic, version from the future,
/// corrupted body). The message names the offending offset or field.
class TraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Canonical binary encoding of an ExperimentConfig — every field, in a
/// fixed order, appended to `out`. The encoding (not the in-memory struct)
/// is the unit of config identity: fingerprint() folds over it, and trace
/// files embed it for scenario artifacts.
void encode_config(const harness::ExperimentConfig& cfg, std::vector<std::uint8_t>& out);

/// Inverse of encode_config; throws TraceError on malformed bytes.
/// Advances `pos` past the encoding.
harness::ExperimentConfig decode_config(const std::vector<std::uint8_t>& bytes,
                                        std::size_t& pos);

/// Identity of a run's scenario: fold64 over the canonical encoding of the
/// config with its seed field zeroed (the replay session keys traces by
/// (fingerprint, seed), so the seed must not leak into the fingerprint).
/// Never 0 (0 means "no fingerprint").
std::uint64_t fingerprint(const harness::ExperimentConfig& cfg);

/// One trace artifact: a recorded run set (experiment + seeds, many traces)
/// or a single scenario schedule (embedded config, one trace — what search
/// and minimize write).
struct TraceFile {
  std::string experiment;                           ///< registry id, may be ""
  std::vector<std::uint64_t> seeds;                 ///< recorded seed set
  std::optional<harness::ExperimentConfig> config;  ///< scenario artifacts only
  std::vector<Trace> traces;
};

std::vector<std::uint8_t> encode(const TraceFile& file);
TraceFile decode(const std::vector<std::uint8_t>& bytes);

/// Writes encode(file) to `path` (throws TraceError on I/O failure).
void write_file(const std::string& path, const TraceFile& file);
/// Reads and decodes `path` (throws TraceError on I/O or format failure).
TraceFile read_file(const std::string& path);

}  // namespace dynreg::replay
