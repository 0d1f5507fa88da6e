// Trace file format: encode/decode round-trips bit-exactly, and the decoder
// rejects every malformed input — truncations at all prefix lengths, a bad
// magic, a version from the future, and seeded single-bit corruptions — with
// a clean TraceError, never UB (the asan preset runs this file too).
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "harness/experiment.h"
#include "replay/trace_io.h"

namespace dynreg::replay {
namespace {

/// Every encoded field set away from its default, so a field the decoder
/// dropped (or read into the wrong slot) changes the re-encoded bytes.
harness::ExperimentConfig sample_config() {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kEventuallySync;
  cfg.timing = harness::Timing::kEventuallySynchronous;
  cfg.n = 7;
  cfg.delta = 4;
  cfg.duration = 1234;
  cfg.seed = 99;
  cfg.churn_kind = harness::ChurnKind::kNone;
  cfg.churn_rate = 0.0125;
  cfg.leave_policy = churn::LeavePolicy::kOldestActiveFirst;
  cfg.gst = 250;
  cfg.pre_gst_max = 64;
  cfg.loss_rate = 0.05;
  cfg.es_atomic_reads = true;
  cfg.sync_delta_pp = 3;
  cfg.sync_refresh_interval = 17;
  cfg.workload.kind = workload::Kind::kBursty;
  cfg.workload.read_interval = 7;
  cfg.workload.write_interval = 29;
  cfg.workload.writes_enabled = false;
  cfg.workload.writer_mode = workload::WriterMode::kConcurrent;
  cfg.workload.concurrent_writers = 3;
  cfg.workload.clients = 6;
  cfg.workload.think_time = 2;
  cfg.workload.burst_on = 150;
  cfg.workload.burst_off = 90;
  cfg.dissemination = harness::Dissemination::kTree;
  cfg.tree_fanout = 3;
  cfg.workload.op_deadline = 40;  // v3 appendix fields
  cfg.workload.retry_max_attempts = 5;
  cfg.workload.retry_backoff = 6;
  cfg.workload.retry_exponential = true;
  cfg.es_retransmit_backoff = true;
  cfg.es_validate_replies = true;
  cfg.fault.crash.rate = 0.002;
  cfg.fault.crash.recover_fraction = 0.5;
  cfg.fault.crash.recovery_delay = 33;
  cfg.fault.crash.restart = fault::RestartState::kVolatile;
  cfg.fault.partition.rate = 0.001;
  cfg.fault.partition.duration = 77;
  cfg.fault.partition.fraction = 0.4;
  cfg.fault.partition.asymmetric = true;
  cfg.fault.byzantine.fraction = 0.2;
  cfg.fault.byzantine.transform_rate = 0.3;
  cfg.fault.byzantine.equivocate = false;  // kind bits 0b1010: mixed on purpose
  cfg.fault.byzantine.stale_replay = true;
  cfg.fault.byzantine.forge = false;
  cfg.fault.byzantine.corrupt = true;
  cfg.fault.tick = 8;
  cfg.shard_count = 4;  // v4 appendix fields
  cfg.workload.key_count = 96;
  cfg.workload.zipf_s = 1.25;
  cfg.workload.read_frac = 0.75;
  cfg.workload.storm_every = 300;
  cfg.workload.storm_len = 40;
  return cfg;
}

TraceFile sample_file() {
  TraceFile f;
  f.experiment = "es_churn_sweep";
  f.seeds = {3};
  f.shards = 2;  // v5 header field
  f.config = sample_config();

  Trace t;
  t.fingerprint = fingerprint(*f.config);
  t.seed = 42;
  t.recorded_hash = 0x1234567890abcdefULL;
  t.churn_loop = true;
  t.net.push_back(NetRecord{5, 0, 1, 2, false, 3});
  t.net.push_back(NetRecord{5, 0, 2, 2, true, 0});
  t.net.push_back(NetRecord{9, 1, 0, 4, false, 1});
  t.net.push_back(NetRecord{12, 3, 6, 1, true, 0});
  t.churn.push_back(ChurnRecord{7, true, 0, 0});
  t.churn.push_back(ChurnRecord{11, false, 3, 2});  // v4: shard-tagged
  t.picks.push_back(PickRecord{8, 2});
  t.faults.push_back(FaultRecord{6, 0xfedcba9876543210ULL});  // v3 fault stream
  t.faults.push_back(FaultRecord{10, 1});
  f.traces.push_back(t);

  Trace empty;  // a trace with no decisions must survive the format too
  empty.fingerprint = 2;
  empty.seed = 1;
  f.traces.push_back(empty);
  return f;
}

/// The trailing u64 of an encoded file (little-endian).
std::uint64_t stored_checksum(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{bytes[bytes.size() - 8 + i]} << (8 * i);
  return v;
}

// The format, pinned: a refactor of the encoder or decoder must reproduce
// these bytes exactly (the sample sets every encoded field, so a reordered,
// dropped or re-typed field moves both digests). Changing them is a format
// change, which needs a kTraceVersion bump.
TEST(TraceFormat, EncodedBytesArePinned) {
  EXPECT_EQ(fingerprint(sample_config()), 0x1f8908eeb70693c0ULL);
  EXPECT_EQ(stored_checksum(encode(sample_file())), 0x9c365487b8ca4348ULL);
}

TEST(TraceFormat, EncodeDecodeRoundTripsBitExactly) {
  const TraceFile f = sample_file();
  const auto bytes = encode(f);
  const TraceFile d = decode(bytes);

  EXPECT_EQ(d.experiment, f.experiment);
  EXPECT_EQ(d.seeds, f.seeds);
  EXPECT_EQ(d.shards, 2u);
  ASSERT_TRUE(d.config.has_value());
  ASSERT_EQ(d.traces.size(), 2u);
  EXPECT_EQ(d.traces[0].fingerprint, f.traces[0].fingerprint);
  EXPECT_EQ(d.traces[0].seed, 42u);
  EXPECT_EQ(d.traces[0].recorded_hash, 0x1234567890abcdefULL);
  EXPECT_TRUE(d.traces[0].churn_loop);
  ASSERT_EQ(d.traces[0].net.size(), 4u);
  EXPECT_EQ(d.traces[0].net[1].time, 5u);
  EXPECT_TRUE(d.traces[0].net[1].lost);
  ASSERT_EQ(d.traces[0].churn.size(), 2u);
  EXPECT_FALSE(d.traces[0].churn[1].join);
  EXPECT_EQ(d.traces[0].churn[1].victim, 3u);
  EXPECT_EQ(d.traces[0].churn[0].shard, 0u);
  EXPECT_EQ(d.traces[0].churn[1].shard, 2u);
  ASSERT_EQ(d.traces[0].picks.size(), 1u);
  EXPECT_EQ(d.traces[0].picks[0].chosen, 2u);
  ASSERT_EQ(d.traces[0].faults.size(), 2u);
  EXPECT_EQ(d.traces[0].faults[0].time, 6u);
  EXPECT_EQ(d.traces[0].faults[0].value, 0xfedcba9876543210ULL);
  EXPECT_EQ(d.traces[0].faults[1].time, 10u);
  EXPECT_TRUE(d.traces[0].net[3].lost);
  EXPECT_EQ(d.traces[0].net[3].to, 6u);
  EXPECT_TRUE(d.traces[1].net.empty());

  // The decisive check: re-encoding the decoded file reproduces the bytes.
  EXPECT_EQ(encode(d), bytes);
}

TEST(TraceFormat, ConfigEncodingRoundTripsEveryField) {
  const harness::ExperimentConfig cfg = sample_config();
  std::vector<std::uint8_t> bytes;
  encode_config(cfg, bytes);
  std::size_t pos = 0;
  const harness::ExperimentConfig d = decode_config(bytes, pos);
  EXPECT_EQ(pos, bytes.size());

  std::vector<std::uint8_t> again;
  encode_config(d, again);
  EXPECT_EQ(again, bytes);
  EXPECT_EQ(d.protocol, cfg.protocol);
  EXPECT_EQ(d.n, cfg.n);
  EXPECT_EQ(d.seed, cfg.seed);
  EXPECT_EQ(d.churn_rate, cfg.churn_rate);
  ASSERT_TRUE(d.sync_delta_pp.has_value());
  EXPECT_EQ(*d.sync_delta_pp, 3u);
  ASSERT_TRUE(d.sync_refresh_interval.has_value());
  EXPECT_EQ(*d.sync_refresh_interval, 17u);
  EXPECT_EQ(d.workload.kind, workload::Kind::kBursty);
  EXPECT_EQ(d.workload.writer_mode, workload::WriterMode::kConcurrent);
  EXPECT_EQ(d.dissemination, harness::Dissemination::kTree);
  EXPECT_EQ(d.workload.retry_max_attempts, 5u);  // v3 appendix
  EXPECT_TRUE(d.es_validate_replies);
  EXPECT_EQ(d.fault.crash.restart, fault::RestartState::kVolatile);
  EXPECT_TRUE(d.fault.partition.asymmetric);
  EXPECT_FALSE(d.fault.byzantine.equivocate);
  EXPECT_TRUE(d.fault.byzantine.stale_replay);
  EXPECT_FALSE(d.fault.byzantine.forge);
  EXPECT_TRUE(d.fault.byzantine.corrupt);
  EXPECT_EQ(d.fault.tick, 8u);
  EXPECT_EQ(d.shard_count, 4u);  // v4 appendix
  EXPECT_EQ(d.workload.key_count, 96u);
  EXPECT_EQ(d.workload.zipf_s, 1.25);
  EXPECT_EQ(d.workload.read_frac, 0.75);
  EXPECT_EQ(d.workload.storm_every, 300u);
  EXPECT_EQ(d.workload.storm_len, 40u);
}

TEST(TraceFormat, FingerprintIgnoresSeedAndSeesEverythingElse) {
  harness::ExperimentConfig a = sample_config();
  harness::ExperimentConfig b = a;
  b.seed = a.seed + 17;
  EXPECT_EQ(fingerprint(a), fingerprint(b));  // seed is keyed separately
  b.churn_rate += 0.001;
  EXPECT_NE(fingerprint(a), fingerprint(b));
  EXPECT_NE(fingerprint(a), 0u);
  // v4 appendix fields are keyed too: two sharded configs differing only in
  // shard count or workload skew must never share a trace.
  b = a;
  b.shard_count = a.shard_count + 1;
  EXPECT_NE(fingerprint(a), fingerprint(b));
  b = a;
  b.workload.zipf_s += 0.01;
  EXPECT_NE(fingerprint(a), fingerprint(b));
  b = a;
  b.workload.read_frac -= 0.05;
  EXPECT_NE(fingerprint(a), fingerprint(b));
  b = a;
  b.workload.storm_every = 0;
  EXPECT_NE(fingerprint(a), fingerprint(b));
  // Each Byzantine kind is its own bit of the packed flags byte.
  for (bool fault::ByzantinePlan::*kind :
       {&fault::ByzantinePlan::equivocate, &fault::ByzantinePlan::stale_replay,
        &fault::ByzantinePlan::forge, &fault::ByzantinePlan::corrupt}) {
    b = a;
    b.fault.byzantine.*kind = !(a.fault.byzantine.*kind);
    EXPECT_NE(fingerprint(a), fingerprint(b));
  }
}

TEST(TraceFormat, EveryTruncationThrowsCleanly) {
  const auto bytes = encode(sample_file());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(decode(prefix), TraceError) << "prefix length " << len;
  }
}

TEST(TraceFormat, BadMagicIsDiagnosed) {
  auto bytes = encode(sample_file());
  bytes[0] ^= 0xff;
  try {
    decode(bytes);
    FAIL() << "decode accepted a bad magic";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos) << e.what();
  }
}

TEST(TraceFormat, FutureVersionIsDiagnosed) {
  auto bytes = encode(sample_file());
  bytes[4] = static_cast<std::uint8_t>(kTraceVersion + 1);
  try {
    decode(bytes);
    FAIL() << "decode accepted a future version";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST(TraceFormat, CorruptedBodyFailsTheChecksum) {
  auto bytes = encode(sample_file());
  bytes[bytes.size() / 2] ^= 0x10;
  try {
    decode(bytes);
    FAIL() << "decode accepted a corrupted body";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
  }
}

TEST(TraceFormat, SeededBitFlipFuzzAlwaysThrowsNeverCrashes) {
  const auto bytes = encode(sample_file());
  // Portable generator (mt19937's sequence is pinned by the standard), so
  // the fuzzed corpus is identical on every platform and run.
  std::mt19937 gen(20260808u);
  for (int i = 0; i < 500; ++i) {
    auto corrupt = bytes;
    const std::size_t byte = gen() % corrupt.size();
    corrupt[byte] ^= static_cast<std::uint8_t>(1u << (gen() % 8));
    // Every byte is covered by the magic, the version check, or the trailing
    // checksum, so any single-bit flip must be rejected — and must never
    // crash or read out of bounds (the asan preset enforces the latter).
    EXPECT_THROW(decode(corrupt), TraceError) << "flip in byte " << byte;
  }
}

/// Mirror of trace_io's trailing checksum (fold64 over 8-byte LE chunks,
/// zero-padded tail, length folded in last) — the test needs it to build a
/// structurally-lying file whose checksum is nonetheless valid.
std::uint64_t file_checksum(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0x445254522d763101ULL;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t chunk = 0;
    for (int b = 0; b < 8; ++b) chunk |= std::uint64_t{bytes[i + b]} << (8 * b);
    h = fold64(h, chunk);
  }
  if (i < bytes.size()) {
    std::uint64_t chunk = 0;
    for (std::size_t b = 0; i + b < bytes.size(); ++b) {
      chunk |= std::uint64_t{bytes[i + b]} << (8 * b);
    }
    h = fold64(h, chunk);
  }
  return fold64(h, bytes.size());
}

TEST(TraceFormat, LyingRecordCountsCannotBalloonAllocation) {
  // A hand-built file that claims 2^40 traces, with a *valid* checksum so
  // only the count-vs-remaining-bytes validation stands between the decoder
  // and a terabyte reserve. It must throw TraceError, not allocate.
  std::vector<std::uint8_t> bytes;
  const auto put_u32 = [&bytes](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put_u32(kTraceMagic);
  put_u32(kTraceVersion);
  bytes.push_back(0);  // empty experiment name
  bytes.push_back(0);  // zero seeds
  bytes.push_back(0);  // no shard override
  bytes.push_back(0);  // no config
  // trace count 2^40 as LEB128: five continuation bytes then 0x10
  for (int i = 0; i < 5; ++i) bytes.push_back(0x80);
  bytes.push_back(0x10);
  const std::uint64_t sum = file_checksum(bytes);
  for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(sum >> (8 * i)));
  EXPECT_THROW(decode(bytes), TraceError);
}

/// A hand-built file holding one trace whose only record is a net record
/// with the given endpoint and payload type, checksummed so only the
/// decoder's range validation can reject it.
std::vector<std::uint8_t> file_with_net_record(std::uint64_t to, std::uint64_t type) {
  std::vector<std::uint8_t> bytes;
  const auto put_varint = [&bytes](std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) bytes.push_back(static_cast<std::uint8_t>(v) | 0x80);
    bytes.push_back(static_cast<std::uint8_t>(v));
  };
  const auto put_le = [&bytes](std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put_le(kTraceMagic, 4);
  put_le(kTraceVersion, 4);
  put_varint(0);  // empty experiment name
  put_varint(0);  // zero seeds
  put_varint(0);  // no shard override
  bytes.push_back(0);  // no config
  put_varint(1);  // one trace
  put_varint(5);  // fingerprint
  put_varint(1);  // seed
  put_le(0, 8);   // recorded hash
  bytes.push_back(0);  // no churn loop
  put_varint(1);  // one net record: time delta, from, to, type, lost, delay
  put_varint(3);
  put_varint(0);
  put_varint(to);
  put_varint(type);
  bytes.push_back(0);
  put_varint(2);
  for (int stream = 0; stream < 3; ++stream) put_varint(0);  // churn, picks, faults
  put_le(file_checksum(bytes), 8);
  return bytes;
}

TEST(TraceFormat, OutOfRangeFieldsAreRejectedNotTruncated) {
  // The hand-built file is well formed when every value fits its field...
  const TraceFile ok = decode(file_with_net_record(1, 7));
  ASSERT_EQ(ok.traces.size(), 1u);
  ASSERT_EQ(ok.traces[0].net.size(), 1u);
  EXPECT_EQ(ok.traces[0].net[0].to, 1u);
  EXPECT_EQ(ok.traces[0].net[0].type, 7u);
  // ...and rejected when one does not: 2^32 + 1 is no ProcessId (it must
  // not decode as process 1), and 2^16 is no PayloadTypeId.
  EXPECT_THROW(decode(file_with_net_record((std::uint64_t{1} << 32) + 1, 7)), TraceError);
  EXPECT_THROW(decode(file_with_net_record(1, std::uint64_t{1} << 16)), TraceError);
}

TEST(TraceFormat, FileIoRoundTripsAndMissingFileThrows) {
  const TraceFile f = sample_file();
  const std::string path = testing::TempDir() + "/trace_format_test.trace";
  write_file(path, f);
  const TraceFile d = read_file(path);
  EXPECT_EQ(encode(d), encode(f));
  EXPECT_THROW(read_file(path + ".does-not-exist"), TraceError);
}

}  // namespace
}  // namespace dynreg::replay
