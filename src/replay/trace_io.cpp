#include "replay/trace_io.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>

namespace dynreg::replay {

namespace {

// The format is written down once per persisted structure — config_fields,
// trace_fields, file_fields below — as a template over an `io` object. A
// Writer instantiation appends each field's bytes; a Reader instantiation
// parses them back into the same fields. Both classes expose the same
// adapters (one per wire shape), so the encoder and decoder cannot drift.

/// Appends fields to a byte buffer. Adapters take const references so the
/// field lists can be instantiated over const structures.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u32(std::uint32_t v) { little_endian(v, 4); }
  /// Fixed 8-byte word (hashes, decision words, double bits).
  void word(const std::uint64_t& v) { little_endian(v, 8); }

  /// LEB128: 7 value bits per byte, high bit = continuation.
  template <class T>
  void varint(const T& field) {
    std::uint64_t v = field;
    while (v >= 0x80) {
      out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out_.push_back(static_cast<std::uint8_t>(v));
  }

  void flag(const bool& v) { u8(v ? 1 : 0); }

  void real(const double& v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    word(bits);
  }

  /// Enum as one byte; `max` and `what` only matter to the Reader.
  template <class E>
  void tag(const E& v, std::uint8_t /*max*/, const char* /*what*/) {
    u8(static_cast<std::uint8_t>(v));
  }

  /// Bools packed into one byte, the first argument in bit 0.
  template <class... Flags>
  void bits(const char* /*what*/, const Flags&... flags) {
    std::uint8_t v = 0;
    unsigned bit = 0;
    ((v = static_cast<std::uint8_t>(v | (flags ? 1u : 0u) << bit++)), ...);
    u8(v);
  }

  /// Presence byte, then the value (through `fields`) when present.
  template <class T, class Fields>
  void maybe(const std::optional<T>& v, Fields&& fields) {
    flag(v.has_value());
    if (v.has_value()) fields(*v);
  }
  template <class T>
  void maybe(const std::optional<T>& v) {
    maybe(v, [this](const T& x) { varint(x); });
  }

  /// A varint that is on the wire only when `present` holds.
  template <class T>
  void when(bool present, const T& field) {
    if (present) varint(field);
  }

  /// A timestamp as the (non-negative) gap since `prev`, the previous
  /// record's time in the same stream.
  void delta(const sim::Time& t, sim::Time& prev) {
    varint(t - prev);
    prev = t;
  }

  void text(const std::string& s) {
    varint(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }

  /// Element count, then each element through `fields`.
  template <class T, class Fields>
  void stream(const char* /*what*/, const std::vector<T>& items, Fields&& fields) {
    varint(items.size());
    for (const T& item : items) fields(item);
  }

 private:
  void u8(std::uint8_t v) { out_.push_back(v); }

  void little_endian(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked cursor over the byte buffer, with the Writer's adapters
/// in reverse. Every read validates the remaining length first, and every
/// value against its field's range; violations throw TraceError naming the
/// offset.
class Reader {
 public:
  Reader(const std::vector<std::uint8_t>& bytes, std::size_t pos)
      : bytes_(bytes), pos_(pos) {}

  [[nodiscard]] std::size_t pos() const { return pos_; }

  std::uint32_t u32() { return static_cast<std::uint32_t>(little_endian(4, "u32")); }
  void word(std::uint64_t& v) { v = little_endian(8, "u64"); }

  /// Rejects a value its field cannot hold rather than truncating it.
  template <class T>
  void varint(T& field) {
    const std::uint64_t v = uleb();
    if constexpr (sizeof(T) < sizeof(std::uint64_t)) {
      if (v > std::numeric_limits<T>::max()) {
        fail("value " + std::to_string(v) + " out of range for a " +
             std::to_string(8 * sizeof(T)) + "-bit field");
      }
    }
    field = static_cast<T>(v);
  }

  void flag(bool& v) { v = u8() != 0; }

  void real(double& v) {
    std::uint64_t bits = 0;
    word(bits);
    std::memcpy(&v, &bits, sizeof(v));
  }

  template <class E>
  void tag(E& v, std::uint8_t max, const char* what) {
    v = static_cast<E>(bounded_u8(max, what));
  }

  template <class... Flags>
  void bits(const char* what, Flags&... flags) {
    const std::uint8_t v = bounded_u8((1u << sizeof...(Flags)) - 1, what);
    unsigned bit = 0;
    ((flags = ((v >> bit++) & 1u) != 0), ...);
  }

  template <class T, class Fields>
  void maybe(std::optional<T>& v, Fields&& fields) {
    bool present = false;
    flag(present);
    if (present) fields(v.emplace());
    else v.reset();
  }
  template <class T>
  void maybe(std::optional<T>& v) {
    maybe(v, [this](T& x) { varint(x); });
  }

  /// Absent fields read as zero.
  template <class T>
  void when(bool present, T& field) {
    field = T{};
    if (present) varint(field);
  }

  void delta(sim::Time& t, sim::Time& prev) {
    prev += uleb();
    t = prev;
  }

  void text(std::string& s) {
    const std::uint64_t len = uleb();
    need(len, "string body");
    s.assign(reinterpret_cast<const char*>(bytes_.data()) + pos_,
             static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
  }

  template <class T, class Fields>
  void stream(const char* what, std::vector<T>& items, Fields&& fields) {
    // Counts are not trusted for allocation: each element consumes bytes, so
    // a lying count hits a truncation error before the vector outgrows the
    // file.
    const std::uint64_t count = uleb();
    if (count > remaining()) fail(std::string(what) + " count exceeds file size");
    items.clear();
    items.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) fields(items.emplace_back());
  }

 private:
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  void need(std::uint64_t n, const char* what) const {
    if (n > remaining()) {
      fail(std::string("truncated: need ") + what + " at offset " +
           std::to_string(pos_));
    }
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw TraceError("trace decode error at offset " + std::to_string(pos_) + ": " + why);
  }

  std::uint8_t u8() {
    need(1, "byte");
    return bytes_[pos_++];
  }

  std::uint64_t little_endian(int bytes, const char* what) {
    need(static_cast<std::uint64_t>(bytes), what);
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) v |= std::uint64_t{bytes_[pos_++]} << (8 * i);
    return v;
  }

  std::uint64_t uleb() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      need(1, "varint");
      const std::uint8_t byte = bytes_[pos_++];
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // Reject non-canonical bits beyond 64 (shift 63 leaves 1 usable bit).
        if (shift == 63 && (byte & 0x7e) != 0) fail("varint overflows 64 bits");
        return v;
      }
    }
    fail("varint longer than 10 bytes");
  }

  std::uint8_t bounded_u8(unsigned max, const char* what) {
    const std::uint8_t v = u8();
    if (v > max) fail(std::string("bad ") + what + " tag " + std::to_string(v));
    return v;
  }

  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_;
};

// ------------------------------------------------------------- field lists
// `Cfg`, `T` and `File` are the structure, const-qualified for a Writer.

/// The canonical ExperimentConfig encoding. Fields appended by a format
/// version go at the end, under a comment naming the version.
template <class IO, class Cfg>
void config_fields(IO& io, Cfg& cfg) {
  io.tag(cfg.protocol, 3, "protocol");
  io.tag(cfg.timing, 1, "timing");
  io.varint(cfg.n);
  io.varint(cfg.delta);
  io.varint(cfg.duration);
  io.varint(cfg.seed);
  io.tag(cfg.churn_kind, 1, "churn kind");
  io.real(cfg.churn_rate);
  io.tag(cfg.leave_policy, 1, "leave policy");
  io.varint(cfg.gst);
  io.varint(cfg.pre_gst_max);
  io.real(cfg.loss_rate);
  io.flag(cfg.es_atomic_reads);
  io.maybe(cfg.sync_delta_pp);
  io.maybe(cfg.sync_refresh_interval);
  auto& w = cfg.workload;
  io.tag(w.kind, 2, "workload kind");
  io.varint(w.read_interval);
  io.varint(w.write_interval);
  io.flag(w.writes_enabled);
  io.tag(w.writer_mode, 1, "writer mode");
  io.varint(w.concurrent_writers);
  io.varint(w.clients);
  io.varint(w.think_time);
  io.varint(w.burst_on);
  io.varint(w.burst_off);
  io.tag(cfg.dissemination, 1, "dissemination");  // v2: dissemination + fanout
  io.varint(cfg.tree_fanout);
  // v3: per-op client policy, ES hardening, fault::Plan.
  io.varint(w.op_deadline);
  io.varint(w.retry_max_attempts);
  io.varint(w.retry_backoff);
  io.flag(w.retry_exponential);
  io.flag(cfg.es_retransmit_backoff);
  io.flag(cfg.es_validate_replies);
  auto& f = cfg.fault;
  io.real(f.crash.rate);
  io.real(f.crash.recover_fraction);
  io.varint(f.crash.recovery_delay);
  io.tag(f.crash.restart, 1, "restart state");
  io.real(f.partition.rate);
  io.varint(f.partition.duration);
  io.real(f.partition.fraction);
  io.flag(f.partition.asymmetric);
  io.real(f.byzantine.fraction);
  io.real(f.byzantine.transform_rate);
  io.bits("byzantine kinds", f.byzantine.equivocate, f.byzantine.stale_replay,
          f.byzantine.forge, f.byzantine.corrupt);
  io.varint(f.tick);
  // v4: the shard layer and the keyed workload. (chronicle_aggregate is
  // inert, so it is not encoded and never splits a fingerprint.)
  io.varint(cfg.shard_count);
  io.varint(w.key_count);
  io.real(w.zipf_s);
  io.real(w.read_frac);
  io.varint(w.storm_every);
  io.varint(w.storm_len);
}

/// A counted stream of timestamped records. Streams are recorded in time
/// order, so each record's time goes on the wire as a delta.
template <class IO, class Records, class Fields>
void records(IO& io, const char* what, Records& items, Fields&& fields) {
  sim::Time prev = 0;
  io.stream(what, items, [&](auto& r) {
    io.delta(r.time, prev);
    fields(r);
  });
}

template <class IO, class T>
void trace_fields(IO& io, T& t) {
  io.varint(t.fingerprint);
  io.varint(t.seed);
  io.word(t.recorded_hash);
  io.flag(t.churn_loop);
  records(io, "net record", t.net, [&io](auto& r) {
    io.varint(r.from);
    io.varint(r.to);
    io.varint(r.type);
    io.flag(r.lost);
    io.when(!r.lost, r.delay);
  });
  records(io, "churn record", t.churn, [&io](auto& r) {
    io.flag(r.join);
    io.when(!r.join, r.victim);
    io.varint(r.shard);  // v4: joins need routing too, so every record
  });
  records(io, "pick record", t.picks, [&io](auto& r) { io.varint(r.chosen); });
  records(io, "fault record", t.faults, [&io](auto& r) { io.varint(r.value); });
}

/// Everything between the version and the checksum.
template <class IO, class File>
void file_fields(IO& io, File& file) {
  io.text(file.experiment);
  io.stream("seed", file.seeds, [&io](auto& s) { io.varint(s); });
  io.varint(file.shards);  // v5: the --shards a recording imposed
  io.maybe(file.config, [&io](auto& cfg) { config_fields(io, cfg); });
  io.stream("trace", file.traces, [&io](auto& t) { trace_fields(io, t); });
}

/// fold64 over the buffer, 8 bytes at a time (zero-padded tail), length
/// folded in last so appended zero bytes change the digest.
std::uint64_t checksum(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 0x445254522d763101ULL;  // "DRTR-v1" + 0x01
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t chunk = 0;
    std::memcpy(&chunk, data + i, 8);
    h = fold64(h, chunk);
  }
  if (i < size) {
    std::uint64_t chunk = 0;
    std::memcpy(&chunk, data + i, size - i);
    h = fold64(h, chunk);
  }
  return fold64(h, size);
}

}  // namespace

void encode_config(const harness::ExperimentConfig& cfg, std::vector<std::uint8_t>& out) {
  Writer w(out);
  config_fields(w, cfg);
}

harness::ExperimentConfig decode_config(const std::vector<std::uint8_t>& bytes,
                                        std::size_t& pos) {
  Reader r(bytes, pos);
  harness::ExperimentConfig cfg;
  config_fields(r, cfg);
  pos = r.pos();
  return cfg;
}

std::uint64_t fingerprint(const harness::ExperimentConfig& cfg) {
  harness::ExperimentConfig keyed = cfg;
  keyed.seed = 0;  // traces are keyed (fingerprint, seed); keep them orthogonal
  std::vector<std::uint8_t> bytes;
  encode_config(keyed, bytes);
  const std::uint64_t h = checksum(bytes.data(), bytes.size());
  return h == 0 ? 1 : h;
}

std::vector<std::uint8_t> encode(const TraceFile& file) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u32(kTraceMagic);
  w.u32(kTraceVersion);
  file_fields(w, file);
  w.word(checksum(out.data(), out.size()));
  return out;
}

TraceFile decode(const std::vector<std::uint8_t>& bytes) {
  Reader header(bytes, 0);
  const std::uint32_t magic = header.u32();
  if (magic != kTraceMagic) {
    throw TraceError("not a dynreg trace file (bad magic 0x" + [magic] {
      char buf[9];
      std::snprintf(buf, sizeof(buf), "%08x", magic);
      return std::string(buf);
    }() + ", expected DRTR)");
  }
  const std::uint32_t version = header.u32();
  if (version != kTraceVersion) {
    throw TraceError("unsupported trace format version " + std::to_string(version) +
                     " (this build reads version " + std::to_string(kTraceVersion) + ")");
  }
  if (bytes.size() < 16) throw TraceError("truncated: no room for checksum");
  Reader tail(bytes, bytes.size() - 8);
  std::uint64_t stored = 0;
  tail.word(stored);
  const std::uint64_t actual = checksum(bytes.data(), bytes.size() - 8);
  if (stored != actual) {
    throw TraceError("checksum mismatch: file is corrupted (stored " +
                     std::to_string(stored) + ", computed " + std::to_string(actual) + ")");
  }

  TraceFile file;
  file_fields(header, file);
  return file;
}

void write_file(const std::string& path, const TraceFile& file) {
  const std::vector<std::uint8_t> bytes = encode(file);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw TraceError("cannot open '" + path + "' for writing");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw TraceError("short write to '" + path + "'");
}

TraceFile read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TraceError("cannot open '" + path + "'");
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (in.bad()) throw TraceError("read error on '" + path + "'");
  return decode(bytes);
}

}  // namespace dynreg::replay
