// Wire messages of the three protocols. Type tags are part of the contract:
// adversarial delay models and the per-type traffic metrics match on them.
//
// Every protocol message has one of two shapes. A Request names an
// operation (a read, a join, an ack); a Stamped record carries a
// (timestamp, value) pair, the paper's WRITE(v, sn) and REPLY(v, sn). The
// payload's tag says which message it is.
#pragma once

#include <cstdint>

#include "dynreg/types.h"
#include "net/payload.h"

namespace dynreg::msg {

// The protocol tags' interned ids. messages.cpp interns its table of tags
// before any other tag, so each id is the tag's index in that table, in
// every process; the trace format persists them.

// Synchronous protocol (Section 3). sync.refresh is the anti-entropy
// rebroadcast: semantically a sync.write, tagged apart so traffic
// accounting does not mix it into write cost.
extern const net::PayloadTypeId kSyncWrite, kSyncInquiry, kSyncReply, kSyncRefresh;
// Eventually synchronous protocol (Section 5).
extern const net::PayloadTypeId kEsRead, kEsReply, kEsWrite, kEsAck, kEsJoin, kEsJoinReply;
// Static ABD baseline.
extern const net::PayloadTypeId kAbdReadQuery, kAbdReadReply, kAbdWriteback,
    kAbdWritebackAck, kAbdUpdate, kAbdUpdateAck;

/// A request or ack naming operation `id` (the sync protocol's inquiry
/// names none and sends 0).
struct Request final : net::Payload {
  Request(net::PayloadTypeId tag, std::uint64_t i) : net::Payload(tag), id(i) {}
  std::uint64_t id;

  /// Field-wise: the key of node::Context's payload memo.
  friend bool operator==(const Request& a, const Request& b) {
    return a.type_id() == b.type_id() && a.id == b.id;
  }
};

/// A (timestamp, value) record for operation `id` (0 in the sync protocol).
/// has_value is false only in a reply from a process that holds no value.
struct Stamped final : net::Payload {
  Stamped(net::PayloadTypeId tag, std::uint64_t i, Timestamp t, Value v, bool hv)
      : net::Payload(tag), has_value(hv), id(i), ts(t), value(v) {}
  bool has_value;  // first, so it fills the padding after the base's tag: 40 bytes
  std::uint64_t id;
  Timestamp ts;
  Value value;

  /// Field-wise: the key of node::Context's payload memo.
  friend bool operator==(const Stamped& a, const Stamped& b) {
    return a.type_id() == b.type_id() && a.id == b.id && a.ts.sn == b.ts.sn &&
           a.ts.writer == b.ts.writer && a.value == b.value && a.has_value == b.has_value;
  }
};

/// The Stamped view of `p`, or nullptr when p's tag is not a Stamped shape.
const Stamped* stamped(const net::Payload& p);

}  // namespace dynreg::msg
