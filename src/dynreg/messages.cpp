#include "dynreg/messages.h"

#include <cstdlib>
#include <iterator>
#include <string_view>

#include "net/payload_type.h"

namespace dynreg::msg {
namespace {

struct Wire {
  std::string_view tag;
  bool stamped;  // the tag's shape: Stamped, else Request
};

// Every protocol tag, in interning order: a tag's id is its index here. The
// trace format persists the ids, so rows are only ever appended.
constexpr Wire kWire[] = {
    {"sync.write", true},      {"sync.inquiry", false},   {"sync.reply", true},
    {"sync.refresh", true},    {"es.read", false},        {"es.reply", true},
    {"es.write", true},        {"es.ack", false},         {"es.join", false},
    {"es.join_reply", true},   {"abd.read_query", false}, {"abd.read_reply", true},
    {"abd.writeback", true},   {"abd.writeback_ack", false},
    {"abd.update", true},      {"abd.update_ack", false},
};

/// The id of `tag`. The first call interns the whole table, in order; it
/// aborts if another tag was interned first, since the ids would then move.
net::PayloadTypeId id_of(std::string_view tag) {
  [[maybe_unused]] static const bool interned = [] {
    for (std::size_t i = 0; i < std::size(kWire); ++i) {
      if (net::PayloadTypeRegistry::intern(kWire[i].tag) != i) std::abort();
    }
    return true;
  }();
  std::size_t i = 0;
  while (i < std::size(kWire) && kWire[i].tag != tag) ++i;
  if (i == std::size(kWire)) std::abort();
  return static_cast<net::PayloadTypeId>(i);
}

}  // namespace

const net::PayloadTypeId kSyncWrite = id_of("sync.write");
const net::PayloadTypeId kSyncInquiry = id_of("sync.inquiry");
const net::PayloadTypeId kSyncReply = id_of("sync.reply");
const net::PayloadTypeId kSyncRefresh = id_of("sync.refresh");
const net::PayloadTypeId kEsRead = id_of("es.read");
const net::PayloadTypeId kEsReply = id_of("es.reply");
const net::PayloadTypeId kEsWrite = id_of("es.write");
const net::PayloadTypeId kEsAck = id_of("es.ack");
const net::PayloadTypeId kEsJoin = id_of("es.join");
const net::PayloadTypeId kEsJoinReply = id_of("es.join_reply");
const net::PayloadTypeId kAbdReadQuery = id_of("abd.read_query");
const net::PayloadTypeId kAbdReadReply = id_of("abd.read_reply");
const net::PayloadTypeId kAbdWriteback = id_of("abd.writeback");
const net::PayloadTypeId kAbdWritebackAck = id_of("abd.writeback_ack");
const net::PayloadTypeId kAbdUpdate = id_of("abd.update");
const net::PayloadTypeId kAbdUpdateAck = id_of("abd.update_ack");

const Stamped* stamped(const net::Payload& p) {
  const net::PayloadTypeId type = p.type_id();
  if (type >= std::size(kWire) || !kWire[type].stamped) return nullptr;
  return static_cast<const Stamped*>(&p);
}

}  // namespace dynreg::msg
