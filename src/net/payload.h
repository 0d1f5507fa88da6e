// Message payloads. Payloads are immutable and shared between the deliveries
// of one broadcast; receivers downcast after checking type_id()/type_name().
#pragma once

#include <memory>
#include <string_view>
#include <utility>

#include "net/payload_type.h"
#include "sim/arena.h"

namespace dynreg::net {

class Payload {
 public:
  virtual ~Payload() = default;

  /// Stable wire-type tag, e.g. "sync.write". Tags are part of the protocol
  /// contract (see payload_type.h); reports and persisted output use the
  /// string form.
  virtual std::string_view type_name() const = 0;

  /// Interned id of type_name() — what every per-message path (receiver
  /// dispatch, delay-model scripts, delivery metrics) keys on. The default
  /// re-interns on each call, which is correct for ad-hoc payloads in
  /// tests; real message types override it with a cached id
  /// (src/dynreg/messages.h) so the hot path never touches the registry.
  [[nodiscard]] virtual PayloadTypeId type_id() const { return PayloadTypeRegistry::intern(type_name()); }
};

using PayloadPtr = std::shared_ptr<const Payload>;

template <typename T, typename... Args>
PayloadPtr make_payload(Args&&... args) {
  return std::make_shared<T>(std::forward<Args>(args)...);
}

/// Arena-backed payload: object + shared_ptr control block live in one
/// bump-allocated span, recycled an epoch after the last reference drops.
/// Protocol nodes reach this through node::Node::make_payload.
template <typename T, typename... Args>
PayloadPtr make_payload_in(sim::Arena& arena, Args&&... args) {
  return std::allocate_shared<T>(sim::ArenaAllocator<T>(arena),
                                 std::forward<Args>(args)...);
}

}  // namespace dynreg::net
