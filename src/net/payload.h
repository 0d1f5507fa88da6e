// Message payloads. Payloads are immutable and shared between the deliveries
// of one broadcast; receivers downcast after checking type_id().
#pragma once

#include <memory>
#include <string_view>
#include <utility>

#include "net/payload_type.h"
#include "sim/arena.h"

namespace dynreg::net {

/// The base of every payload: its interned wire-type tag, stored once.
/// Nothing here is virtual. Payloads are only made through make_payload /
/// make_payload_in, whose control blocks destroy the concrete type.
class Payload {
 public:
  /// `type` is the interned tag, e.g. the id of "sync.write"
  /// (src/dynreg/messages.h). Tags are part of the protocol contract (see
  /// payload_type.h).
  explicit Payload(PayloadTypeId type) : type_(type) {}

  /// What every per-message path (receiver dispatch, delay-model scripts,
  /// delivery metrics) keys on.
  [[nodiscard]] PayloadTypeId type_id() const { return type_; }

  /// The tag string; reports and persisted output use this form.
  [[nodiscard]] std::string_view type_name() const { return PayloadTypeRegistry::name(type_); }

 protected:
  ~Payload() = default;

 private:
  const PayloadTypeId type_;
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
