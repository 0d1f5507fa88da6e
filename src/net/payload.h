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

/// A payload on the heap, for tests and micro-benchmarks; a run builds
/// every payload with make_payload_in below.
template <typename T, typename... Args>
PayloadPtr make_payload(Args&&... args) {
  return std::make_shared<T>(std::forward<Args>(args)...);
}

/// The simulation's payload: object + shared_ptr control block in one
/// block-pool block, reused as soon as the last reference drops. Every
/// payload a run sends is built here: node::Context's broadcasts and
/// memoised replies, and the fault injector's Byzantine replacements.
template <typename T, typename... Args>
PayloadPtr make_payload_in(sim::BlockPool& pool, Args&&... args) {
  return std::allocate_shared<T>(sim::BlockAllocator<T>(pool), std::forward<Args>(args)...);
}

}  // namespace dynreg::net
