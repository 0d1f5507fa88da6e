// Interned payload type tags.
//
// Wire-type tags ("sync.write", "es.reply", ...) are part of the protocol
// contract: adversarial delay models match on them and the metrics pipeline
// reports per-type traffic. Keying those hot paths on strings meant a heap
// std::string construction plus a string-keyed map walk per delivered copy.
// The registry interns each tag once into a dense small-integer
// PayloadTypeId; everything per-delivery is keyed on the id (array index,
// integer compare) and the tag string is only rematerialized at report time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dynreg::net {

/// Dense interned tag index. Ids are assigned in interning order. The
/// protocol tags come first, in the fixed order of the table in
/// src/dynreg/messages.cpp, so their ids are the same in every process and
/// the trace format persists them. Any other tag is interned lazily (on
/// first use, never by a namespace-scope initializer), after them; its id
/// depends on the process's history, so persist its string.
using PayloadTypeId = std::uint16_t;

class PayloadTypeRegistry {
 public:
  /// Returns the id for `name`, interning it on first sight. Thread-safe;
  /// interning the same tag again returns the same id. Intended to run once
  /// per payload type (cache the result in a function-local static), not
  /// per message.
  static PayloadTypeId intern(std::string_view name);

  /// The tag string for an interned id. The view is backed by the registry
  /// and stays valid for the process lifetime. Precondition: id was
  /// returned by intern().
  static std::string_view name(PayloadTypeId id);

  /// Number of interned tags.
  static std::size_t count();
};

}  // namespace dynreg::net
