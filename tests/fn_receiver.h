// Test-local net::Receiver adapter: lets a test attach a lambda where the
// simulator attaches a protocol node.
#pragma once

#include <deque>
#include <functional>
#include <utility>

#include "net/network.h"
#include "net/receiver.h"

namespace dynreg::test {

/// A receiver that forwards every delivered copy to a callable.
class FnReceiver final : public net::Receiver {
 public:
  using Fn = std::function<void(sim::ProcessId from, const net::Payload& payload)>;

  explicit FnReceiver(Fn fn) : fn_(std::move(fn)) {}

  void on_message(sim::ProcessId from, const net::Payload& payload) override {
    fn_(from, payload);
  }

 private:
  Fn fn_;
};

/// Owns the FnReceivers a test attaches to one network. A deque keeps every
/// receiver at a fixed address for as long as this object lives, which must
/// cover every delivery the test runs.
class FnReceivers {
 public:
  explicit FnReceivers(net::Network& net) : net_(net) {}

  /// Attaches `fn` under `id` (replacing any receiver the id had).
  void attach(sim::ProcessId id, FnReceiver::Fn fn) {
    net_.attach(id, &owned_.emplace_back(std::move(fn)));
  }

 private:
  net::Network& net_;
  std::deque<FnReceiver> owned_;
};

}  // namespace dynreg::test
