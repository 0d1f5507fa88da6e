#include "sim/simulation.h"

namespace dynreg::sim {

std::optional<Time> Simulation::next_event_time() const {
  if (queue_.empty()) return std::nullopt;
  return queue_.next_time();
}

bool Simulation::step() {
  if (queue_.empty()) return false;
#ifdef DYNREG_AUDIT
  audit_note(queue_.next_time());
  audit_note(++audit_seq_);
#endif
  ++events_;
  queue_.run_top(&now_);  // advances the clock, then executes in place
  return true;
}

void Simulation::run() {
  while (step()) {
  }
}

void Simulation::run_until(Time t) {
  while (!queue_.empty() && queue_.next_time() <= t) step();
  now_ = std::max(now_, t);
}

}  // namespace dynreg::sim
