#include "registry.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "harness/experiment.h"

namespace dynreg::bench {

ExperimentRegistry& ExperimentRegistry::instance() {
  static ExperimentRegistry registry;
  return registry;
}

void ExperimentRegistry::add(Experiment e) {
  const std::string name = e.name;
  const bool inserted = by_name_.emplace(name, std::move(e)).second;
  if (!inserted) {
    // Loudly reject the collision: emplace would otherwise silently keep
    // the first registration and drop this one.
    throw std::logic_error("duplicate experiment registration: " + name);
  }
}

const Experiment* ExperimentRegistry::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &it->second;
}

std::vector<const Experiment*> ExperimentRegistry::list() const {
  std::vector<const Experiment*> all;
  all.reserve(by_name_.size());
  for (const auto& [name, e] : by_name_) all.push_back(&e);
  std::sort(all.begin(), all.end(), [](const Experiment* a, const Experiment* b) {
    // "E2" < "E10" numerically: compare by length first, then lexically.
    if (a->id.size() != b->id.size()) return a->id.size() < b->id.size();
    if (a->id != b->id) return a->id < b->id;
    return a->name < b->name;
  });
  return all;
}

Registrar::Registrar(Experiment e) { ExperimentRegistry::instance().add(std::move(e)); }

std::size_t effective_seeds(const Experiment& e, const RunOptions& opts) {
  return opts.seeds == 0 ? e.default_seeds : opts.seeds;
}

void apply_workload(const RunOptions& opts, harness::ExperimentConfig& cfg) {
  for (const ConfigOverride& o : opts.overrides) o.apply(cfg, o.value);
}

ExperimentResult run_resolved(const Experiment& e, RunOptions opts) {
  opts.seeds = effective_seeds(e, opts);
  return e.run(opts);
}

}  // namespace dynreg::bench
