// Config-to-protocol builders: how an ExperimentConfig maps to one world's
// delay model, node factory and designated writers (defined with the World
// builder in harness/world.cpp, which applies them to every world).
#pragma once

#include <memory>
#include <vector>

#include "churn/system.h"
#include "dynreg/types.h"
#include "harness/experiment.h"
#include "net/delay_model.h"

namespace dynreg::harness {

/// dynreg::kInitialValue, also named here because perfbench's world uses
/// this name.
using dynreg::kInitialValue;

/// The network delay model `cfg.timing` names.
std::unique_ptr<net::DelayModel> build_delays(const ExperimentConfig& cfg);

/// The node factory for `cfg.protocol`, parameterized on the membership
/// group's size `n` (== cfg.n for the single-register path; the shard's
/// population slice for sharded runs — quorum sizes and the ES retransmit
/// depth are per-group quantities).
churn::System::NodeFactory build_node_factory(const ExperimentConfig& cfg,
                                              std::size_t n);

/// Designated writers (pinned: exempt from churn, as in the paper where the
/// writer stays in the system). Empty when writes are disabled — then nobody
/// is exempt and the register value must survive on its own.
std::vector<sim::ProcessId> designated_writers(const ExperimentConfig& cfg);

}  // namespace dynreg::harness
