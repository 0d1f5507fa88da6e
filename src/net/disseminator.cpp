#include "net/disseminator.h"

#include "net/network.h"

namespace dynreg::net {

void FlatDisseminator::plan(Network& net, sim::ProcessId from,
                            const std::vector<sim::ProcessId>& recipients,
                            const Payload& payload,
                            std::vector<sim::Duration>& arrivals) {
  for (std::size_t i = 0; i < recipients.size(); ++i) {
    const Network::Hop hop = net.hop_verdict(from, recipients[i], payload);
    arrivals[i] = hop.lost ? kLost : hop.delay;
  }
}

void TreeDisseminator::plan(Network& net, sim::ProcessId from,
                            const std::vector<sim::ProcessId>& recipients,
                            const Payload& payload,
                            std::vector<sim::Duration>& arrivals) {
  // Position 0 is the sender; position j >= 1 is recipients[j-1]; the parent
  // of position j is (j-1)/fanout. Edges are processed in ascending position
  // order — parents always precede children, so every parent's relay time
  // is final in its entry before its out-edges draw their verdicts.
  const std::size_t n = recipients.size();
  for (std::size_t j = 1; j <= n; ++j) {
    const std::size_t parent = (j - 1) / fanout_;
    const sim::ProcessId hop_from = parent == 0 ? from : recipients[parent - 1];
    const sim::Duration parent_relay = parent == 0 ? 0 : arrivals[parent - 1] & ~kLost;
    const Network::Hop hop = net.hop_verdict(hop_from, recipients[j - 1], payload);
    // A lost edge still anchors its subtree (see the idealization note in
    // the header): children inherit the would-be arrival, with a nominal
    // 1-tick hop.
    const sim::Duration relay = parent_relay + (hop.lost ? 1 : hop.delay);
    arrivals[j - 1] = hop.lost ? relay | kLost : relay;
  }
}

}  // namespace dynreg::net
