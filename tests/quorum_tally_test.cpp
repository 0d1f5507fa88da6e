// dynreg::QuorumTally — the id-indexed bitmap the ES and ABD protocols count
// quorum replies with. It must count exactly what the std::set it replaced
// counted: distinct ids, whatever the arrival order, duplicates, or id
// range, and a tally moved out of a pending-operation record keeps its
// count while the record it left is empty.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <utility>

#include "dynreg/quorum_tally.h"

namespace dynreg {
namespace {

TEST(QuorumTally, DuplicatesAndTheSelfIdCountOnce) {
  QuorumTally t;
  constexpr sim::ProcessId kSelf = 7;
  EXPECT_TRUE(t.insert(kSelf));  // the operation's own vote
  EXPECT_FALSE(t.insert(kSelf));
  EXPECT_TRUE(t.insert(3));
  EXPECT_FALSE(t.insert(3));  // a reply to a retransmitted request
  EXPECT_FALSE(t.insert(kSelf));
  EXPECT_EQ(t.size(), 2u);
}

TEST(QuorumTally, LargeSparseIdsWork) {
  QuorumTally t;
  EXPECT_TRUE(t.insert(sim::ProcessId{1} << 20));
  EXPECT_TRUE(t.insert(0));
  EXPECT_TRUE(t.insert((sim::ProcessId{1} << 20) - 1));
  EXPECT_TRUE(t.insert((sim::ProcessId{1} << 20) + 63));
  EXPECT_TRUE(t.insert((sim::ProcessId{1} << 20) + 64));
  EXPECT_FALSE(t.insert(sim::ProcessId{1} << 20));
  EXPECT_EQ(t.size(), 5u);
}

TEST(QuorumTally, MovesOutOfPendingRecords) {
  // The shape the protocols use: a record owning a tally, moved out of its
  // map slot when the operation finishes.
  struct Pending {
    QuorumTally repliers;
    int tag = 0;
  };
  Pending pending;
  pending.tag = 1;
  for (sim::ProcessId id : {4u, 9u, 200u, 4u}) pending.repliers.insert(id);

  Pending finished = std::move(pending);
  EXPECT_EQ(finished.repliers.size(), 3u);
  EXPECT_FALSE(finished.repliers.insert(200));  // contents moved, not just the count
  EXPECT_TRUE(finished.repliers.insert(5));

  // The moved-from tally is a valid empty tally.
  EXPECT_EQ(pending.repliers.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(pending.repliers.insert(4));
  EXPECT_EQ(pending.repliers.size(), 1u);

  QuorumTally assigned;
  assigned.insert(1);
  assigned = std::move(finished.repliers);
  EXPECT_EQ(assigned.size(), 4u);
  EXPECT_FALSE(assigned.insert(9));
  EXPECT_EQ(finished.repliers.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(QuorumTally, SizeMatchesStdSetOverRandomIdStreams) {
  // Dense, sparse, and heavily duplicated id streams; the tally and the
  // reference set must agree on novelty and size after every insert.
  std::mt19937_64 gen(2024);
  for (const sim::ProcessId range : {8u, 130u, 5000u, 1u << 21}) {
    for (int stream = 0; stream < 20; ++stream) {
      QuorumTally tally;
      std::set<sim::ProcessId> reference;
      std::uniform_int_distribution<sim::ProcessId> pick(0, range - 1);
      for (int i = 0; i < 400; ++i) {
        const sim::ProcessId id = pick(gen);
        ASSERT_EQ(tally.insert(id), reference.insert(id).second)
            << "range " << range << " stream " << stream << " insert " << i;
        ASSERT_EQ(tally.size(), reference.size());
      }
    }
  }
}

}  // namespace
}  // namespace dynreg
