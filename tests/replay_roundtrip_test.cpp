// The trace round-trip property: for EVERY registered experiment, a
// session-recorded run serialized through the trace file format and
// replayed back produces byte-identical emitter output and zero audit-hash
// mismatches — at any worker count. This is the end-to-end guarantee the
// `dynreg_exp record`/`replay` CLI (and the CI replay gate) stand on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>

#include "emit.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "registry.h"
#include "replay/session.h"
#include "replay/trace_io.h"

namespace dynreg::bench {
namespace {

struct Recorded {
  std::string json;
  replay::TraceFile file;
};

RunOptions options(std::size_t jobs, replay::Session* session) {
  RunOptions opts;
  opts.seeds = 1;  // one replica per point keeps the full sweep affordable
  opts.max_n = 100;  // caps the scaling experiments' (E15/E16) n grids too
  opts.jobs = jobs;
  opts.session = session;
  return opts;
}

Recorded record(const Experiment& e, std::size_t jobs) {
  replay::Session session;
  const ExperimentResult result = e.run(options(jobs, &session));
  Recorded rec;
  rec.json = to_json(e, 1, result);
  rec.file.experiment = e.name;
  rec.file.seeds = {1};
  rec.file.traces = session.collected();
  return rec;
}

std::string replay_from(const Experiment& e, replay::TraceFile file, std::size_t jobs) {
  const bool recorded = !file.traces.empty();
  replay::Session session(std::move(file.traces));
  const ExperimentResult result = e.run(options(jobs, &session));
  EXPECT_EQ(session.replays() > 0, recorded) << e.name;
  EXPECT_EQ(session.hash_mismatches(), 0u) << e.name;
  return to_json(e, 1, result);
}

TEST(ReplayRoundTrip, EveryExperimentRecordsAndReplaysByteIdentically) {
  for (const Experiment* e : ExperimentRegistry::instance().list()) {
    SCOPED_TRACE(e->name);
    Recorded rec = record(*e, /*jobs=*/0);

    // Serialize through the real file format — the replay consumes exactly
    // the bytes a `dynreg_exp record` artifact would hold.
    replay::TraceFile decoded = replay::decode(replay::encode(rec.file));
    // E14 is never handed the session (its searches must stay out of the
    // recording); every other experiment's runs must show up in it.
    if (e->name != "threshold_search") {
      EXPECT_FALSE(decoded.traces.empty()) << e->name;
    }

    const std::string replayed = replay_from(*e, std::move(decoded), /*jobs=*/0);
    EXPECT_EQ(replayed, rec.json) << e->name;
  }
}

TEST(ReplayRoundTrip, ReplayIsJobsIndependent) {
  const Experiment* e = ExperimentRegistry::instance().find("es_churn_sweep");
  ASSERT_NE(e, nullptr);
  Recorded rec = record(*e, /*jobs=*/1);

  const auto bytes = replay::encode(rec.file);
  const std::string serial = replay_from(*e, replay::decode(bytes), /*jobs=*/1);
  const std::string pooled = replay_from(*e, replay::decode(bytes), /*jobs=*/8);
  EXPECT_EQ(serial, rec.json);
  EXPECT_EQ(pooled, rec.json);
}

TEST(ReplayRoundTrip, ScalingExperimentsReplayJobsIndependently) {
  // The scaling sweeps (E15 runs a tree-dissemination mode; E16 runs heavy
  // churn grids) must round-trip through the v2 trace format — which now
  // carries dissemination mode + fanout in the config key — and replay
  // byte-identically at any worker count. Grids capped via max_n (the
  // record/replay helpers) to keep the suite affordable.
  for (const char* name : {"scaling_messages", "scaling_churn"}) {
    SCOPED_TRACE(name);
    const Experiment* e = ExperimentRegistry::instance().find(name);
    ASSERT_NE(e, nullptr);
    Recorded rec = record(*e, /*jobs=*/1);
    EXPECT_FALSE(rec.file.traces.empty());

    const auto bytes = replay::encode(rec.file);
    const std::string serial = replay_from(*e, replay::decode(bytes), /*jobs=*/1);
    const std::string pooled = replay_from(*e, replay::decode(bytes), /*jobs=*/8);
    EXPECT_EQ(serial, rec.json);
    EXPECT_EQ(pooled, rec.json);
  }
}

TEST(ReplayRoundTrip, TreeDisseminationTracesCarryTheirMode) {
  // A recorded tree-mode run must not be conflated with a flat-mode run of
  // the same parameters: the trace key includes the dissemination fields,
  // so the E15 scenario (a tree cell) round-trips to a tree replay.
  const Experiment* e = ExperimentRegistry::instance().find("scaling_messages");
  ASSERT_NE(e, nullptr);
  ASSERT_TRUE(e->scenario);
  const harness::ExperimentConfig cfg = e->scenario();
  EXPECT_EQ(cfg.dissemination, harness::Dissemination::kTree);
  const std::uint64_t key = replay::fingerprint(cfg);
  harness::ExperimentConfig flat = cfg;
  flat.dissemination = harness::Dissemination::kFlat;
  EXPECT_NE(replay::fingerprint(flat), key);
  harness::ExperimentConfig fanout8 = cfg;
  fanout8.tree_fanout = 8;
  EXPECT_NE(replay::fingerprint(fanout8), key);
}

TEST(ReplayRoundTrip, ShardedExperimentsReplayJobsIndependently) {
  // E19/E20 run the sharded pipeline: every shard's net verdicts interleave
  // into one stream, churn records carry shard tags, and the whole thing
  // must still round-trip through real file bytes and replay byte-identically
  // at any worker count.
  for (const char* name : {"shard_throughput", "shard_tail_churn"}) {
    SCOPED_TRACE(name);
    const Experiment* e = ExperimentRegistry::instance().find(name);
    ASSERT_NE(e, nullptr);
    Recorded rec = record(*e, /*jobs=*/1);
    EXPECT_FALSE(rec.file.traces.empty());

    const auto bytes = replay::encode(rec.file);
    const std::string serial = replay_from(*e, replay::decode(bytes), /*jobs=*/1);
    const std::string pooled = replay_from(*e, replay::decode(bytes), /*jobs=*/8);
    EXPECT_EQ(serial, rec.json);
    EXPECT_EQ(pooled, rec.json);
  }
}

TEST(ReplayRoundTrip, ShardedTracesCarryTheirKeyspaceConfig) {
  // A recorded sharded run must never be conflated with a differently
  // partitioned or differently skewed run of the same base parameters: the
  // v4 config appendix (shard count, key count, zipf exponent, read mix,
  // storm phases) is part of the trace fingerprint.
  const Experiment* e = ExperimentRegistry::instance().find("shard_tail_churn");
  ASSERT_NE(e, nullptr);
  ASSERT_TRUE(e->scenario);
  const harness::ExperimentConfig cfg = e->scenario();
  EXPECT_GT(cfg.shard_count, 0u);
  const std::uint64_t key = replay::fingerprint(cfg);

  harness::ExperimentConfig other = cfg;
  other.shard_count = cfg.shard_count * 2;
  EXPECT_NE(replay::fingerprint(other), key);
  other = cfg;
  other.workload.zipf_s = 0.0;
  EXPECT_NE(replay::fingerprint(other), key);
  other = cfg;
  other.workload.read_frac = 0.5;
  EXPECT_NE(replay::fingerprint(other), key);
  other = cfg;
  other.workload.key_count *= 2;
  EXPECT_NE(replay::fingerprint(other), key);
  other = cfg;
  other.workload.storm_every = 0;
  other.workload.storm_len = 0;
  EXPECT_NE(replay::fingerprint(other), key);
}

TEST(ReplayRoundTrip, ScriptedScenarioExperimentsEnrollInTheSession) {
  // E1/E2/E5 build their world by hand (ScriptedCluster) rather than via
  // run_experiment; the scenario_key plumbing must still capture them.
  for (const char* name : {"fig3_join_wait", "lemma2_active_bound",
                           "impossibility_async"}) {
    SCOPED_TRACE(name);
    const Experiment* e = ExperimentRegistry::instance().find(name);
    ASSERT_NE(e, nullptr);
    Recorded rec = record(*e, /*jobs=*/1);
    EXPECT_FALSE(rec.file.traces.empty());
    const std::string replayed =
        replay_from(*e, replay::decode(replay::encode(rec.file)), /*jobs=*/1);
    EXPECT_EQ(replayed, rec.json);
  }
}

TEST(ReplayRoundTrip, SessionsInOneProcessAreIndependent) {
  // Two recordings of different experiments in flight at once, each with
  // pooled workers of its own, while this thread makes a plain run: neither
  // session sees the other's runs or the plain one, and each replays
  // byte-identically from its own traces.
  const Experiment* a = ExperimentRegistry::instance().find("es_churn_sweep");
  const Experiment* b = ExperimentRegistry::instance().find("closed_loop_clients");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(a->scenario);
  harness::ExperimentConfig plain = a->scenario();
  plain.seed = 424242;  // a (config, seed) neither recording runs

  Recorded a_rec;
  Recorded b_rec;
  std::thread a_thread([&] { a_rec = record(*a, /*jobs=*/2); });
  std::thread b_thread([&] { b_rec = record(*b, /*jobs=*/2); });
  EXPECT_EQ(harness::run_experiment(plain).trace_hash,
            harness::run_in_session(plain, nullptr).trace_hash);
  a_thread.join();
  b_thread.join();

  ASSERT_FALSE(a_rec.file.traces.empty());
  ASSERT_FALSE(b_rec.file.traces.empty());
  const std::uint64_t plain_key = replay::fingerprint(plain);
  for (const Recorded* rec : {&a_rec, &b_rec}) {
    for (const replay::Trace& t : rec->file.traces) {
      EXPECT_FALSE(t.fingerprint == plain_key && t.seed == plain.seed);
    }
  }
  for (const replay::Trace& ta : a_rec.file.traces) {
    for (const replay::Trace& tb : b_rec.file.traces) {
      EXPECT_NE(ta.fingerprint, tb.fingerprint);
    }
  }
  // Each concurrent recording holds exactly what a recording made alone
  // holds.
  EXPECT_EQ(replay::encode(a_rec.file), replay::encode(record(*a, /*jobs=*/1).file));
  EXPECT_EQ(replay::encode(b_rec.file), replay::encode(record(*b, /*jobs=*/1).file));

  std::string a_replayed;
  std::string b_replayed;
  std::thread a_replay([&] { a_replayed = replay_from(*a, a_rec.file, /*jobs=*/2); });
  std::thread b_replay([&] { b_replayed = replay_from(*b, b_rec.file, /*jobs=*/2); });
  a_replay.join();
  b_replay.join();
  EXPECT_EQ(a_replayed, a_rec.json);
  EXPECT_EQ(b_replayed, b_rec.json);
}

}  // namespace
}  // namespace dynreg::bench
