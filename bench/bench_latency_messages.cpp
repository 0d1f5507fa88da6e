// E7 — the "fast reads" design point: operation latency and message cost
// across protocols and system sizes.
//
// The synchronous protocol's reads are local (0 latency, 0 messages) while
// its writes cost one broadcast; the ES protocol pays a quorum round trip
// per read and write; ABD pays two phases per read. Message totals scale
// with n for broadcast/quorum traffic — the table shows the per-operation
// traffic as n grows.
#include <algorithm>

#include "harness/sweep.h"
#include "harness/thread_pool.h"
#include "registry.h"

namespace dynreg::bench {
namespace {

using harness::ExperimentConfig;
using harness::MetricsReport;
using stats::Cell;

constexpr std::size_t kDefaultSeeds = 1;

struct Row {
  double read_lat = 0, write_lat = 0, join_lat = 0;
  double msgs_per_read = 0, msgs_per_write = 0;
};

ExperimentConfig make_config(harness::Protocol protocol, std::size_t n) {
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.seed = 4;  // replica seed 0: 4 + 1009... first replica differs from the
                 // original fixed seed 5 only via replica_seed's offset
  cfg.n = n;
  cfg.delta = 5;
  cfg.duration = 3000;
  cfg.churn_rate = 0.002;  // light churn so joins exist for the join column
  if (protocol == harness::Protocol::kAbd) {
    cfg.churn_kind = harness::ChurnKind::kNone;  // keep the member set intact
  }
  if (protocol == harness::Protocol::kEventuallySync) {
    cfg.timing = harness::Timing::kEventuallySynchronous;
    cfg.gst = 0;
  }
  cfg.workload.read_interval = 10;
  cfg.workload.write_interval = 50;
  return cfg;
}

/// Attributes message copies to operations. Reads: read/query traffic plus
/// their replies; writes: write/update dissemination plus acks (for the
/// sync protocol a write is a single broadcast and reads are free).
Row attribute(harness::Protocol protocol, const MetricsReport& r) {
  auto copies = [&r](const char* type) -> double {
    const auto it = r.msgs_by_type.find(type);
    return it == r.msgs_by_type.end() ? 0.0 : static_cast<double>(it->second);
  };
  Row row;
  row.read_lat = r.read_latency_mean;
  row.write_lat = r.write_latency_mean;
  row.join_lat = r.join_latency_mean;
  const double reads = std::max<double>(1.0, static_cast<double>(r.reads_issued));
  const double writes = std::max<double>(1.0, static_cast<double>(r.writes_issued));
  switch (protocol) {
    case harness::Protocol::kSync:
    case harness::Protocol::kSyncNoWait:
      row.msgs_per_read = 0.0;
      row.msgs_per_write = copies("sync.write") / writes;
      break;
    case harness::Protocol::kEventuallySync:
      row.msgs_per_read = (copies("es.read") + copies("es.reply")) / reads;
      row.msgs_per_write = (copies("es.write") + copies("es.ack")) / writes;
      break;
    case harness::Protocol::kAbd:
      // Reads pay both phases: query/reply plus the write-back round (its
      // acks are counted with the write-back copies, 1:1 per delivery).
      row.msgs_per_read = (copies("abd.read_query") + copies("abd.read_reply") +
                           2.0 * copies("abd.writeback")) /
                          reads;
      row.msgs_per_write = 2.0 * copies("abd.update") / writes;
      break;
  }
  return row;
}

const char* protocol_name(harness::Protocol p) {
  switch (p) {
    case harness::Protocol::kSync: return "sync";
    case harness::Protocol::kSyncNoWait: return "sync-nowait";
    case harness::Protocol::kEventuallySync: return "eventually-sync";
    case harness::Protocol::kAbd: return "abd";
  }
  return "?";
}

ExperimentResult run(const RunOptions& opts) {
  const std::size_t seeds = opts.seeds > 0 ? opts.seeds : 1;  // resolved by run_resolved()

  const std::vector<harness::Protocol> protocols{
      harness::Protocol::kSync, harness::Protocol::kEventuallySync,
      harness::Protocol::kAbd};
  const std::vector<std::size_t> sizes{10, 20, 40, 80};

  // Flatten the (protocol, n, seed) grid; every replica has its own slot.
  const std::size_t cells = protocols.size() * sizes.size();
  std::vector<MetricsReport> reports(cells * seeds);
  harness::parallel_for(opts.jobs, reports.size(), [&](std::size_t task) {
    const std::size_t cell = task / seeds;
    const std::size_t s = task % seeds;
    ExperimentConfig cfg =
        make_config(protocols[cell / sizes.size()], sizes[cell % sizes.size()]);
    apply_workload(opts, cfg);
    cfg.seed = harness::replica_seed(cfg.seed, s);
    reports[task] = harness::run_in_session(cfg, opts.session);
  });

  stats::DataTable table({"protocol", "n", "read latency", "write latency",
                          "join latency", "msgs/read", "msgs/write"});
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const harness::Protocol protocol = protocols[cell / sizes.size()];
    Row mean;
    for (std::size_t s = 0; s < seeds; ++s) {
      const Row row = attribute(protocol, reports[cell * seeds + s]);
      mean.read_lat += row.read_lat;
      mean.write_lat += row.write_lat;
      mean.join_lat += row.join_lat;
      mean.msgs_per_read += row.msgs_per_read;
      mean.msgs_per_write += row.msgs_per_write;
    }
    const double n = static_cast<double>(seeds);
    table.add_row({Cell::str(protocol_name(protocol)),
                   Cell::num(static_cast<double>(sizes[cell % sizes.size()]), 0),
                   Cell::num(mean.read_lat / n, 2), Cell::num(mean.write_lat / n, 2),
                   Cell::num(mean.join_lat / n, 2), Cell::num(mean.msgs_per_read / n, 1),
                   Cell::num(mean.msgs_per_write / n, 1)});
  }

  ExperimentResult result;
  result.sections.push_back(
      {"latency_messages", "", std::move(table),
       "Expected shape (paper): sync reads cost 0 ticks and 0 messages at every\n"
       "n (the protocol is 'targeted for applications where the number of reads\n"
       "outperforms the number of writes'); quorum-based reads (ES, ABD) pay a\n"
       "round trip and Theta(n) messages; writes are Theta(n) everywhere; sync\n"
       "writes take exactly delta while quorum writes finish as soon as a\n"
       "majority acknowledges (usually < delta on average).\n"});
  return result;
}

Experiment make_experiment() {
  Experiment e;
  e.name = "latency_messages";
  e.id = "E7";
  e.title = "latency and message cost per operation";
  e.paper_ref = "Section 3.3 'fast reads' design goal; footnote 4";
  e.grid = "protocols {sync, es, abd} x n in {10,20,40,80}";
  e.default_seeds = kDefaultSeeds;
  e.run = run;
  return e;
}

const Registrar registrar{make_experiment()};

}  // namespace
}  // namespace dynreg::bench
