// Scale series: the 1M-peer super-peer world (docs/PERFORMANCE.md, "Scale
// tier"). Builds the same world as tests/scale_test.cc — scaled by
// P2PAQP_SCALE, so the CI quick pass at 0.05 exercises a 50k-peer version
// of the identical pipeline — and answers one full-domain COUNT through the
// event-driven engine.
//
// Ships the three gated metrics to the BENCH telemetry:
//   * bytes_per_peer — resident graph + peer-state + tuple bytes per peer
//     (upper-bounded by tools/bench_gate.py; the compressed-CSR contract);
//   * events_per_sec — event-core drain rate over the COUNT's event trace
//     (lower-bounded, threads-matched). Measured on a *warm* session: a
//     first identical query absorbs first-touch page faults and buffer
//     growth, the repeat measures the steady state the zero-allocation
//     contract is about;
//   * steady_state_allocs_per_event — heap allocations inside the warm
//     query's event-loop drains divided by its event count (pinned to
//     exactly 0 by the gate; the arena/inline-callback contract);
//   * p99_query_wall_ms / deadline_hit_rate — tail behavior of the same
//     COUNT under a Pareto-tail + slow-coalition regime, answered by the
//     full straggler-resilience stack under a deadline (both upper-bounded;
//     see DESIGN.md, "Straggler semantics");
//   * churn_epoch_us — median wall time of one churn epoch at perfbench
//     churn_faults_async's rates (upper-bounded, threads-matched; DESIGN.md,
//     "Churn epochs");
//   * churned_events_per_sec — the warm COUNT repeats again, drained on the
//     world those epochs left with peers down, where every walker hop reads
//     its holder's list through the liveness filter; the harness also
//     writes its ratio to events_per_sec, churned_drain_ratio, which a
//     host's speed swings cancel out of (both lower-bounded,
//     threads-matched; docs/PERFORMANCE.md, "The forwarding view").
#include <algorithm>
#include <chrono>
#include <vector>

#include <sys/resource.h>

#include "core/async_engine.h"
#include "core/catalog.h"
#include "net/churn.h"
#include "net/fault.h"
#include "data/generator.h"
#include "data/partitioner.h"
#include "harness.h"
#include "io/graph_io.h"
#include "net/network.h"
#include "query/query.h"
#include "topology/super_peer.h"
#include "util/rng.h"

namespace p2paqp::bench {
namespace {

constexpr size_t kFullScalePeers = 1000000;
constexpr size_t kTuplesPerPeer = 2;
constexpr graph::NodeId kSink = 0;  // A super-peer: well-connected sink.

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

// Process peak RSS in MB (ru_maxrss is KB on Linux). Sampled right after
// world construction, this is the high-water mark the out-of-core builder
// bounds: the gated world_build_peak_rss_mb metric.
double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int Run(int argc, char** argv) {
  const BenchIo io = ParseBenchIo(argc, argv);
  const double scale = ScaleFactor();
  const size_t num_peers = std::max(
      static_cast<size_t>(static_cast<double>(kFullScalePeers) * scale),
      static_cast<size_t>(20000));

  auto build_start = std::chrono::steady_clock::now();
  topology::SuperPeerParams topo;
  topo.num_nodes = num_peers;
  topo.super_fraction = 0.02;
  topo.core_edges_per_super = 4;
  topo.leaf_connections = 2;
  util::Rng topo_rng(20060403);
  auto topology = topology::MakeSuperPeer(topo, topo_rng);
  if (!topology.ok()) return 1;

  data::DatasetParams dataset;
  dataset.num_tuples = num_peers * kTuplesPerPeer;
  dataset.skew = 0.2;
  util::Rng data_rng(271828);
  auto table_data = data::GenerateDataset(dataset, data_rng);
  if (!table_data.ok()) return 1;
  data::PartitionParams partition;
  partition.cluster_level = 0.25;
  partition.bfs_root = kSink;
  auto databases = data::PartitionAcrossPeers(*table_data, topology->graph,
                                              partition, data_rng);
  if (!databases.ok()) return 1;

  net::NetworkParams params;
  params.parallel_peer_init = true;
  auto network = net::SimulatedNetwork::Make(
      std::move(topology->graph), std::move(*databases), params, 314159);
  if (!network.ok()) return 1;
  const double build_s = Seconds(build_start);
  const double build_peak_rss_mb = PeakRssMb();
  const double bytes_per_peer = static_cast<double>(network->MemoryBytes()) /
                                static_cast<double>(num_peers);
  // Fault the CSR pages in from static-partitioned lanes before the warm
  // query, so on NUMA hosts the adjacency pages a lane scans are resident
  // on that lane's node (a pure cache warm elsewhere).
  (void)io::PrefaultGraph(network->graph());

  core::SystemCatalog catalog =
      core::MakeCatalog(network->graph(), /*jump=*/4, /*burn_in=*/24);
  core::AsyncParams async;
  async.engine.phase1_peers = 48;
  async.engine.tuples_per_peer = kTuplesPerPeer;
  async.engine.cv_repeats = 4;
  async.walkers = 4;
  async.walk.jump = 4;
  async.walk.burn_in = 24;
  core::AsyncQuerySession session(&*network, catalog, async);

  query::AggregateQuery query;
  query.op = query::AggregateOp::kCount;
  query.predicate = query::RangePredicate{1, 100};
  query.required_error = 0.5;
  // Warm-up: same query, fresh identically-seeded RNG, so the session's
  // arena, scratches and event slabs grow to their plateau and the touched
  // world pages fault in. The walk itself replays identically (its draws
  // come from the query RNG); only hop-latency jitter differs.
  {
    util::Rng warm_rng(999331);
    auto warm = session.Execute(query, kSink, warm_rng);
    if (!warm.ok()) return 1;
  }
  // Measured repeats: aggregate events over several warm queries so the
  // drain rate reflects the event core, not timer granularity on a
  // sub-millisecond trace. A query visits a bounded peer set regardless of
  // world size (~500 events), so the repeat count is a flat 128: roughly a
  // 0.1-0.3s timed window at any scale, well above scheduler/timer noise.
  constexpr size_t kMeasuredRepeats = 128;
  uint64_t total_events = 0;
  uint64_t total_drain_allocs = 0;
  // Drains the measured repeats, leaving the last report in `*last`;
  // returns their events per second, or a negative value when a query
  // fails.
  auto measure_repeats = [&](core::AsyncQueryReport* last) {
    total_events = 0;
    total_drain_allocs = 0;
    double total_query_s = 0.0;
    for (size_t repeat = 0; repeat < kMeasuredRepeats; ++repeat) {
      util::Rng rng(999331);
      auto query_start = std::chrono::steady_clock::now();
      auto report = session.Execute(query, kSink, rng);
      total_query_s += Seconds(query_start);
      if (!report.ok()) return -1.0;
      total_events += report->events;
      total_drain_allocs += report->drain_allocs;
      *last = *report;
    }
    return total_query_s > 0.0
               ? static_cast<double>(total_events) / total_query_s
               : 0.0;
  };
  core::AsyncQueryReport last;
  const double events_per_sec = measure_repeats(&last);
  if (events_per_sec < 0.0) return 1;
  const double steady_allocs_per_event =
      total_events > 0 ? static_cast<double>(total_drain_allocs) /
                             static_cast<double>(total_events)
                       : 0.0;

  RecordScaleTelemetry(bytes_per_peer, events_per_sec,
                       steady_allocs_per_event, build_peak_rss_mb);

  // Straggler tier: the same COUNT under a heavy Pareto tail plus a 10%
  // slow coalition, answered by the full resilience stack (Walk-Not-Wait,
  // health breaker, hedging, backoff) under a deadline pinned to 4x the
  // fault-free makespan. The per-query simulated wall time and the anytime
  // rate are deterministic for the fixed seeds, so tools/bench_gate.py
  // upper-bounds both: a regression here means tail handling got worse.
  net::FaultPlan straggler;
  straggler.tail = net::LatencyTail::kPareto;
  straggler.tail_scale_ms = 10.0;
  straggler.tail_alpha = 1.1;
  straggler.slow_fraction = 0.1;
  straggler.slow_factor = 20.0;
  straggler.crash_immune = {kSink};
  network->InstallFaultPlan(straggler, 6071);
  core::AsyncParams resilient = async;
  resilient.engine.straggler.walk_not_wait = true;
  resilient.engine.straggler.health_tracking = true;
  resilient.engine.straggler.hedged_replies = true;
  resilient.engine.straggler.exponential_backoff = true;
  resilient.engine.deadline_ms = 4.0 * last.makespan_ms;
  core::AsyncQuerySession straggler_session(&*network, catalog, resilient);
  constexpr size_t kStragglerRepeats = 64;
  std::vector<double> makespans;
  makespans.reserve(kStragglerRepeats);
  size_t deadline_hits = 0;
  for (size_t repeat = 0; repeat < kStragglerRepeats; ++repeat) {
    util::Rng rng(515000 + repeat);
    auto report = straggler_session.Execute(query, kSink, rng);
    if (!report.ok()) return 1;
    makespans.push_back(report->makespan_ms);
    if (report->answer.deadline_hit) ++deadline_hits;
  }
  network->InstallFaultPlan(net::FaultPlan{}, 0);
  std::sort(makespans.begin(), makespans.end());
  const double p99_query_wall_ms =
      makespans[(makespans.size() * 99) / 100];
  const double deadline_hit_rate =
      static_cast<double>(deadline_hits) /
      static_cast<double>(kStragglerRepeats);
  RecordStragglerTelemetry(p99_query_wall_ms, deadline_hit_rate);

  // Churn tier: epochs at churn_faults_async's rates (1% leave, 20% rejoin,
  // the sink pinned), stepped last on this world itself — nothing reads it
  // afterwards, and a clone would double the 10M tier's footprint. The
  // departed set grows over the first epochs, so the median of nine covers
  // both a nearly all-alive world and a churning one.
  net::ChurnParams churn_params;
  churn_params.leave_probability = 0.01;
  churn_params.rejoin_probability = 0.2;
  churn_params.pinned = {kSink};
  net::ChurnModel churn(churn_params, 8675309);
  constexpr size_t kChurnEpochs = 9;
  std::vector<double> epoch_us;
  epoch_us.reserve(kChurnEpochs);
  for (size_t epoch = 0; epoch < kChurnEpochs; ++epoch) {
    auto epoch_start = std::chrono::steady_clock::now();
    churn.Step(*network);
    epoch_us.push_back(1e6 * Seconds(epoch_start));
  }
  std::sort(epoch_us.begin(), epoch_us.end());
  const double churn_epoch_us = epoch_us[kChurnEpochs / 2];

  // The same warm repeats on the churned world: a few percent of the peers
  // are down now, so most holders forward through the liveness filter and
  // some tokens are lost and re-issued. One unmeasured query first absorbs
  // what the new walks touch for the first time.
  {
    util::Rng warm_rng(999331);
    if (!session.Execute(query, kSink, warm_rng).ok()) return 1;
  }
  core::AsyncQueryReport churned_last;
  const double churned_events_per_sec = measure_repeats(&churned_last);
  if (churned_events_per_sec < 0.0) return 1;
  RecordChurnTelemetry(churn_epoch_us, churned_events_per_sec);

  util::AsciiTable out({"peers", "build_s", "build_rss_mb", "bytes_per_peer",
                        "events", "events_per_sec", "allocs_per_event",
                        "estimate", "p99_query_ms", "deadline_hits",
                        "churn_epoch_us", "churned_events_per_sec"});
  out.AddRow({util::AsciiTable::FormatInt(static_cast<int64_t>(num_peers)),
              util::AsciiTable::FormatDouble(build_s, 2),
              util::AsciiTable::FormatDouble(build_peak_rss_mb, 0),
              util::AsciiTable::FormatDouble(bytes_per_peer, 1),
              util::AsciiTable::FormatInt(static_cast<int64_t>(last.events)),
              util::AsciiTable::FormatDouble(events_per_sec, 0),
              util::AsciiTable::FormatDouble(steady_allocs_per_event, 3),
              util::AsciiTable::FormatDouble(last.answer.estimate, 0),
              util::AsciiTable::FormatDouble(p99_query_wall_ms, 0),
              util::AsciiTable::FormatPercent(deadline_hit_rate),
              util::AsciiTable::FormatDouble(churn_epoch_us, 1),
              util::AsciiTable::FormatDouble(churned_events_per_sec, 0)});
  EmitFigure("Scale series: super-peer world, full-domain COUNT",
             "super_fraction=0.02, core_edges=4, leaf_connections=2, "
             "CL=0.25, Z=0.2",
             out, io);
  return 0;
}

}  // namespace
}  // namespace p2paqp::bench

int main(int argc, char** argv) { return p2paqp::bench::Run(argc, argv); }
