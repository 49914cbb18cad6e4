#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/parallel.h"

namespace p2paqp::bench {

namespace {

size_t Scaled(size_t value, double scale, size_t floor_value) {
  auto scaled = static_cast<size_t>(static_cast<double>(value) * scale);
  return std::max(scaled, floor_value);
}

// Process-wide telemetry across every RunExperiment/RunBaselineExperiment in
// the binary, dumped into BENCH_<name>.json by EmitFigure when --json (or
// P2PAQP_BENCH_JSON) is set. Mutex-guarded because sweeps record from
// parallel workers.
struct BenchTelemetry {
  std::mutex mu;
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  size_t experiments = 0;
  double messages = 0.0;
  double bytes = 0.0;
  double peers_visited = 0.0;
  double observations_lost = 0.0;
  double suspected_peers = 0.0;
  double trimmed_mass = 0.0;
  // Multi-query scheduler telemetry (core::QueryScheduler batches); zero
  // for binaries that never run the scheduler.
  size_t sched_queries = 0;
  double sched_wall_s = 0.0;
  double sched_messages = 0.0;
  double sched_frame_hits = 0.0;
  // Scale-world telemetry (bench/scale_world.cc); zero for binaries that
  // never build the scale world.
  double bytes_per_peer = 0.0;
  double events_per_sec = 0.0;
  double steady_allocs_per_event = 0.0;
  // Peak RSS (MB) right after world construction; 0 = not recorded.
  double world_build_peak_rss_mb = 0.0;
  // Straggler-tier telemetry (heavy-tail latency regimes); zero for
  // binaries that never run one.
  double p99_query_wall_ms = 0.0;
  double deadline_hit_rate = 0.0;
};

BenchTelemetry& Telemetry() {
  static BenchTelemetry* t = new BenchTelemetry;
  return *t;
}

void RecordRunTelemetry(const RunStats& stats) {
  BenchTelemetry& t = Telemetry();
  std::lock_guard<std::mutex> lock(t.mu);
  ++t.experiments;
  t.messages += stats.mean_messages;
  t.bytes += stats.mean_bytes;
  t.peers_visited += stats.mean_peers_visited;
  t.observations_lost += stats.mean_observations_lost;
  t.suspected_peers += stats.mean_suspected_peers;
  t.trimmed_mass += stats.mean_trimmed_mass;
}

}  // namespace

void RecordSchedulerTelemetry(size_t queries, double wall_s, double messages,
                              double frame_hits) {
  BenchTelemetry& t = Telemetry();
  std::lock_guard<std::mutex> lock(t.mu);
  t.sched_queries += queries;
  t.sched_wall_s += wall_s;
  t.sched_messages += messages;
  t.sched_frame_hits += frame_hits;
}

void RecordScaleTelemetry(double bytes_per_peer, double events_per_sec,
                          double steady_allocs_per_event,
                          double world_build_peak_rss_mb) {
  BenchTelemetry& t = Telemetry();
  std::lock_guard<std::mutex> lock(t.mu);
  t.bytes_per_peer = bytes_per_peer;
  t.events_per_sec = events_per_sec;
  t.steady_allocs_per_event = steady_allocs_per_event;
  t.world_build_peak_rss_mb = world_build_peak_rss_mb;
}

void RecordStragglerTelemetry(double p99_query_wall_ms,
                              double deadline_hit_rate) {
  BenchTelemetry& t = Telemetry();
  std::lock_guard<std::mutex> lock(t.mu);
  t.p99_query_wall_ms = p99_query_wall_ms;
  t.deadline_hit_rate = deadline_hit_rate;
}

// Normalized error per op (Sec. 5.5: errors in [0, 1]).
double NormalizedError(const World& world, const query::AggregateQuery& query,
                       double estimate) {
  const net::SimulatedNetwork& network = world.network;
  switch (query.op) {
    case query::AggregateOp::kCount: {
      double truth = static_cast<double>(
          network.ExactCount(query.predicate.lo, query.predicate.hi));
      return std::fabs(estimate - truth) /
             static_cast<double>(world.total_tuples);
    }
    case query::AggregateOp::kSum: {
      double truth = static_cast<double>(
          network.ExactSum(query.predicate.lo, query.predicate.hi));
      return std::fabs(estimate - truth) /
             static_cast<double>(world.total_sum);
    }
    case query::AggregateOp::kAvg: {
      double count = static_cast<double>(
          network.ExactCount(query.predicate.lo, query.predicate.hi));
      if (count == 0.0) return std::fabs(estimate);
      double truth = static_cast<double>(network.ExactSum(
                         query.predicate.lo, query.predicate.hi)) /
                     count;
      return truth == 0.0 ? std::fabs(estimate)
                          : std::fabs(estimate - truth) / std::fabs(truth);
    }
    case query::AggregateOp::kMedian:
    case query::AggregateOp::kQuantile: {
      // Rank deviation |rank(est) - phi*N| / N (Sec. 5.6: "the difference
      // between the true rank of the median that the algorithm returns, and
      // N/2").
      double phi = query.op == query::AggregateOp::kQuantile
                       ? query.quantile_phi
                       : 0.5;
      int64_t below = 0;
      for (graph::NodeId p = 0; p < network.num_peers(); ++p) {
        if (!network.IsAlive(p)) continue;
        for (const data::Tuple& t : network.peer(p).database().tuples()) {
          if (static_cast<double>(t.value) < estimate) ++below;
        }
      }
      double rank = static_cast<double>(below) /
                    static_cast<double>(world.total_tuples);
      return std::fabs(rank - phi);
    }
    case query::AggregateOp::kDistinct: {
      std::vector<bool> seen(256, false);
      size_t distinct = 0;
      for (graph::NodeId p = 0; p < network.num_peers(); ++p) {
        if (!network.IsAlive(p)) continue;
        for (const data::Tuple& t : network.peer(p).database().tuples()) {
          if (!query.predicate.Matches(t.value)) continue;
          auto index = static_cast<size_t>(t.value) & 0xff;
          if (!seen[index]) {
            seen[index] = true;
            ++distinct;
          }
        }
      }
      if (distinct == 0) return std::fabs(estimate);
      return std::fabs(estimate - static_cast<double>(distinct)) /
             static_cast<double>(distinct);
    }
  }
  return 0.0;
}

namespace {

// One repetition's measurements, recorded into its own slot so the parallel
// repetitions reduce deterministically in rep order afterwards.
struct RepOutcome {
  bool ok = false;
  double error = 0.0;
  double sample_tuples = 0.0;
  double phase2_peers = 0.0;
  double peers_visited = 0.0;
  double messages = 0.0;
  double bytes = 0.0;
  double latency_ms = 0.0;
  double observations_lost = 0.0;
  double suspected_peers = 0.0;
  double trimmed_mass = 0.0;
  double duplicate_replies = 0.0;
};

// Builds the engine for one repetition against that repetition's own cloned
// network (engines hold a network pointer, so they cannot be shared).
using EngineFactory = std::function<std::unique_ptr<core::TwoPhaseEngine>(
    net::SimulatedNetwork* network)>;

// Seed for the per-repetition network clone (latency jitter stream). Distinct
// from the per-repetition query RNG below so neither perturbs the other.
uint64_t RepNetworkSeed(uint64_t base_seed, size_t rep) {
  return util::MixSeed(base_seed ^
                       (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(rep) + 1)));
}

RunStats RunWithEngine(const World& world, const RunConfig& config,
                       const EngineFactory& make_engine) {
  query::AggregateQuery query;
  query.op = config.op;
  query.predicate = ResolvePredicate(world, config);
  query.required_error = config.required_error;

  // Repetitions are independent by construction: each runs against its own
  // CloneWorld with seeds derived only from (base_seed, rep). Slots +
  // serial reduction keep the result bit-identical for any thread count.
  std::vector<RepOutcome> outcomes = util::ParallelMap(
      config.repetitions, [&](size_t rep) -> RepOutcome {
        World rep_world =
            CloneWorld(world, RepNetworkSeed(config.base_seed, rep));
        std::unique_ptr<core::TwoPhaseEngine> engine =
            make_engine(&rep_world.network);
        util::Rng rng(config.base_seed + rep * 1099511628211ULL);
        auto sink = static_cast<graph::NodeId>(
            rng.UniformIndex(rep_world.network.num_peers()));
        while (!rep_world.network.IsAlive(sink)) {
          sink = static_cast<graph::NodeId>(
              rng.UniformIndex(rep_world.network.num_peers()));
        }
        auto answer = engine->Execute(query, sink, rng);
        RepOutcome out;
        if (!answer.ok()) return out;
        out.ok = true;
        out.error = NormalizedError(world, query, answer->estimate);
        out.sample_tuples = static_cast<double>(answer->sample_tuples);
        out.phase2_peers = static_cast<double>(answer->phase2_peers);
        out.peers_visited = static_cast<double>(answer->cost.peers_visited);
        out.messages = static_cast<double>(answer->cost.messages);
        out.bytes = static_cast<double>(answer->cost.bytes_shipped);
        out.latency_ms = answer->cost.latency_ms;
        out.observations_lost =
            static_cast<double>(answer->observations_lost);
        out.suspected_peers = static_cast<double>(answer->suspected_peers);
        out.trimmed_mass = answer->trimmed_mass;
        out.duplicate_replies =
            static_cast<double>(answer->duplicate_replies);
        return out;
      });

  RunStats stats;
  double error_sum = 0.0;
  size_t successes = 0;
  for (const RepOutcome& out : outcomes) {
    if (!out.ok) {
      ++stats.failures;
      continue;
    }
    error_sum += out.error;
    stats.max_error = std::max(stats.max_error, out.error);
    stats.mean_sample_tuples += out.sample_tuples;
    stats.mean_phase2_peers += out.phase2_peers;
    stats.mean_peers_visited += out.peers_visited;
    stats.mean_messages += out.messages;
    stats.mean_bytes += out.bytes;
    stats.mean_latency_ms += out.latency_ms;
    stats.mean_observations_lost += out.observations_lost;
    stats.mean_suspected_peers += out.suspected_peers;
    stats.mean_trimmed_mass += out.trimmed_mass;
    stats.mean_duplicate_replies += out.duplicate_replies;
    ++successes;
  }
  if (successes > 0) {
    auto n = static_cast<double>(successes);
    stats.mean_error = error_sum / n;
    stats.mean_sample_tuples /= n;
    stats.mean_phase2_peers /= n;
    stats.mean_peers_visited /= n;
    stats.mean_messages /= n;
    stats.mean_bytes /= n;
    stats.mean_latency_ms /= n;
    stats.mean_observations_lost /= n;
    stats.mean_suspected_peers /= n;
    stats.mean_trimmed_mass /= n;
    stats.mean_duplicate_replies /= n;
  }
  RecordRunTelemetry(stats);
  return stats;
}

core::EngineParams MakeEngineParams(const RunConfig& config) {
  core::EngineParams params;
  params.tuples_per_peer = config.tuples_per_peer_sample;
  params.phase1_peers = std::max<size_t>(
      4, config.initial_sample_tuples /
             std::max<uint64_t>(1, config.tuples_per_peer_sample));
  params.cv_repeats = 10;
  params.normalization = config.normalization;
  // Visiting more than ~1600 peers stops being "sampling"; the paper's
  // largest reported plans are ~560 peers (14k tuples at t=25). The cap
  // also bounds the jump=10000 sweeps of Figure 12.
  params.max_phase2_peers = 1600;
  params.robustness = config.robustness;
  return params;
}

core::SystemCatalog CatalogFor(const World& world, const RunConfig& config) {
  core::SystemCatalog catalog = world.catalog;
  catalog.suggested_jump = config.jump;
  catalog.suggested_burn_in = config.burn_in;
  return catalog;
}

}  // namespace

double ScaleFactor() {
  const char* env = std::getenv("P2PAQP_SCALE");
  if (env == nullptr) return 1.0;
  double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

World BuildWorld(const WorldConfig& config) {
  double scale = ScaleFactor();
  util::Rng rng(config.seed);

  size_t peers;
  size_t edges;
  graph::Graph overlay;
  if (config.kind == WorldKind::kGnutella) {
    peers = Scaled(config.num_peers != 0 ? config.num_peers
                                         : topology::kGnutella2001Peers,
                   scale, 64);
    edges = Scaled(config.num_edges != 0 ? config.num_edges
                                         : topology::kGnutella2001Edges,
                   scale, peers + 32);
    topology::GnutellaParams params;
    params.num_nodes = peers;
    params.num_edges = edges;
    auto graph = topology::MakeGnutellaSnapshot(params, rng);
    P2PAQP_CHECK(graph.ok()) << graph.status().ToString();
    overlay = std::move(*graph);
  } else {
    peers = Scaled(config.num_peers != 0 ? config.num_peers : 10000, scale,
                   64);
    edges = Scaled(config.num_edges != 0 ? config.num_edges : 100000, scale,
                   peers + 32);
    if (config.num_subgraphs > 1) {
      topology::ClusteredParams params;
      params.num_nodes = peers;
      params.num_edges = edges;
      params.num_subgraphs = config.num_subgraphs;
      // The cut participates in the topology scaling, clamped into the
      // feasible band (connectivity floor below, edge budget above).
      size_t cut = Scaled(config.cut_edges, scale, 1);
      size_t cut_floor = config.num_subgraphs - 1;
      size_t cut_ceiling =
          params.num_edges > params.num_nodes
              ? params.num_edges - params.num_nodes
              : cut_floor;
      params.cut_edges =
          std::clamp(cut, cut_floor, std::max(cut_floor, cut_ceiling));
      auto topo = topology::MakeClustered(params, rng);
      P2PAQP_CHECK(topo.ok()) << topo.status().ToString();
      overlay = std::move(topo->graph);
    } else {
      auto graph = topology::MakePowerLawWithEdgeCount(peers, edges, rng);
      P2PAQP_CHECK(graph.ok()) << graph.status().ToString();
      overlay = std::move(*graph);
    }
  }

  data::DatasetParams dataset;
  dataset.num_tuples = peers * config.tuples_per_peer;
  dataset.skew = config.skew;
  auto table = data::GenerateDataset(dataset, rng);
  P2PAQP_CHECK(table.ok()) << table.status().ToString();

  data::PartitionParams partition;
  partition.cluster_level = config.cluster_level;
  partition.sort_local_tables = config.sort_local_tables;
  auto databases = data::PartitionAcrossPeers(*table, overlay, partition, rng);
  P2PAQP_CHECK(databases.ok()) << databases.status().ToString();

  core::SystemCatalog catalog = core::MakeCatalog(overlay, 10, 50);
  auto network = net::SimulatedNetwork::Make(
      std::move(overlay), std::move(*databases), net::NetworkParams{},
      config.seed + 1);
  P2PAQP_CHECK(network.ok()) << network.status().ToString();

  World world{std::move(*network), catalog, config.skew, 0, 0};
  world.total_tuples = world.network.TotalTuples();
  world.total_sum = world.network.ExactSum(
      std::numeric_limits<data::Value>::min(),
      std::numeric_limits<data::Value>::max());
  return world;
}

query::RangePredicate ResolvePredicate(const World& world,
                                       const RunConfig& config) {
  if (config.predicate.has_value()) return *config.predicate;
  if (config.selectivity >= 1.0) return query::RangePredicate{1, 100};
  auto zipf = util::ZipfGenerator::Make(100, world.zipf_skew);
  P2PAQP_CHECK(zipf.ok());
  return query::PredicateForSelectivity(*zipf, 1, config.selectivity);
}

World CloneWorld(const World& world, uint64_t network_seed) {
  return World{world.network.Clone(network_seed), world.catalog,
               world.zipf_skew, world.total_tuples, world.total_sum};
}

RunStats RunExperiment(const World& world, const RunConfig& config) {
  core::SystemCatalog catalog = CatalogFor(world, config);
  core::EngineParams params = MakeEngineParams(config);
  return RunWithEngine(world, config, [&](net::SimulatedNetwork* network) {
    return std::make_unique<core::TwoPhaseEngine>(network, catalog, params);
  });
}

RunStats RunBaselineExperiment(const World& world, const RunConfig& config,
                               core::BaselineKind baseline) {
  core::SystemCatalog catalog = CatalogFor(world, config);
  core::EngineParams params = MakeEngineParams(config);
  return RunWithEngine(world, config, [&](net::SimulatedNetwork* network) {
    return core::MakeBaselineEngine(network, catalog, params, baseline);
  });
}

namespace {

// Shared driver for the CL/skew sweeps: the points are independent (each
// builds its own pair of worlds from a fixed seed), so they run through
// ParallelMap and land in x order regardless of completion order.
std::vector<SweepRow> RunSweep(
    const std::vector<double>& xs, const RunConfig& base,
    const std::function<WorldConfig(double)>& synthetic_config) {
  return util::ParallelMap(xs.size(), [&](size_t i) {
    WorldConfig synthetic = synthetic_config(xs[i]);
    WorldConfig gnutella = synthetic;
    gnutella.kind = WorldKind::kGnutella;
    World world_s = BuildWorld(synthetic);
    World world_g = BuildWorld(gnutella);
    SweepRow row;
    row.x = xs[i];
    row.synthetic = RunExperiment(world_s, base);
    row.gnutella = RunExperiment(world_g, base);
    return row;
  });
}

}  // namespace

std::vector<SweepRow> SweepClusterLevel(const std::vector<double>& levels,
                                        const RunConfig& base) {
  return RunSweep(levels, base, [](double level) {
    WorldConfig synthetic;
    synthetic.cluster_level = level;
    synthetic.skew = 0.2;
    return synthetic;
  });
}

std::vector<SweepRow> SweepSkew(const std::vector<double>& skews,
                                const RunConfig& base) {
  return RunSweep(skews, base, [](double skew) {
    WorldConfig synthetic;
    synthetic.cluster_level = 0.25;
    synthetic.skew = skew;
    return synthetic;
  });
}

bool WantCsv(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) return true;
  }
  return false;
}

BenchIo ParseBenchIo(int argc, char** argv) {
  Telemetry();  // Start the wall clock before any work happens.
  BenchIo io;
  io.csv = WantCsv(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) io.json = true;
  }
  const char* env = std::getenv("P2PAQP_BENCH_JSON");
  if (env != nullptr && env[0] != '\0') io.json = true;
  if (argc > 0 && argv[0] != nullptr) {
    const char* base = std::strrchr(argv[0], '/');
    io.name = base != nullptr ? base + 1 : argv[0];
  }
  if (io.name.empty()) io.name = "bench";
  return io;
}

void EmitFigure(const std::string& title, const std::string& setup,
                const util::AsciiTable& table, bool csv) {
  if (csv) {
    std::fputs(table.ToCsv().c_str(), stdout);
    return;
  }
  std::printf("=== %s ===\n", title.c_str());
  if (!setup.empty()) std::printf("%s\n", setup.c_str());
  std::printf("(scale=%.2f; set P2PAQP_SCALE to shrink/grow)\n\n",
              ScaleFactor());
  std::fputs(table.ToString().c_str(), stdout);
  std::fputs("\n", stdout);
}

void EmitFigure(const std::string& title, const std::string& setup,
                const util::AsciiTable& table, const BenchIo& io) {
  EmitFigure(title, setup, table, io.csv);
  if (!io.json) return;
  BenchTelemetry& t = Telemetry();
  std::lock_guard<std::mutex> lock(t.mu);
  double wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t.start)
                      .count();
  double n = t.experiments > 0 ? static_cast<double>(t.experiments) : 1.0;
  std::string path = "BENCH_" + io.name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"name\": \"%s\",\n"
               "  \"wall_time_s\": %.6f,\n"
               "  \"threads\": %zu,\n"
               "  \"scale\": %.4f,\n"
               "  \"experiments\": %zu,\n"
               "  \"mean_messages\": %.3f,\n"
               "  \"mean_bytes\": %.3f,\n"
               "  \"mean_peers_visited\": %.3f,\n"
               "  \"mean_observations_lost\": %.3f,\n"
               "  \"mean_suspected_peers\": %.3f,\n"
               "  \"mean_trimmed_mass\": %.6f,\n"
               "  \"queries_per_sec\": %.3f,\n"
               "  \"messages_per_query\": %.3f,\n"
               "  \"frame_hits\": %.1f,\n"
               "  \"bytes_per_peer\": %.1f,\n"
               "  \"events_per_sec\": %.1f,\n"
               "  \"steady_state_allocs_per_event\": %.3f,\n"
               "  \"world_build_peak_rss_mb\": %.1f,\n"
               "  \"p99_query_wall_ms\": %.1f,\n"
               "  \"deadline_hit_rate\": %.4f\n"
               "}\n",
               io.name.c_str(), wall_s,
               util::ParallelThreads(),
               ScaleFactor(),
               t.experiments, t.messages / n, t.bytes / n,
               t.peers_visited / n, t.observations_lost / n,
               t.suspected_peers / n, t.trimmed_mass / n,
               t.sched_wall_s > 0.0
                   ? static_cast<double>(t.sched_queries) / t.sched_wall_s
                   : 0.0,
               t.sched_queries > 0
                   ? t.sched_messages / static_cast<double>(t.sched_queries)
                   : 0.0,
               t.sched_frame_hits, t.bytes_per_peer, t.events_per_sec,
               t.steady_allocs_per_event, t.world_build_peak_rss_mb,
               t.p99_query_wall_ms, t.deadline_hit_rate);
  std::fclose(f);
}

}  // namespace p2paqp::bench
