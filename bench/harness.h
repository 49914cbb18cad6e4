// Shared experiment harness for the figure-reproduction benchmarks.
//
// Reproduces the evaluation setup of Sec. 5: synthetic power-law and
// calibrated Gnutella-2001 overlays populated with Zipf data distributed
// breadth-first at a configurable cluster level, queried by the two-phase
// engine with the paper's default knobs (t = 25, j = 10, r_orig = 2000,
// five repetitions averaged, errors normalized to [0, 1] against the total
// aggregate).
//
// Every figXX binary builds worlds through this harness and prints the rows
// the corresponding figure plots. `P2PAQP_SCALE` (default 1 = paper scale)
// shrinks the simulated network for quick runs; `--csv` emits
// machine-readable output.
#ifndef P2PAQP_BENCH_HARNESS_H_
#define P2PAQP_BENCH_HARNESS_H_

#include <optional>
#include <string>
#include <vector>

#include "core/aqp.h"
#include "util/ascii_table.h"

namespace p2paqp::bench {

// ---------------------------------------------------------------------------
// World construction
// ---------------------------------------------------------------------------

enum class WorldKind {
  // Sec. 5.2.1 synthetic topology: 10,000 peers / 100,000 edges. Figures
  // 2-6 and 8-16 use the plain power-law overlay; figures 7 and 12 use the
  // clustered two-sub-graph variant (set `num_subgraphs` > 1).
  kSynthetic,
  // Calibrated 2001 Gnutella crawl stand-in: 22,556 peers / 52,321 edges.
  kGnutella,
};

struct WorldConfig {
  WorldKind kind = WorldKind::kSynthetic;
  // Zero means "paper default for the kind".
  size_t num_peers = 0;
  size_t num_edges = 0;
  // Two-sub-graph topology (figures 7 and 12). 1 = single power-law graph.
  size_t num_subgraphs = 1;
  size_t cut_edges = 0;
  // Tuples per peer (paper: 100 synthetic / ~97 Gnutella; figures 4-5 use
  // 50).
  size_t tuples_per_peer = 100;
  double cluster_level = 0.25;  // CL.
  double skew = 0.2;            // Z.
  // Physical layout: sort each peer's local table (clustered local index).
  bool sort_local_tables = false;
  uint64_t seed = 20060403;     // ICDE 2006 vintage.
};

struct World {
  net::SimulatedNetwork network;
  core::SystemCatalog catalog;  // Walk parameters pinned per experiment.
  double zipf_skew = 0.2;
  // Oracle ground truths for error normalization.
  int64_t total_tuples = 0;
  int64_t total_sum = 0;
};

// Builds the world, applying P2PAQP_SCALE to peers/edges/tuples. Aborts on
// misconfiguration (benchmarks only).
World BuildWorld(const WorldConfig& config);

// Deep copy with the network RNG re-seeded from `network_seed` (see
// net::SimulatedNetwork::Clone). Every experiment repetition runs against
// its own clone, which is what makes repetitions independent (no cost/RNG
// bleed between reps) and safe to execute in parallel.
World CloneWorld(const World& world, uint64_t network_seed);

// Scale factor from the environment (default 1.0).
double ScaleFactor();

// ---------------------------------------------------------------------------
// Experiment execution
// ---------------------------------------------------------------------------

struct RunConfig {
  query::AggregateOp op = query::AggregateOp::kCount;
  // Either an explicit predicate or a target selectivity resolved against
  // the world's Zipf distribution.
  std::optional<query::RangePredicate> predicate;
  double selectivity = 0.30;
  double required_error = 0.10;  // Delta_req.
  uint64_t tuples_per_peer_sample = 25;  // t.
  size_t jump = 10;                      // j.
  size_t burn_in = 50;
  core::ErrorNormalization normalization =
      core::ErrorNormalization::kTotalAggregate;
  size_t initial_sample_tuples = 2000;   // r_orig; m = r_orig / t.
  // The paper averages 5 independent runs; the error distribution is
  // heavy-tailed, so we default to 11 for smoother rows (set 5 to mimic
  // the paper exactly).
  size_t repetitions = 11;
  uint64_t base_seed = 7;
  // Sink-side Byzantine defenses (default: plain HT, no audits). Adversary
  // regimes are installed on the world's network (InstallAdversaryPlan)
  // before running; clones carry the plan, re-seeded per repetition.
  core::RobustnessPolicy robustness;
};

struct RunStats {
  double mean_error = 0.0;         // Normalized to [0,1] (paper metric).
  double max_error = 0.0;
  double mean_sample_tuples = 0.0; // The paper's latency surrogate.
  double mean_phase2_peers = 0.0;
  double mean_peers_visited = 0.0;
  double mean_messages = 0.0;
  double mean_bytes = 0.0;
  double mean_latency_ms = 0.0;
  size_t failures = 0;             // Runs that returned an error status.
  // Robustness/degradation telemetry (0 on honest, fault-free runs).
  double mean_observations_lost = 0.0;
  double mean_suspected_peers = 0.0;
  double mean_trimmed_mass = 0.0;
  double mean_duplicate_replies = 0.0;
};

// Runs `config.repetitions` independent queries from random sinks and
// averages, like Sec. 5.5 ("five independent experiments and averaged").
// The engine is the paper's random-walk engine; `baseline` switches to the
// BFS/DFS baselines for Fig. 7.
//
// Repetitions run through util::ParallelFor (P2PAQP_THREADS), each against
// its own CloneWorld — results are bit-identical for any thread count and
// `world` itself is never mutated.
RunStats RunExperiment(const World& world, const RunConfig& config);
RunStats RunBaselineExperiment(const World& world, const RunConfig& config,
                               core::BaselineKind baseline);

// Records one core::QueryScheduler batch into the binary's BENCH telemetry:
// `queries` answered in `wall_s` seconds with `messages` wire messages and
// `frame_hits` frame selections served from the cached sample frame. Feeds
// the `queries_per_sec` / `messages_per_query` / `frame_hits` JSON fields.
void RecordSchedulerTelemetry(size_t queries, double wall_s, double messages,
                              double frame_hits);

// Records the scale-world telemetry (bench/scale_world.cc): the world's
// resident footprint per peer, the event core's steady-state drain rate, and
// the heap allocations per drained event on the warm path. Feeds the
// identically named `bytes_per_peer` / `events_per_sec` /
// `steady_state_allocs_per_event` JSON fields, which tools/bench_gate.py
// gates as an upper bound, a lower bound, resp. exactly-zero whenever the
// committed baseline recorded them (see docs/PERFORMANCE.md, "Scale tier").
// `world_build_peak_rss_mb` is the process peak RSS right after world
// construction (ru_maxrss), the number the out-of-core builder exists to
// bound; gated as an upper bound when the baseline records it.
void RecordScaleTelemetry(double bytes_per_peer, double events_per_sec,
                          double steady_allocs_per_event,
                          double world_build_peak_rss_mb);

// Records the straggler-tier telemetry: the 99th-percentile simulated query
// wall time (event-clock makespan, so deterministic for a fixed seed) and
// the fraction of queries whose deadline fired, answered anytime. Feeds the
// `p99_query_wall_ms` / `deadline_hit_rate` JSON fields, which
// tools/bench_gate.py gates as upper bounds whenever the committed baseline
// recorded them (tail-latency handling must not regress silently).
void RecordStragglerTelemetry(double p99_query_wall_ms,
                              double deadline_hit_rate);

// Resolves the predicate for a run (explicit predicate wins; otherwise the
// target selectivity against Zipf(world.zipf_skew)).
query::RangePredicate ResolvePredicate(const World& world,
                                       const RunConfig& config);

// Normalized error of `estimate` against the world's oracle ground truth,
// per the paper's Sec. 5.5 metric (COUNT/SUM normalized to the total
// aggregate, AVG relative, MEDIAN/QUANTILE as rank deviation). Also used by
// the statistical verification suite.
double NormalizedError(const World& world, const query::AggregateQuery& query,
                       double estimate);

// ---------------------------------------------------------------------------
// Parameter sweeps shared by the clustering/skew figures (8-11, 13-16)
// ---------------------------------------------------------------------------

struct SweepRow {
  double x = 0.0;        // Swept parameter value (CL or Z).
  RunStats synthetic;
  RunStats gnutella;
};

// Rebuilds both worlds at each cluster level and runs `base` on them.
// Sweep points run in parallel (each builds its own pair of worlds).
std::vector<SweepRow> SweepClusterLevel(const std::vector<double>& levels,
                                        const RunConfig& base);

// Rebuilds both worlds at each skew and runs `base` on them (the predicate
// is re-resolved per skew so the target selectivity stays fixed). Sweep
// points run in parallel.
std::vector<SweepRow> SweepSkew(const std::vector<double>& skews,
                                const RunConfig& base);

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

// True if argv contains --csv.
bool WantCsv(int argc, char** argv);

// Parsed benchmark I/O options. `json` (from --json or a non-empty
// P2PAQP_BENCH_JSON environment variable) makes EmitFigure also write
// BENCH_<name>.json — machine-readable perf telemetry (wall time, mean
// messages/bytes/peers visited across every RunExperiment in the binary,
// thread count, scale factor) so the perf trajectory is tracked run over
// run (see docs/PERFORMANCE.md).
struct BenchIo {
  bool csv = false;
  bool json = false;
  std::string name;  // basename(argv[0]); names the BENCH_ file.
};

// Parses --csv/--json and starts the binary's wall-time clock.
BenchIo ParseBenchIo(int argc, char** argv);

// Prints the figure banner + the table (ASCII or CSV).
void EmitFigure(const std::string& title, const std::string& setup,
                const util::AsciiTable& table, bool csv);

// As above, and writes BENCH_<io.name>.json when io.json is set.
void EmitFigure(const std::string& title, const std::string& setup,
                const util::AsciiTable& table, const BenchIo& io);

}  // namespace p2paqp::bench

#endif  // P2PAQP_BENCH_HARNESS_H_
