// The benchmark's three workloads and one set-up instance of each.
//
// A workload is a fixed world recipe, engine configuration and query mix;
// the seed argument drives everything drawn per run: the queries, their
// sinks, the per-query execution RNG, the network's latency stream, the
// fault injector and the churn model. Query i is a pure function of
// (seed, i), so a prefix of the stream replays bit-identically on a fresh
// instance, which is what the digest check relies on.
#ifndef P2PAQP_PERFBENCH_WORKLOAD_H_
#define P2PAQP_PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/async_engine.h"
#include "core/two_phase.h"
#include "net/churn.h"
#include "net/fault.h"
#include "util/zipf.h"
#include "worlds.h"

namespace p2paqp::perfbench {

struct WorkloadSpec {
  std::string name;
  std::string why;
  // Pinned P2PAQP_THREADS for every measured phase, and the second value
  // the digest replay runs under.
  size_t threads = 1;
  size_t alt_threads = 4;
  std::vector<WorldSpec> worlds;
  // Out-of-core builder knobs (P2PAQP_BUILD_SPILL_EDGES /
  // P2PAQP_BUILD_MERGE_FAN_IN); 0 edges = in-memory build.
  size_t spill_edges = 0;
  size_t merge_fan_in = 64;

  // Engine: the synchronous TwoPhaseEngine, or AsyncQuerySession with
  // `walkers` concurrent walkers.
  bool async = false;
  size_t walkers = 1;
  size_t jump = 10;
  size_t burn_in = 50;
  core::EngineParams engine;

  // Query mix: ops drawn uniformly.
  std::vector<query::AggregateOp> ops;
  // > 0: sinks come from the first `sink_pool` peers (super-peers), which
  // churn and crash faults never take down; 0: any peer.
  size_t sink_pool = 0;

  // Failure paths (async only).
  std::optional<net::FaultPlan> faults;
  std::optional<net::ChurnParams> churn;
  double churn_interval_ms = 0.0;

  // The deterministic metrics and the replay digest cover the first
  // `fixed_queries` queries of every stream.
  size_t fixed_queries = 1000;
  // Instances built per run; the median of their set-up times is setup_s.
  size_t setups = 3;
};

// Returns the named workload, scaled down to a seconds-long smoke size when
// `tiny` is set (the self-test's setting). Empty name on an unknown
// workload.
WorkloadSpec FindWorkload(const std::string& name, bool tiny);
std::vector<std::string> WorkloadNames();

struct GeneratedQuery {
  size_t index = 0;
  size_t world = 0;
  graph::NodeId sink = 0;
  query::AggregateQuery query;
  uint64_t exec_seed = 0;
};

// What one Execute call produced, plus the output check's verdict.
struct QueryOutcome {
  GeneratedQuery generated;
  bool ok = false;        // Execute returned OK.
  bool checked = false;   // ... and the answer passed the output check.
  // Execute wall time; in a traced run it includes the tracer's own work.
  double wall_s = 0.0;
  double error = 0.0;     // Normalized error against the exact oracle.
  // bench::NormalizedError itself, when the caller asked for it: the check
  // that the static oracle's shortcut agrees with it.
  double reference_error = 0.0;
  double makespan_ms = 0.0;
  uint64_t events = 0;
  uint64_t drain_allocs = 0;
  core::ApproximateAnswer answer;
};

// Hooks a traced run installs around the calls into each layer (see
// trace.h). Null in untraced runs.
class Tracer;

// bench::NormalizedError (the paper's Sec. 5.5 error) for a world that
// never changes: each predicate's exact COUNT and SUM are asked of the
// network's oracle once, and the value distribution behind the median's
// rank is tallied once, instead of scanning every tuple per answer.
class StaticOracle {
 public:
  explicit StaticOracle(const bench::World* world);
  double NormalizedError(const query::AggregateQuery& query, double estimate);

 private:
  const bench::World* world_;
  std::map<std::pair<data::Value, data::Value>, std::pair<int64_t, int64_t>>
      truths_;
  // Distinct values ascending, with the number of tuples below each.
  std::vector<data::Value> values_;
  std::vector<int64_t> tuples_below_;
};

// One set-up world (or pair of worlds) with its engines, ready to answer
// the workload's query stream.
class Instance {
 public:
  // Builds the worlds, engines and fault/churn regimes, runs the warm-up
  // query, then seeds the regimes from `seed`. `times` receives the
  // per-stage set-up times and `warmup_s` the time from the built worlds
  // to the warm-up query's answer.
  Instance(const WorkloadSpec& spec, uint64_t seed, StageTimes* times,
           double* warmup_s);

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  // Query `index` of the stream drawn from the workload seed.
  GeneratedQuery Generate(size_t index) const;

  // Runs query `index` and checks its answer. With `tracer` set, the call
  // runs through the traced engine variant and records spans. `corrupt`
  // replaces the estimate with NaN before the check (the self-test's proof
  // that the check can fail).
  // `reference` also computes bench::NormalizedError by full scan.
  QueryOutcome Run(size_t index, Tracer* tracer, bool corrupt = false,
                   bool reference = false);

  std::deque<bench::World>& worlds() { return worlds_; }
  size_t total_peers() const;
  size_t total_edges() const;

 private:
  GeneratedQuery GenerateWith(uint64_t seed, size_t index) const;
  // The timed Execute call alone, without the output check.
  QueryOutcome Answer(const GeneratedQuery& generated, Tracer* tracer);

  WorkloadSpec spec_;
  uint64_t seed_;
  // Stable addresses: engines and sessions point into the worlds.
  std::deque<bench::World> worlds_;
  std::vector<core::SystemCatalog> catalogs_;
  std::vector<std::unique_ptr<core::TwoPhaseEngine>> engines_;
  std::vector<std::unique_ptr<core::AsyncQuerySession>> sessions_;
  std::vector<std::unique_ptr<core::TwoPhaseEngine>> traced_engines_;
  std::unique_ptr<net::ChurnModel> churn_;
  // One per world when nothing changes liveness; empty under churn.
  std::vector<StaticOracle> oracles_;
  util::ZipfGenerator zipf_;
};

}  // namespace p2paqp::perfbench

#endif  // P2PAQP_PERFBENCH_WORKLOAD_H_
