// Spans and counters for the benchmark's traced run.
//
// Every span is recorded from the benchmark's own code, around a call into
// a layer's public interface: the synchronous engine is built with a
// sampler decorator (the `sampling` span) and a LocalResultCache hook that
// never hits, whose Lookup/Store pair brackets query::ExecuteLocal (the
// `query` span). The gap between a query's last phase-I local execution and
// its phase-II walk is the sink's planning step: cross-validation plus
// phase-II sizing (the `core` span). The event-driven engine exposes no
// such seams, so its layers are timed by probes (probes.h) and joined to
// the per-query counts.
//
// Spans are held in memory (up to a cap) and written at exit as Chrome
// trace-event JSON, which Perfetto and chrome://tracing open directly.
#ifndef P2PAQP_PERFBENCH_TRACE_H_
#define P2PAQP_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/two_phase.h"
#include "net/history.h"
#include "net/network.h"

namespace p2paqp::perfbench {

using Clock = std::chrono::steady_clock;

// What the history of one traced query shows about its walks.
struct WalkRecord {
  net::SimulatedNetwork* network = nullptr;
  query::AggregateQuery query;
  graph::NodeId sink = 0;
  // Consecutive walker-token hops (from, to).
  std::vector<std::pair<graph::NodeId, graph::NodeId>> hops;
  // Peers that sent an aggregate reply (executed the query locally).
  std::vector<graph::NodeId> repliers;
  // Maximal runs of liveness transitions: one per churn epoch.
  size_t churn_epochs = 0;
};

class Tracer {
 public:

  // Brackets one query: the root span, and the history recorder attached
  // to `network` for the duration of the call.
  void BeginQuery(uint64_t id, net::SimulatedNetwork* network,
                  const query::AggregateQuery& query, graph::NodeId sink);
  void EndQuery();

  // A child span of the current query.
  void AddSpan(const char* name, Clock::time_point start,
               Clock::time_point end);

  // The synchronous engine with the sampler decorator and the
  // local-execution hook installed; bit-identical answers to the plain
  // engine built from the same arguments.
  std::unique_ptr<core::TwoPhaseEngine> MakeSyncEngine(
      net::SimulatedNetwork* network, const core::SystemCatalog& catalog,
      const core::EngineParams& params);

  // Totals over every traced query.
  struct LayerTotal {
    double seconds = 0.0;
    uint64_t calls = 0;
  };
  LayerTotal layer(const std::string& name) const;
  double query_seconds() const { return layer("query").seconds; }
  uint64_t queries() const { return layer("query").calls; }
  uint64_t sampled_hops() const { return sampled_hops_; }
  const std::vector<WalkRecord>& walks() const { return walks_; }

  // Chrome trace-event JSON: "X" complete events on one track, each
  // tagged with its query index.
  bool WriteChromeTrace(const std::string& path) const;

  // Internal hooks for the sync-engine decorators.
  void SampleDone(Clock::time_point start, Clock::time_point end,
                  uint64_t hops);
  void LocalExecStart() { local_start_ = Clock::now(); }
  void LocalExecDone();

 private:
  struct Span {
    const char* name;
    uint64_t query;
    double start_us;
    double duration_us;
  };

  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  const Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::map<std::string, LayerTotal> layers_;
  std::vector<WalkRecord> walks_;
  net::HistoryRecorder history_;
  net::SimulatedNetwork* network_ = nullptr;

  uint64_t query_id_ = 0;
  bool recording_walk_ = false;
  Clock::time_point query_start_;
  uint64_t sampled_hops_ = 0;
  // Phase tracking inside one synchronous query.
  size_t samples_in_query_ = 0;
  Clock::time_point local_start_;
  Clock::time_point last_local_end_;
};

}  // namespace p2paqp::perfbench

#endif  // P2PAQP_PERFBENCH_TRACE_H_
