#include "trace.h"

#include <cstdio>

#include "sampling/samplers.h"

namespace p2paqp::perfbench {

namespace {

// Walk records kept for the probes' replays, and spans kept for the trace
// file; later queries only add to the span totals.
constexpr size_t kMaxWalkRecords = 4096;
constexpr size_t kMaxKeptSpans = 20000;

// Decorates the paper's sampler with the `sampling` span.
class TimedSampler : public sampling::PeerSampler {
 public:
  TimedSampler(Tracer* tracer, net::SimulatedNetwork* network,
               std::unique_ptr<sampling::PeerSampler> inner)
      : tracer_(tracer), network_(network), inner_(std::move(inner)) {}

  util::Result<std::vector<sampling::PeerVisit>> SamplePeers(
      graph::NodeId sink, size_t count, util::Rng& rng) override {
    return inner_->SamplePeers(sink, count, rng);
  }

  util::Result<sampling::SampleOutcome> SamplePeersResilient(
      graph::NodeId sink, size_t count, util::Rng& rng) override {
    const uint64_t hops_before = network_->cost_snapshot().walker_hops;
    const Clock::time_point start = Clock::now();
    auto outcome = inner_->SamplePeersResilient(sink, count, rng);
    const Clock::time_point end = Clock::now();
    tracer_->SampleDone(start, end,
                        network_->cost_snapshot().walker_hops - hops_before);
    return outcome;
  }

  double StationaryWeight(graph::NodeId node) const override {
    return inner_->StationaryWeight(node);
  }
  std::string name() const override { return inner_->name(); }

 private:
  Tracer* tracer_;
  net::SimulatedNetwork* network_;
  std::unique_ptr<sampling::PeerSampler> inner_;
};

// A cache that never hits: the engine calls Lookup right before
// query::ExecuteLocal and Store right after it, so the pair brackets the
// local execution without changing a single draw.
class LocalExecHook : public core::LocalResultCache {
 public:
  explicit LocalExecHook(Tracer* tracer) : tracer_(tracer) {}

  bool Lookup(graph::NodeId, const query::AggregateQuery&,
              query::LocalAggregate*) override {
    tracer_->LocalExecStart();
    return false;
  }
  void Store(graph::NodeId, const query::AggregateQuery&,
             const query::LocalAggregate&) override {
    tracer_->LocalExecDone();
  }

 private:
  Tracer* tracer_;
};

// The engine owns its sampler but not its cache; this keeps the hook alive
// exactly as long as the engine.
class TracedEngine : public core::TwoPhaseEngine {
 public:
  TracedEngine(Tracer* tracer, net::SimulatedNetwork* network,
               const core::SystemCatalog& catalog,
               const core::EngineParams& params)
      : core::TwoPhaseEngine(
            network, catalog, params,
            std::make_unique<TimedSampler>(
                tracer, network,
                std::make_unique<sampling::RandomWalkSampler>(
                    network,
                    sampling::WalkParams{
                        .jump = std::max<size_t>(1, catalog.suggested_jump),
                        .burn_in = catalog.suggested_burn_in})),
            catalog.total_degree_weight()),
        hook_(tracer) {
    set_cache(&hook_);
  }

 private:
  LocalExecHook hook_;
};

}  // namespace

void Tracer::BeginQuery(uint64_t id, net::SimulatedNetwork* network,
                        const query::AggregateQuery& query,
                        graph::NodeId sink) {
  query_id_ = id;
  samples_in_query_ = 0;
  network_ = network;
  history_.Clear();
  network_->set_history(&history_);
  recording_walk_ = walks_.size() < kMaxWalkRecords;
  if (recording_walk_) {
    WalkRecord& record = walks_.emplace_back();
    record.network = network;
    record.query = query;
    record.sink = sink;
  }
  query_start_ = Clock::now();
}

void Tracer::EndQuery() {
  const Clock::time_point end = Clock::now();
  network_->set_history(nullptr);
  AddSpan("query", query_start_, end);
  if (recording_walk_) {
    WalkRecord& record = walks_.back();
    bool in_liveness_run = false;
    for (const net::HistoryEvent& event : history_.events()) {
      const bool liveness = event.kind == net::HistoryEventKind::kPeerDown ||
                            event.kind == net::HistoryEventKind::kPeerUp;
      if (liveness && !in_liveness_run) ++record.churn_epochs;
      in_liveness_run = liveness;
      if (event.kind != net::HistoryEventKind::kSend) continue;
      if (event.type == net::MessageType::kWalker) {
        record.hops.emplace_back(event.from, event.to);
      } else if (event.type == net::MessageType::kAggregateReply) {
        record.repliers.push_back(event.from);
      }
    }
  }
  history_.Clear();
  network_ = nullptr;
}

void Tracer::AddSpan(const char* name, Clock::time_point start,
                     Clock::time_point end) {
  LayerTotal& total = layers_[name];
  total.seconds += std::chrono::duration<double>(end - start).count();
  ++total.calls;
  if (spans_.size() < kMaxKeptSpans) {
    spans_.push_back(Span{name, query_id_, Micros(start),
                          Micros(end) - Micros(start)});
  }
}

std::unique_ptr<core::TwoPhaseEngine> Tracer::MakeSyncEngine(
    net::SimulatedNetwork* network, const core::SystemCatalog& catalog,
    const core::EngineParams& params) {
  return std::make_unique<TracedEngine>(this, network, catalog, params);
}

Tracer::LayerTotal Tracer::layer(const std::string& name) const {
  auto it = layers_.find(name);
  return it == layers_.end() ? LayerTotal{} : it->second;
}

void Tracer::SampleDone(Clock::time_point start, Clock::time_point end,
                        uint64_t hops) {
  // The second collection of a query starts phase II: what the sink did
  // since phase I's last local execution is the planning step.
  if (samples_in_query_++ == 1) AddSpan("core", last_local_end_, start);
  AddSpan("sampling", start, end);
  sampled_hops_ += hops;
}

void Tracer::LocalExecDone() {
  last_local_end_ = Clock::now();
  AddSpan("query.local_exec", local_start_, last_local_end_);
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"p2paqp\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"query\":%llu}}\n",
                 i == 0 ? "" : ",", span.name, span.start_us,
                 span.duration_us,
                 static_cast<unsigned long long>(span.query));
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace p2paqp::perfbench
