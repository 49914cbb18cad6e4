#include "core/distinct.h"

#include <cmath>
#include <unordered_map>

#include "util/logging.h"

namespace p2paqp::core {

double ChaoDistinctEstimate(const std::vector<data::Value>& sample) {
  if (sample.empty()) return 0.0;
  std::unordered_map<data::Value, uint64_t> frequency;
  for (data::Value v : sample) ++frequency[v];
  double d_obs = static_cast<double>(frequency.size());
  double f1 = 0.0;
  double f2 = 0.0;
  for (const auto& [value, count] : frequency) {
    if (count == 1) ++f1;
    if (count == 2) ++f2;
  }
  if (f2 == 0.0) {
    // Chao's bias-corrected form when no value appears exactly twice.
    return d_obs + f1 * (f1 - 1.0) / 2.0;
  }
  return d_obs + (f1 * f1) / (2.0 * f2);
}

namespace {

// Raw matching values shipped by one peer.
struct PeerSampleSet {
  std::vector<std::vector<data::Value>> per_peer;

  std::vector<data::Value> Pooled() const {
    std::vector<data::Value> all;
    for (const auto& chunk : per_peer) {
      all.insert(all.end(), chunk.begin(), chunk.end());
    }
    return all;
  }
};

// Visits peers through the engine, ships each peer's raw sub-sample of
// matching tuples to the sink (charged as kSampleReply bytes).
util::Result<PeerSampleSet> CollectRawSamples(
    TwoPhaseEngine& engine, const query::AggregateQuery& query,
    graph::NodeId sink, size_t count, util::Rng& rng) {
  auto observations = engine.CollectObservations(query, sink, count, rng);
  if (!observations.ok()) return observations.status();
  net::SimulatedNetwork* network = engine.network();
  PeerSampleSet set;
  for (const PeerObservation& obs : *observations) {
    data::Table rows = network->peer(obs.peer).database().Sample(
        engine.params().tuples_per_peer, rng);
    std::vector<data::Value> matching;
    for (const data::Tuple& t : rows) {
      if (query.Matches(t)) matching.push_back(t.value);
    }
    // Raw values ride back to the sink: 4 bytes per tuple on top of the
    // reply header — the bandwidth cost that makes these aggregates pricey.
    util::Status sent = network->SendDirect(
        net::MessageType::kSampleReply, obs.peer, sink,
        static_cast<uint32_t>(4 * matching.size()));
    // A reply lost to faults simply removes that peer's sub-sample; the
    // estimator runs on whatever reached the sink.
    if (!sent.ok()) continue;
    set.per_peer.push_back(std::move(matching));
  }
  return set;
}

}  // namespace

util::Result<ApproximateAnswer> EstimateDistinctTwoPhase(
    TwoPhaseEngine& engine, const query::AggregateQuery& query,
    graph::NodeId sink, util::Rng& rng) {
  P2PAQP_CHECK(query.op == query::AggregateOp::kDistinct);
  net::SimulatedNetwork* network = engine.network();
  net::CostSnapshot before = network->cost_snapshot();

  auto phase1 = CollectRawSamples(engine, query, sink,
                                  engine.params().phase1_peers, rng);
  if (!phase1.ok()) return phase1.status();

  // Cross-validate the Chao estimate across random halves of the peers.
  size_t m = phase1->per_peer.size();
  if (m < 4) {
    return util::Status::Unavailable("too few peers for distinct estimation");
  }
  std::vector<size_t> order(m);
  for (size_t i = 0; i < m; ++i) order[i] = i;
  size_t half = m / 2;
  double squared_sum = 0.0;
  double full_estimate = ChaoDistinctEstimate(phase1->Pooled());
  for (size_t r = 0; r < engine.params().cv_repeats; ++r) {
    rng.Shuffle(order);
    std::vector<data::Value> g1, g2;
    for (size_t i = 0; i < half; ++i) {
      const auto& chunk = phase1->per_peer[order[i]];
      g1.insert(g1.end(), chunk.begin(), chunk.end());
    }
    for (size_t i = half; i < 2 * half; ++i) {
      const auto& chunk = phase1->per_peer[order[i]];
      g2.insert(g2.end(), chunk.begin(), chunk.end());
    }
    double gap = ChaoDistinctEstimate(g1) - ChaoDistinctEstimate(g2);
    squared_sum += gap * gap;
  }
  double cv_error =
      std::sqrt(squared_sum / static_cast<double>(engine.params().cv_repeats));
  double cv_rel = full_estimate == 0.0 ? 0.0 : cv_error / full_estimate;

  size_t phase2_peers = PhaseTwoSampleSize(
      m, cv_rel, query.required_error, kMinPhase2Peers,
      MaxPhase2Peers(engine.params(), network->num_peers()));

  auto phase2 = CollectRawSamples(engine, query, sink, phase2_peers, rng);
  if (!phase2.ok()) return phase2.status();

  std::vector<data::Value> pooled = phase2->Pooled();
  if (engine.params().include_phase1_observations || pooled.empty()) {
    std::vector<data::Value> p1 = phase1->Pooled();
    pooled.insert(pooled.end(), p1.begin(), p1.end());
  }

  ApproximateAnswer answer;
  answer.estimate = ChaoDistinctEstimate(pooled);
  answer.cv_error_relative = cv_rel;
  answer.phase1_peers = m;
  answer.phase2_peers = phase2->per_peer.size();
  answer.cost = net::CostDelta(network->cost_snapshot(), before);
  answer.sample_tuples = answer.cost.tuples_sampled;
  return answer;
}

}  // namespace p2paqp::core
