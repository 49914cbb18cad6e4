#include "core/biased.h"

#include <cmath>

namespace p2paqp::core {

BiasedWalkSampler::BiasedWalkSampler(net::SimulatedNetwork* network,
                                     const query::RangePredicate& predicate,
                                     size_t jump, double floor)
    : network_(network), jump_(std::max<size_t>(1, jump)) {
  P2PAQP_CHECK(network_ != nullptr);
  P2PAQP_CHECK_GT(floor, 0.0);
  synopsis_.resize(network_->num_peers(), floor);
  for (graph::NodeId p = 0; p < network_->num_peers(); ++p) {
    const data::LocalDatabase& db = network_->peer(p).database();
    if (db.empty()) continue;
    double matches =
        static_cast<double>(db.Count(predicate.lo, predicate.hi));
    synopsis_[p] = floor + matches / static_cast<double>(db.size());
  }
}

double BiasedWalkSampler::StationaryWeight(graph::NodeId node) const {
  double neighbor_sum = 0.0;
  for (graph::NodeId v : network_->graph().neighbors(node)) {
    if (network_->IsAlive(v)) neighbor_sum += synopsis_[v];
  }
  return synopsis_[node] * neighbor_sum;
}

double BiasedWalkSampler::ExactTotalWeight() const {
  double total = 0.0;
  for (graph::NodeId p = 0; p < network_->num_peers(); ++p) {
    if (network_->IsAlive(p)) total += StationaryWeight(p);
  }
  return total;
}

util::Result<std::vector<sampling::PeerVisit>> BiasedWalkSampler::SamplePeers(
    graph::NodeId sink, size_t count, util::Rng& rng) {
  if (sink >= network_->num_peers() || !network_->IsAlive(sink)) {
    return util::Status::FailedPrecondition("sink peer is not live");
  }
  std::vector<sampling::PeerVisit> visits;
  visits.reserve(count);
  graph::NodeId current = sink;
  size_t since_selection = 0;
  size_t hops = 0;
  const size_t max_hops = 200 * count * jump_ + 2000;
  std::vector<double> weights;
  std::vector<graph::NodeId> neighbors;
  while (visits.size() < count) {
    if (++hops > max_hops) {
      return util::Status::OutOfRange("biased walk exceeded hop budget");
    }
    network_->AliveNeighborsInto(current, &neighbors);
    if (neighbors.empty()) {
      if (current == sink) {
        return util::Status::Unavailable("sink is isolated");
      }
      current = sink;  // Stranded: the sink re-issues the walker.
      continue;
    }
    weights.clear();
    for (graph::NodeId v : neighbors) weights.push_back(synopsis_[v]);
    graph::NodeId next = neighbors[rng.WeightedIndex(weights)];
    util::Status sent =
        network_->SendAlongEdge(net::MessageType::kWalker, current, next);
    if (!sent.ok()) {
      // Lossy transport: a live holder retries (the loop re-picks a live
      // neighbor); a crashed holder's token is re-issued by the sink. Both
      // stay bounded by the hop budget above.
      if (!network_->IsAlive(sink)) return sent;
      if (!network_->IsAlive(current)) current = sink;
      continue;
    }
    current = next;
    if (++since_selection >= jump_) {
      since_selection = 0;
      visits.push_back(
          sampling::PeerVisit{current, network_->AliveDegree(current)});
    }
  }
  return visits;
}

double SelfNormalizedEstimate(const std::vector<PeerObservation>& observations,
                              size_t num_peers, query::AggregateOp op) {
  double value_sum = 0.0;
  double weight_sum = 0.0;
  for (const PeerObservation& obs : observations) {
    if (obs.stationary_weight <= 0.0) continue;
    value_sum += obs.aggregate.ValueFor(op) / obs.stationary_weight;
    weight_sum += 1.0 / obs.stationary_weight;
  }
  if (weight_sum == 0.0) return 0.0;
  return static_cast<double>(num_peers) * value_sum / weight_sum;
}

util::Result<BiasedAnswer> EstimateBiased(net::SimulatedNetwork* network,
                                          const SystemCatalog& catalog,
                                          const query::AggregateQuery& query,
                                          graph::NodeId sink, size_t num_peers,
                                          uint64_t tuples_per_peer,
                                          double floor, util::Rng& rng) {
  net::CostSnapshot before = network->cost_snapshot();
  BiasedWalkSampler sampler(network, query.predicate, catalog.suggested_jump,
                            floor);
  auto visits = sampler.SamplePeers(sink, num_peers, rng);
  if (!visits.ok()) return visits.status();
  std::vector<PeerObservation> observations;
  observations.reserve(visits->size());
  for (const sampling::PeerVisit& visit : *visits) {
    PeerObservation obs;
    obs.peer = visit.peer;
    obs.degree = visit.degree;
    obs.stationary_weight = sampler.StationaryWeight(visit.peer);
    obs.aggregate = query::ExecuteLocal(network->peer(visit.peer).database(),
                                        query, tuples_per_peer, rng);
    network->RecordLocalExecution(visit.peer, obs.aggregate.processed_tuples,
                                  obs.aggregate.processed_tuples);
    util::Status sent = network->SendDirect(net::MessageType::kAggregateReply,
                                            visit.peer, sink);
    // The self-normalized estimator tolerates lost replies: skip them.
    if (!sent.ok()) continue;
    observations.push_back(obs);
  }
  BiasedAnswer answer;
  answer.estimate =
      SelfNormalizedEstimate(observations, catalog.num_peers, query.op);
  answer.peers_visited = observations.size();
  answer.cost = net::CostDelta(network->cost_snapshot(), before);
  return answer;
}

}  // namespace p2paqp::core
