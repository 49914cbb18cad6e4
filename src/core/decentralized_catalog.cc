#include "core/decentralized_catalog.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "sampling/random_walk.h"
#include "util/statistics.h"

namespace p2paqp::core {

namespace {

// One unbounded-until-cap walk from `sink` back to `sink`; returns the hop
// count or 0 on cap exhaustion.
size_t OneReturnTime(net::SimulatedNetwork& network, graph::NodeId sink,
                     size_t max_hops, util::Rng& rng) {
  graph::NodeId current = sink;
  std::vector<graph::NodeId> neighbors;
  for (size_t hops = 1; hops <= max_hops; ++hops) {
    network.AliveNeighborsInto(current, &neighbors);
    if (neighbors.empty()) {
      if (current == sink) return 0;
      current = sink;  // Stranded: re-issue; the attempt keeps its count.
      continue;
    }
    graph::NodeId next = neighbors[rng.UniformIndex(neighbors.size())];
    if (!network.SendAlongEdge(net::MessageType::kWalker, current, next)
             .ok()) {
      return 0;
    }
    current = next;
    if (current == sink) return hops;
  }
  return 0;
}

}  // namespace

util::Result<double> EstimateEdgesViaReturnTimes(
    net::SimulatedNetwork& network, graph::NodeId sink,
    const DecentralizedConfig& config, util::Rng& rng) {
  if (sink >= network.num_peers() || !network.IsAlive(sink)) {
    return util::Status::FailedPrecondition("sink peer is not live");
  }
  uint32_t sink_degree = network.AliveDegree(sink);
  if (sink_degree == 0) {
    return util::Status::Unavailable("sink is isolated");
  }
  size_t cap = config.max_hops_per_walk;
  if (cap == 0) {
    // Generously above the expected 2|E|/deg(sink); even without knowing
    // |E|, M * avg_deg / deg(sink) is bounded by M * max_deg — use a large
    // multiple of the network size as a heuristic ceiling.
    cap = 200 * std::max<size_t>(network.num_peers(), 1000);
  }
  // Heavy right tail: use median-of-means over small batches.
  std::vector<double> batch_means;
  util::RunningStat batch;
  size_t completed = 0;
  for (size_t walk = 0; walk < config.return_walks; ++walk) {
    size_t hops = OneReturnTime(network, sink, cap, rng);
    if (hops == 0) continue;
    ++completed;
    batch.Add(static_cast<double>(hops));
    if (batch.count() == 4) {
      batch_means.push_back(batch.mean());
      batch = util::RunningStat();
    }
  }
  if (batch.count() > 0) batch_means.push_back(batch.mean());
  if (completed < std::max<size_t>(4, config.return_walks / 4)) {
    return util::Status::Unavailable("too many return walks hit the cap");
  }
  double typical_return = util::Median(batch_means);
  return static_cast<double>(sink_degree) * typical_return / 2.0;
}

util::Result<double> EstimatePeersViaCollisions(
    net::SimulatedNetwork& network, graph::NodeId sink,
    const DecentralizedConfig& config, util::Rng& rng,
    size_t* collisions_out) {
  if (config.birthday_samples < 2) {
    return util::Status::InvalidArgument("need at least two samples");
  }
  sampling::RandomWalk walk(
      &network,
      sampling::WalkParams{
          .jump = std::max<size_t>(1, config.birthday_jump),
          .burn_in = 2 * config.birthday_jump,
          .variant = sampling::WalkVariant::kMetropolisHastings});
  auto visits = walk.Collect(sink, config.birthday_samples, rng);
  if (!visits.ok()) return visits.status();
  std::unordered_map<graph::NodeId, size_t> seen;
  for (const sampling::PeerVisit& visit : *visits) ++seen[visit.peer];
  // Pairwise collisions: sum over peers of C(count, 2).
  uint64_t collisions = 0;
  for (const auto& [peer, count] : seen) {
    collisions += count * (count - 1) / 2;
  }
  if (collisions_out != nullptr) {
    *collisions_out = static_cast<size_t>(collisions);
  }
  if (collisions == 0) {
    return util::Status::Unavailable(
        "no collisions observed; raise birthday_samples");
  }
  auto k = static_cast<double>(config.birthday_samples);
  return k * (k - 1.0) / (2.0 * static_cast<double>(collisions));
}

util::Result<DecentralizedEstimates> DecentralizedPreprocess(
    net::SimulatedNetwork& network, graph::NodeId sink,
    const DecentralizedConfig& config, util::Rng& rng) {
  net::CostSnapshot before = network.cost_snapshot();
  auto edges = EstimateEdgesViaReturnTimes(network, sink, config, rng);
  if (!edges.ok()) return edges.status();
  size_t collisions = 0;
  auto peers =
      EstimatePeersViaCollisions(network, sink, config, rng, &collisions);
  if (!peers.ok()) return peers.status();

  DecentralizedEstimates estimates;
  estimates.collisions = collisions;
  estimates.catalog.num_peers =
      static_cast<size_t>(std::llround(std::max(1.0, *peers)));
  estimates.catalog.num_edges =
      static_cast<size_t>(std::llround(std::max(1.0, *edges)));
  estimates.catalog.average_degree =
      2.0 * *edges / std::max(1.0, *peers);
  estimates.catalog.suggested_jump = config.suggested_jump;
  estimates.catalog.suggested_burn_in = config.suggested_burn_in;
  estimates.mean_return_time =
      2.0 * *edges / std::max<double>(1.0, network.AliveDegree(sink));
  estimates.cost = net::CostDelta(network.cost_snapshot(), before);
  return estimates;
}

}  // namespace p2paqp::core
