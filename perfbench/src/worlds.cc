#include "worlds.h"

#include <chrono>
#include <limits>
#include <utility>

#include "data/generator.h"
#include "data/partitioner.h"
#include "io/graph_io.h"
#include "topology/gnutella.h"
#include "topology/power_law.h"
#include "topology/super_peer.h"
#include "util/logging.h"

namespace p2paqp::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// bench::WorldConfig's default seed.
constexpr uint64_t kWorldSeed = 20060403;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

bench::World BuildWorld(const WorldSpec& spec, StageTimes* times) {
  util::Rng rng(kWorldSeed);
  auto start = Clock::now();
  graph::Graph overlay;
  graph::NodeId bfs_root = graph::kInvalidNode;
  switch (spec.kind) {
    case TopologyKind::kPowerLaw: {
      auto made = topology::MakePowerLawWithEdgeCount(spec.peers, spec.edges,
                                                      rng);
      P2PAQP_CHECK(made.ok()) << made.status().ToString();
      overlay = std::move(*made);
      break;
    }
    case TopologyKind::kGnutella: {
      topology::GnutellaParams params;
      params.num_nodes = spec.peers;
      params.num_edges = spec.edges;
      auto made = topology::MakeGnutellaSnapshot(params, rng);
      P2PAQP_CHECK(made.ok()) << made.status().ToString();
      overlay = std::move(*made);
      break;
    }
    case TopologyKind::kSuperPeer: {
      // The scale tier's shape (bench/scale_world.cc): 2% ultrapeers, two
      // leaf links, data clustered breadth-first from super-peer 0.
      topology::SuperPeerParams params;
      params.num_nodes = spec.peers;
      params.super_fraction = 0.02;
      params.core_edges_per_super = 4;
      params.leaf_connections = 2;
      auto made = topology::MakeSuperPeer(params, rng);
      P2PAQP_CHECK(made.ok()) << made.status().ToString();
      overlay = std::move(made->graph);
      bfs_root = 0;
      break;
    }
  }
  times->topology_s += SecondsSince(start);

  start = Clock::now();
  data::DatasetParams dataset;
  dataset.num_tuples = spec.peers * spec.tuples_per_peer;
  dataset.skew = kZipfSkew;
  auto table = data::GenerateDataset(dataset, rng);
  P2PAQP_CHECK(table.ok()) << table.status().ToString();
  times->generate_s += SecondsSince(start);

  start = Clock::now();
  data::PartitionParams partition;
  partition.cluster_level = kClusterLevel;
  partition.bfs_root = bfs_root;
  auto databases = data::PartitionAcrossPeers(*table, overlay, partition, rng);
  P2PAQP_CHECK(databases.ok()) << databases.status().ToString();
  times->partition_s += SecondsSince(start);

  start = Clock::now();
  net::NetworkParams params;
  params.parallel_peer_init = spec.kind == TopologyKind::kSuperPeer;
  core::SystemCatalog catalog = core::MakeCatalog(overlay, 10, 50);
  auto network = net::SimulatedNetwork::Make(
      std::move(overlay), std::move(*databases), params, kWorldSeed + 1);
  P2PAQP_CHECK(network.ok()) << network.status().ToString();
  times->make_s += SecondsSince(start);

  start = Clock::now();
  (void)io::PrefaultGraph(network->graph());
  times->prefault_s += SecondsSince(start);

  bench::World world{std::move(*network), catalog, kZipfSkew, 0, 0};
  world.total_tuples = world.network.TotalTuples();
  world.total_sum =
      world.network.ExactSum(std::numeric_limits<data::Value>::min(),
                             std::numeric_limits<data::Value>::max());
  return world;
}

}  // namespace p2paqp::perfbench
