// Scale-tier smoke test (ctest label: scale): a one-million-peer super-peer
// world must construct inside a hard per-peer memory budget and answer a
// COUNT end-to-end through the event-driven engine — bit-identically for
// any P2PAQP_THREADS.
//
// The budget is the tentpole contract of the compressed-CSR graph, the
// streaming GraphBuilder and the blocked PeerStore: roughly
//   ~sizeof(Peer) resident state + ~16 B of tuple storage (2 tuples)
//   + ~20 B of compressed adjacency per peer,
// with a ceiling of 192 B/peer leaving headroom without hiding regressions
// (the uncompressed vector-of-vectors layout alone blew past 300 B/peer).
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "core/async_engine.h"
#include "core/catalog.h"
#include "data/generator.h"
#include "data/partitioner.h"
#include "net/network.h"
#include "query/query.h"
#include "topology/super_peer.h"
#include "util/rng.h"

namespace p2paqp {
namespace {

constexpr size_t kPeers = 1000000;
constexpr size_t kTuplesPerPeer = 2;
constexpr size_t kBytesPerPeerCeiling = 192;
constexpr graph::NodeId kSink = 0;  // A super-peer: well-connected sink.

// RAII override of P2PAQP_THREADS; restores the previous value on exit.
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* value) {
    const char* old = std::getenv("P2PAQP_THREADS");
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv("P2PAQP_THREADS", value, 1);
  }
  ~ScopedThreads() {
    if (had_old_) {
      ::setenv("P2PAQP_THREADS", old_.c_str(), 1);
    } else {
      ::unsetenv("P2PAQP_THREADS");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

// Builds the 1M-peer world once; both tests below share it.
net::SimulatedNetwork BuildMillionPeerWorld() {
  topology::SuperPeerParams topo;
  topo.num_nodes = kPeers;
  topo.super_fraction = 0.02;
  topo.core_edges_per_super = 4;
  topo.leaf_connections = 2;
  util::Rng topo_rng(20060403);
  auto topology = topology::MakeSuperPeer(topo, topo_rng);
  EXPECT_TRUE(topology.ok());

  data::DatasetParams dataset;
  dataset.num_tuples = kPeers * kTuplesPerPeer;
  dataset.skew = 0.2;
  util::Rng data_rng(271828);
  auto table = data::GenerateDataset(dataset, data_rng);
  EXPECT_TRUE(table.ok());
  data::PartitionParams partition;
  partition.cluster_level = 0.25;
  partition.bfs_root = kSink;
  auto databases = data::PartitionAcrossPeers(*table, topology->graph,
                                              partition, data_rng);
  EXPECT_TRUE(databases.ok());

  net::NetworkParams params;
  params.parallel_peer_init = true;  // Thread-invariant block init.
  auto network = net::SimulatedNetwork::Make(
      std::move(topology->graph), std::move(*databases), params, 314159);
  EXPECT_TRUE(network.ok());
  return std::move(*network);
}

TEST(ScaleTest, MillionPeerWorldAnswersCountUnderMemoryBudget) {
  net::SimulatedNetwork network = BuildMillionPeerWorld();
  ASSERT_EQ(network.num_peers(), kPeers);

  // The gated metric: resident bytes per peer across graph + peer state +
  // tuple storage. This is the same accounting bench/scale_world.cc ships
  // to the bench gate.
  size_t bytes_per_peer = network.MemoryBytes() / kPeers;
  EXPECT_LE(bytes_per_peer, kBytesPerPeerCeiling)
      << "world resident size regressed: " << bytes_per_peer << " B/peer";

  // One COUNT over the full domain, end-to-end through the event core.
  core::SystemCatalog catalog =
      core::MakeCatalog(network.graph(), /*jump=*/4, /*burn_in=*/24);
  core::AsyncParams params;
  params.engine.phase1_peers = 48;
  params.engine.tuples_per_peer = kTuplesPerPeer;
  params.engine.cv_repeats = 4;
  params.walkers = 4;
  params.walk.jump = 4;
  params.walk.burn_in = 24;
  core::AsyncQuerySession session(&network, catalog, params);

  query::AggregateQuery query;
  query.op = query::AggregateOp::kCount;
  query.predicate = query::RangePredicate{1, 100};
  query.required_error = 0.5;
  util::Rng rng(999331);
  auto report = session.Execute(query, kSink, rng);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->events, 0u);
  EXPECT_GT(report->makespan_ms, 0.0);

  // Sanity band, not an accuracy claim: the full-domain COUNT truth is the
  // total tuple population; a handful of stationary samples on the
  // super-peer topology must land within a generous multiplicative band.
  double truth = static_cast<double>(network.TotalTuples());
  EXPECT_EQ(truth, static_cast<double>(kPeers * kTuplesPerPeer));
  EXPECT_GT(report->answer.estimate, truth / 10.0);
  EXPECT_LT(report->answer.estimate, truth * 10.0);
}

TEST(ScaleTest, MillionPeerCountIsBitIdenticalAcrossThreadCounts) {
  net::SimulatedNetwork network = BuildMillionPeerWorld();
  core::SystemCatalog catalog =
      core::MakeCatalog(network.graph(), /*jump=*/4, /*burn_in=*/24);

  query::AggregateQuery query;
  query.op = query::AggregateOp::kCount;
  query.predicate = query::RangePredicate{1, 60};
  query.required_error = 0.5;

  auto run = [&](net::SimulatedNetwork& world) {
    core::AsyncParams params;
    params.engine.phase1_peers = 32;
    params.engine.tuples_per_peer = kTuplesPerPeer;
    params.engine.cv_repeats = 4;
    params.walkers = 4;
    params.walk.jump = 4;
    params.walk.burn_in = 24;
    core::AsyncQuerySession session(&world, catalog, params);
    util::Rng rng(424243);
    auto report = session.Execute(query, kSink, rng);
    EXPECT_TRUE(report.ok());
    return std::move(*report);
  };

  core::AsyncQueryReport serial_report;
  core::AsyncQueryReport four_thread_report;
  {
    ScopedThreads one("1");
    net::SimulatedNetwork world = network.Clone(777);
    serial_report = run(world);
  }
  {
    ScopedThreads four("4");
    net::SimulatedNetwork world = network.Clone(777);
    four_thread_report = run(world);
  }
  // Four-thread block-parallel peer state and oracles must not perturb a
  // single bit of the execution: identical estimate, clock and event count.
  EXPECT_EQ(serial_report.answer.estimate, four_thread_report.answer.estimate);
  EXPECT_EQ(serial_report.answer.ci_half_width_95,
            four_thread_report.answer.ci_half_width_95);
  EXPECT_EQ(serial_report.makespan_ms, four_thread_report.makespan_ms);
  EXPECT_EQ(serial_report.events, four_thread_report.events);
}

}  // namespace
}  // namespace p2paqp
