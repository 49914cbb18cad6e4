#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/async_engine.h"
#include "core/catalog.h"
#include "graph/builder.h"
#include "io/world_io.h"
#include "net/churn.h"
#include "net/history.h"
#include "net/network.h"
#include "net/protocol.h"
#include "sampling/random_walk.h"
#include "topology/factory.h"
#include "verify/protocol/history_checker.h"

namespace p2paqp::net {
namespace {

graph::Graph MakePath(size_t n) {
  graph::GraphBuilder builder(n);
  for (graph::NodeId v = 0; v + 1 < n; ++v) builder.AddEdge(v, v + 1);
  return builder.Build();
}

SimulatedNetwork MakePathNetwork(size_t n, uint64_t seed = 1) {
  auto network = SimulatedNetwork::Make(MakePath(n), {}, NetworkParams{}, seed);
  EXPECT_TRUE(network.ok());
  return std::move(*network);
}

TEST(NetworkTest, RejectsEmptyOverlay) {
  EXPECT_FALSE(SimulatedNetwork::Make(graph::Graph{}, {}, NetworkParams{}, 1)
                   .ok());
}

TEST(NetworkTest, RejectsMismatchedDatabases) {
  std::vector<data::LocalDatabase> dbs(3);
  EXPECT_FALSE(
      SimulatedNetwork::Make(MakePath(5), std::move(dbs), NetworkParams{}, 1)
          .ok());
}

TEST(NetworkTest, RejectsBadLatencyParams) {
  NetworkParams params;
  params.hop_latency_ms = -1.0;
  EXPECT_FALSE(SimulatedNetwork::Make(MakePath(3), {}, params, 1).ok());
}

TEST(NetworkTest, PeersHaveDistinctAddresses) {
  SimulatedNetwork network = MakePathNetwork(10);
  EXPECT_NE(network.peer(0).address(), network.peer(1).address());
  EXPECT_EQ(network.peer(3).id(), 3u);
}

TEST(NetworkTest, AliveBookkeeping) {
  SimulatedNetwork network = MakePathNetwork(5);
  EXPECT_EQ(network.num_alive(), 5u);
  network.SetAlive(2, false);
  EXPECT_EQ(network.num_alive(), 4u);
  EXPECT_FALSE(network.IsAlive(2));
  network.SetAlive(2, false);  // Idempotent.
  EXPECT_EQ(network.num_alive(), 4u);
  network.SetAlive(2, true);
  EXPECT_EQ(network.num_alive(), 5u);
}

TEST(NetworkTest, AliveNeighborsSkipDeparted) {
  SimulatedNetwork network = MakePathNetwork(5);
  network.SetAlive(1, false);
  auto nbrs = network.AliveNeighbors(2);
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_EQ(nbrs[0], 3u);
  EXPECT_EQ(network.AliveDegree(2), 1u);
  EXPECT_EQ(network.AliveDegree(0), 0u);
}

TEST(MessageTest, BatchedPayloadSharesExactlyOneHeader) {
  // A K-wide batch carries K payload bodies behind ONE Gnutella header:
  // batched == K * per_query - (K - 1) * header.
  for (MessageType type : {MessageType::kWalker, MessageType::kAggregateReply,
                           MessageType::kQuery}) {
    uint32_t per_query = DefaultPayloadBytes(type);
    EXPECT_EQ(BatchedPayloadBytes(type, 0), per_query);
    EXPECT_EQ(BatchedPayloadBytes(type, 1), per_query);
    for (uint32_t k : {2u, 4u, 8u}) {
      EXPECT_EQ(BatchedPayloadBytes(type, k),
                k * per_query - (k - 1) * kGnutellaHeaderBytes)
          << "type=" << static_cast<int>(type) << " k=" << k;
    }
  }
}

TEST(CostTrackerTest, BatchedMessageCountsOnceOnTheWire) {
  CostTracker cost;
  uint32_t per_query = DefaultPayloadBytes(MessageType::kWalker);
  cost.RecordBatchedMessage(BatchedPayloadBytes(MessageType::kWalker, 8),
                            per_query, 8, kGnutellaHeaderBytes);
  EXPECT_EQ(cost.snapshot().messages, 1u);
  EXPECT_EQ(cost.snapshot().bytes_shipped,
            BatchedPayloadBytes(MessageType::kWalker, 8));
}

TEST(CostTrackerDeathTest, DoubleCountedHeaderAborts) {
  CostTracker cost;
  uint32_t per_query = DefaultPayloadBytes(MessageType::kWalker);
  // Naive K * per_query double-counts K-1 headers; the tracker refuses it.
  EXPECT_DEATH(cost.RecordBatchedMessage(uint64_t{8} * per_query, per_query,
                                         8, kGnutellaHeaderBytes),
               "one shared header");
}

TEST(NetworkTest, BatchedWalkerHopChargesSharedHeader) {
  SimulatedNetwork network = MakePathNetwork(5);
  CostSnapshot before = network.cost_snapshot();
  ASSERT_TRUE(network.SendAlongEdge(MessageType::kWalker, 0, 1, /*batch=*/4)
                  .ok());
  CostSnapshot delta = CostDelta(network.cost_snapshot(), before);
  EXPECT_EQ(delta.messages, 1u);  // One token on the wire, K queries served.
  EXPECT_EQ(delta.bytes_shipped, BatchedPayloadBytes(MessageType::kWalker, 4));
  EXPECT_EQ(delta.walker_hops, 1u);
}

TEST(NetworkTest, BatchedReplyMultipliesPerQueryRiders) {
  SimulatedNetwork network = MakePathNetwork(5);
  constexpr uint64_t kRider = 16;  // Per-query extra payload bytes.
  CostSnapshot before = network.cost_snapshot();
  ASSERT_TRUE(network
                  .SendDirect(MessageType::kAggregateReply, 2, 0, kRider,
                              /*batch=*/3)
                  .ok());
  CostSnapshot delta = CostDelta(network.cost_snapshot(), before);
  EXPECT_EQ(delta.messages, 1u);
  EXPECT_EQ(delta.bytes_shipped,
            BatchedPayloadBytes(MessageType::kAggregateReply, 3) + 3 * kRider);
}

TEST(NetworkTest, SendAlongEdgeValidation) {
  SimulatedNetwork network = MakePathNetwork(5);
  EXPECT_TRUE(network.SendAlongEdge(MessageType::kWalker, 0, 1).ok());
  EXPECT_FALSE(network.SendAlongEdge(MessageType::kWalker, 0, 2).ok());
  EXPECT_FALSE(network.SendAlongEdge(MessageType::kWalker, 0, 99).ok());
  network.SetAlive(1, false);
  auto status = network.SendAlongEdge(MessageType::kWalker, 0, 1);
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
}

TEST(NetworkTest, CostAccountingAccumulates) {
  SimulatedNetwork network = MakePathNetwork(5);
  network.SendAlongEdge(MessageType::kWalker, 0, 1).ok();
  network.SendAlongEdge(MessageType::kWalker, 1, 2).ok();
  network.SendDirect(MessageType::kAggregateReply, 2, 0).ok();
  network.RecordLocalExecution(2, 100, 25);
  const CostSnapshot& cost = network.cost_snapshot();
  EXPECT_EQ(cost.walker_hops, 2u);
  EXPECT_EQ(cost.messages, 3u);
  EXPECT_EQ(cost.peers_visited, 1u);
  EXPECT_EQ(cost.tuples_scanned, 100u);
  EXPECT_EQ(cost.tuples_sampled, 25u);
  EXPECT_GT(cost.bytes_shipped, 0u);
  EXPECT_GT(cost.latency_ms, 0.0);
  network.ResetCost();
  EXPECT_EQ(network.cost_snapshot().messages, 0u);
}

TEST(NetworkTest, CostDeltaSubtracts) {
  CostSnapshot before;
  before.messages = 5;
  before.latency_ms = 10.0;
  CostSnapshot after;
  after.messages = 9;
  after.latency_ms = 25.0;
  CostSnapshot delta = CostDelta(after, before);
  EXPECT_EQ(delta.messages, 4u);
  EXPECT_DOUBLE_EQ(delta.latency_ms, 15.0);
}

TEST(NetworkTest, ExactOracleAggregates) {
  std::vector<data::LocalDatabase> dbs;
  dbs.emplace_back(data::Table{{1}, {2}});
  dbs.emplace_back(data::Table{{3}});
  dbs.emplace_back(data::Table{{4}, {5}});
  auto network =
      SimulatedNetwork::Make(MakePath(3), std::move(dbs), NetworkParams{}, 2);
  ASSERT_TRUE(network.ok());
  EXPECT_EQ(network->TotalTuples(), 5);
  EXPECT_EQ(network->ExactCount(2, 4), 3);
  EXPECT_EQ(network->ExactSum(2, 4), 9);
  EXPECT_DOUBLE_EQ(network->ExactMedian(), 3.0);
  // Departed peers drop out of the oracle view.
  network->SetAlive(2, false);
  EXPECT_EQ(network->TotalTuples(), 3);
  EXPECT_EQ(network->ExactCount(2, 4), 2);
}

TEST(NetworkTest, InstallDatabasesReplacesData) {
  SimulatedNetwork network = MakePathNetwork(3);
  EXPECT_EQ(network.TotalTuples(), 0);
  std::vector<data::LocalDatabase> dbs(3);
  dbs[1] = data::LocalDatabase(data::Table{{10}, {20}});
  EXPECT_TRUE(network.InstallDatabases(std::move(dbs)).ok());
  EXPECT_EQ(network.TotalTuples(), 2);
  EXPECT_FALSE(network.InstallDatabases({}).ok());
}

TEST(MessageTest, TypeNamesAndSizes) {
  EXPECT_STREQ(MessageTypeToString(MessageType::kWalker), "WALKER");
  EXPECT_STREQ(MessageTypeToString(MessageType::kPong), "PONG");
  // Every type carries at least the Gnutella header.
  for (auto type : {MessageType::kPing, MessageType::kPong,
                    MessageType::kQuery, MessageType::kQueryHit,
                    MessageType::kWalker, MessageType::kAggregateReply,
                    MessageType::kSampleRequest, MessageType::kSampleReply}) {
    EXPECT_GE(DefaultPayloadBytes(type), 23u);
  }
}

TEST(ProtocolTest, PingReachesTtlNeighborhood) {
  SimulatedNetwork network = MakePathNetwork(10);
  GnutellaProtocol protocol(&network);
  FloodResult result = protocol.Ping(5, 2);
  // Path graph: within 2 hops of node 5 live nodes 3,4,6,7.
  EXPECT_EQ(result.reached.size(), 4u);
  EXPECT_EQ(result.max_depth, 2u);
}

TEST(ProtocolTest, FloodQueryChargesMessages) {
  SimulatedNetwork network = MakePathNetwork(10);
  GnutellaProtocol protocol(&network);
  uint64_t before = network.cost_snapshot().messages;
  protocol.FloodQuery(0, 3);
  EXPECT_GT(network.cost_snapshot().messages, before + 3);
}

TEST(ProtocolTest, FloodCollectGathersRequestedPeers) {
  SimulatedNetwork network = MakePathNetwork(20);
  GnutellaProtocol protocol(&network);
  auto reached = protocol.FloodCollect(10, 6);
  EXPECT_EQ(reached.size(), 6u);
  // Nearest-first: all within 3 hops of the origin.
  for (graph::NodeId peer : reached) {
    EXPECT_LE(std::abs(static_cast<int>(peer) - 10), 3);
  }
}

TEST(ProtocolTest, FloodRepliesRecordPerHopHistory) {
  SimulatedNetwork network = MakePathNetwork(8);
  HistoryRecorder history;
  network.set_history(&history);
  GnutellaProtocol protocol(&network);
  FloodResult result = protocol.FloodQuery(0, 3);
  network.set_history(nullptr);
  ASSERT_EQ(result.reached.size(), 3u);
  // Path graph from node 0: peer at depth d sends its QueryHit through d
  // reverse hops, every one a first-class history event in lockstep with
  // the ledger (3 requests + 1+2+3 reply hops).
  EXPECT_EQ(history.Count(HistoryEventKind::kSend),
            network.cost_snapshot().messages);
  EXPECT_EQ(history.Count(HistoryEventKind::kDeliver),
            network.cost_snapshot().messages_delivered);
  EXPECT_EQ(history.Count(HistoryEventKind::kSend), 9u);
  // Reverse hops carry real per-hop endpoints: node 2 forwards node 3's
  // hit, so a QueryHit send from an intermediate relay must appear.
  bool forwarded_hit = false;
  for (const HistoryEvent& e : history.events()) {
    if (e.kind == HistoryEventKind::kSend &&
        e.type == MessageType::kQueryHit && e.from == 2 && e.to == 1) {
      forwarded_hit = true;
    }
  }
  EXPECT_TRUE(forwarded_hit);
  auto violations = verify::CheckHistory(history.events());
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(ProtocolTest, FloodReplyDiesSilentlyAtCrashedRelay) {
  SimulatedNetwork network = MakePathNetwork(8);
  HistoryRecorder history;
  network.set_history(&history);
  GnutellaProtocol protocol(&network);
  // Crash relay 3 when the injector sees the fifth request hop (4 -> 5):
  // by then 3 already answered, but every deeper reply must route through
  // its corpse.
  FaultPlan plan;
  plan.scheduled_crashes = {ScheduledCrash{/*at_message=*/4, /*peer=*/3}};
  network.InstallFaultPlan(plan, 99);
  FloodResult result = protocol.FloodQuery(0, 7);
  network.set_history(nullptr);
  // Peers behind the dead relay answered but their hits never reached the
  // origin, so they are not reported reached.
  EXPECT_EQ(result.reached, (std::vector<graph::NodeId>{1, 2, 3, 4}));
  // No send may involve the dead peer after its crash, and the ledger must
  // still conserve: the lost replies were never charged.
  auto violations = verify::CheckHistory(history.events());
  EXPECT_TRUE(violations.empty()) << violations.front();
  const CostSnapshot& cost = network.cost_snapshot();
  EXPECT_EQ(cost.messages, cost.messages_delivered + cost.messages_dropped);
  EXPECT_EQ(history.Count(HistoryEventKind::kSend), cost.messages);
}

TEST(ProtocolTest, FloodSkipsDeadRegions) {
  SimulatedNetwork network = MakePathNetwork(10);
  network.SetAlive(3, false);
  GnutellaProtocol protocol(&network);
  FloodResult result = protocol.Ping(5, 5);
  for (graph::NodeId peer : result.reached) {
    EXPECT_GT(peer, 3u);  // Dead node 3 blocks everything to its left.
  }
}

TEST(ChurnTest, StepTogglesStates) {
  SimulatedNetwork network = MakePathNetwork(200, 3);
  ChurnParams params;
  params.leave_probability = 0.5;
  params.rejoin_probability = 0.0;
  params.pinned = {0};
  ChurnModel churn(params, 7);
  size_t changes = churn.Step(network);
  EXPECT_GT(changes, 50u);
  EXPECT_TRUE(network.IsAlive(0));  // Pinned sink survives.
  EXPECT_LT(network.num_alive(), 200u);
}

TEST(ChurnTest, RejoinRecovers) {
  SimulatedNetwork network = MakePathNetwork(100, 4);
  for (graph::NodeId v = 0; v < 100; ++v) network.SetAlive(v, false);
  ChurnParams params;
  params.leave_probability = 0.0;
  params.rejoin_probability = 1.0;
  ChurnModel churn(params, 9);
  churn.Step(network);
  EXPECT_EQ(network.num_alive(), 100u);
}

TEST(ChurnTest, NumAliveMatchesManualCount) {
  SimulatedNetwork network = MakePathNetwork(150, 5);
  ChurnParams params;
  params.leave_probability = 0.3;
  params.rejoin_probability = 0.3;
  params.pinned = {0, 75};
  ChurnModel churn(params, 11);
  for (int epoch = 0; epoch < 10; ++epoch) {
    churn.Step(network);
    size_t manual = 0;
    for (graph::NodeId v = 0; v < 150; ++v) {
      if (network.IsAlive(v)) ++manual;
    }
    ASSERT_EQ(network.num_alive(), manual) << "epoch " << epoch;
    EXPECT_TRUE(network.IsAlive(0));
    EXPECT_TRUE(network.IsAlive(75));
  }
}

TEST(ChurnTest, RunOnEventQueueTicksWhileWorkIsPending) {
  SimulatedNetwork network = MakePathNetwork(100, 6);
  ChurnParams params;
  params.leave_probability = 0.1;
  params.rejoin_probability = 0.0;
  params.pinned = {0};
  ChurnModel churn(params, 13);
  EventQueue events;
  // Simulated "query": pending work for 100ms of virtual time.
  double deadline_ms = 100.0;
  bool work_done = false;
  events.ScheduleAfter(deadline_ms, [&work_done]() { work_done = true; });
  int epochs_seen = 0;
  churn.RunOnEventQueue(events, &network, /*interval_ms=*/10.0,
                        [&work_done, &epochs_seen]() {
                          if (work_done) return false;
                          ++epochs_seen;
                          return true;
                        });
  events.RunUntilEmpty();
  // One tick every 10ms until the 100ms deadline, then the chain stops and
  // the queue drains (RunUntilEmpty returned, proving termination).
  EXPECT_GE(epochs_seen, 9);
  EXPECT_LE(epochs_seen, 11);
  EXPECT_TRUE(work_done);
  EXPECT_LT(network.num_alive(), 100u);
  EXPECT_TRUE(network.IsAlive(0));
}

// Ids that are down, by brute-force scan, ascending.
std::vector<graph::NodeId> ScanDeparted(const SimulatedNetwork& network) {
  std::vector<graph::NodeId> down;
  for (graph::NodeId v = 0; v < network.num_peers(); ++v) {
    if (!network.IsAlive(v)) down.push_back(v);
  }
  return down;
}

std::vector<graph::NodeId> SortedDeparted(const SimulatedNetwork& network) {
  std::vector<graph::NodeId> down = network.departed();
  std::sort(down.begin(), down.end());
  return down;
}

bool Contains(const std::vector<graph::NodeId>& ids, graph::NodeId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

TEST(ChurnTest, CertainLeaveAndRejoinComplementTheUnpinnedSet) {
  SimulatedNetwork network = MakePathNetwork(300, 8);
  util::Rng rng(3);
  for (graph::NodeId v = 0; v < 300; ++v) {
    if (rng.Bernoulli(0.3)) network.SetAlive(v, false);
  }
  network.SetAlive(10, false);  // A pinned peer that is down...
  network.SetAlive(20, true);   // ...and one that is up.
  ChurnParams params;
  params.leave_probability = 1.0;
  params.rejoin_probability = 1.0;
  params.pinned = {10, 20};
  ChurnModel churn(params, 17);
  std::vector<bool> before(300);
  for (graph::NodeId v = 0; v < 300; ++v) before[v] = network.IsAlive(v);
  const size_t changes = churn.Step(network);
  EXPECT_EQ(changes, 298u);
  for (graph::NodeId v = 0; v < 300; ++v) {
    const bool pinned = v == 10 || v == 20;
    EXPECT_EQ(network.IsAlive(v), pinned ? before[v] : !before[v])
        << "peer " << v;
  }
  EXPECT_EQ(SortedDeparted(network), ScanDeparted(network));
  // The next epoch complements again: back where it started.
  churn.Step(network);
  for (graph::NodeId v = 0; v < 300; ++v) {
    EXPECT_EQ(network.IsAlive(v), before[v]) << "peer " << v;
  }
}

TEST(ChurnTest, PinnedPeersNeverFlip) {
  SimulatedNetwork network = MakePathNetwork(400, 9);
  network.SetAlive(7, false);
  ChurnParams params;
  params.leave_probability = 0.5;
  params.rejoin_probability = 0.5;
  params.pinned = {0, 7, 399};
  ChurnModel churn(params, 19);
  for (int epoch = 0; epoch < 40; ++epoch) {
    churn.Step(network);
    ASSERT_TRUE(network.IsAlive(0)) << "epoch " << epoch;
    ASSERT_FALSE(network.IsAlive(7)) << "epoch " << epoch;
    ASSERT_TRUE(network.IsAlive(399)) << "epoch " << epoch;
  }
  EXPECT_GT(churn.counters().departures, 0u);
  EXPECT_GT(churn.counters().rejoins, 0u);
}

// Each epoch's counters against a brute-force reading of the world before
// and after it: every departure was a live unpinned leave candidate, every
// rejoin draw an unpinned peer down at the epoch's start, and no peer
// flipped twice.
TEST(ChurnTest, EpochCountersMatchABruteForceScan) {
  SimulatedNetwork network = MakePathNetwork(500, 10);
  ChurnParams params;
  params.leave_probability = 0.2;
  params.rejoin_probability = 0.4;
  params.pinned = {0, 250};
  ChurnModel churn(params, 23);
  for (int epoch = 0; epoch < 20; ++epoch) {
    const std::vector<graph::NodeId> down_before = ScanDeparted(network);
    size_t unpinned_down = 0;
    for (graph::NodeId v : down_before) {
      if (v != 0 && v != 250) ++unpinned_down;
    }
    const ChurnCounters before = churn.counters();
    const size_t changes = churn.Step(network);
    const ChurnCounters& after = churn.counters();
    const std::vector<graph::NodeId> down_after = ScanDeparted(network);
    size_t left = 0;
    size_t returned = 0;
    for (graph::NodeId v = 0; v < 500; ++v) {
      const bool was_down = Contains(down_before, v);
      const bool is_down = Contains(down_after, v);
      left += !was_down && is_down;
      returned += was_down && !is_down;
    }
    ASSERT_EQ(after.epochs, before.epochs + 1);
    ASSERT_EQ(after.departures - before.departures, left) << epoch;
    ASSERT_EQ(after.rejoins - before.rejoins, returned) << epoch;
    ASSERT_EQ(after.rejoin_draws - before.rejoin_draws, unpinned_down)
        << epoch;
    ASSERT_GE(after.leave_candidates - before.leave_candidates, left);
    ASSERT_EQ(changes, left + returned) << epoch;
    ASSERT_EQ(SortedDeparted(network), down_after) << epoch;
    ASSERT_EQ(network.num_alive(), 500 - down_after.size()) << epoch;
  }
}

// A vanishing leave probability over a large id range must end the scan at
// once: the geometric skip saturates at the range instead of overflowing.
TEST(ChurnTest, TinyLeaveProbabilityTerminatesWithoutOverflow) {
  constexpr size_t kPeers = size_t{1} << 20;
  auto network = SimulatedNetwork::Make(graph::GraphBuilder(kPeers).Build(),
                                        {}, NetworkParams{}, 12);
  ASSERT_TRUE(network.ok());
  for (double p : {1e-12, 1e-300, std::numeric_limits<double>::denorm_min()}) {
    ChurnParams params;
    params.leave_probability = p;
    params.rejoin_probability = 0.0;
    ChurnModel churn(params, 29);
    for (int epoch = 0; epoch < 100; ++epoch) {
      EXPECT_EQ(churn.Step(*network), 0u) << "p " << p;
    }
    EXPECT_EQ(churn.counters().epochs, 100u);
    EXPECT_EQ(churn.counters().leave_candidates, 0u) << "p " << p;
  }
  EXPECT_EQ(network->num_alive(), kPeers);
  EXPECT_TRUE(network->departed().empty());
}

TEST(ChurnTest, ZeroProbabilitiesDrawNothing) {
  SimulatedNetwork network = MakePathNetwork(100, 13);
  network.SetAlive(5, false);
  ChurnParams params;
  params.leave_probability = 0.0;
  params.rejoin_probability = 0.0;
  ChurnModel churn(params, 31);
  EXPECT_EQ(churn.Step(network), 0u);
  EXPECT_EQ(churn.counters().leave_candidates, 0u);
  EXPECT_EQ(churn.counters().rejoin_draws, 0u);
  EXPECT_EQ(network.departed(), std::vector<graph::NodeId>{5});
}

// --- Forwarding view -----------------------------------------------------
// Both walkers draw their next hop from SimulatedNetwork::ForwardingSet,
// which reads the holder's CSR list in place whenever no adversary is
// installed, filtering out dead neighbours through the per-peer
// dead-neighbour counts that SetAlive keeps. These tests pin it to the
// materialised set it replaced (AliveNeighborsInto, then the adversary's
// RestrictForwarding) on worlds with hub-sized degrees, and pin its inputs
// — num_alive(), departed() and every dead-neighbour count — to brute-force
// scans across every path that changes liveness.

SimulatedNetwork MakeWorld(topology::TopologyKind kind, uint64_t seed) {
  topology::TopologyConfig config;
  config.kind = kind;
  config.num_nodes = 1500;
  config.num_edges = 3300;
  util::Rng rng(seed);
  auto topo = topology::MakeTopology(config, rng);
  EXPECT_TRUE(topo.ok()) << topo.status().ToString();
  auto network = SimulatedNetwork::Make(std::move(topo->graph), {},
                                        NetworkParams{}, seed);
  EXPECT_TRUE(network.ok());
  return std::move(*network);
}

size_t CountAlive(const SimulatedNetwork& network) {
  size_t alive = 0;
  for (graph::NodeId v = 0; v < network.num_peers(); ++v) {
    if (network.IsAlive(v)) ++alive;
  }
  return alive;
}

// Every peer's dead-neighbour count against a scan of its neighbours.
void ExpectDeadCountsMatch(const SimulatedNetwork& network) {
  for (graph::NodeId h = 0; h < network.num_peers(); ++h) {
    uint32_t dead = 0;
    for (graph::NodeId v : network.graph().neighbors(h)) {
      if (!network.IsAlive(v)) ++dead;
    }
    ASSERT_EQ(network.peer(h).dead_neighbors(), dead) << "peer " << h;
  }
}

// Every holder's view against the materialised forwarding set, element by
// element, by index and by iteration; and AliveDegree against the alive
// neighbour count. Without an adversary the view must read the CSR list
// in place, leaving the caller's scratch untouched, whether or not any
// peer is down.
void ExpectViewMatches(SimulatedNetwork& network, const std::string& state) {
  SCOPED_TRACE(state);
  ASSERT_EQ(network.num_alive(), CountAlive(network));
  ASSERT_EQ(SortedDeparted(network), ScanDeparted(network));
  ExpectDeadCountsMatch(network);
  const bool csr_path = network.adversary() == nullptr;
  std::vector<graph::NodeId> scratch;
  std::vector<graph::NodeId> expected;
  for (graph::NodeId h = 0; h < network.num_peers(); ++h) {
    scratch.assign(1, graph::kInvalidNode);
    ForwardingView view = network.ForwardingSet(h, &scratch);
    network.AliveNeighborsInto(h, &expected);
    if (AdversaryInjector* adversary = network.adversary()) {
      adversary->RestrictForwarding(h, &expected);
    }
    ASSERT_EQ(view.size(), expected.size()) << "holder " << h;
    ASSERT_EQ(view.empty(), expected.empty()) << "holder " << h;
    for (size_t k = 0; k < expected.size(); ++k) {
      ASSERT_EQ(view[k], expected[k]) << "holder " << h << " slot " << k;
    }
    EXPECT_EQ(std::vector<graph::NodeId>(view.begin(), view.end()), expected)
        << "holder " << h;
    if (csr_path) {
      EXPECT_EQ(scratch, std::vector<graph::NodeId>{graph::kInvalidNode})
          << "holder " << h << ": an adversary-free view touched the scratch";
    }
    EXPECT_EQ(network.AliveDegree(h), network.AliveNeighbors(h).size())
        << "holder " << h;
  }
}

class ForwardingViewTest
    : public ::testing::TestWithParam<topology::TopologyKind> {};

TEST_P(ForwardingViewTest, MatchesAliveNeighborsThroughDeathAndRejoin) {
  SimulatedNetwork network = MakeWorld(GetParam(), 21);
  ASSERT_GT(network.graph().max_degree(), 40u);  // Hub-sized holders.
  ExpectViewMatches(network, "all alive");
  util::Rng rng(5);
  for (graph::NodeId v = 0; v < network.num_peers(); ++v) {
    if (rng.Bernoulli(0.2)) network.SetAlive(v, false);
  }
  ASSERT_LT(network.num_alive(), network.num_peers());
  ExpectViewMatches(network, "after random departures");
  for (graph::NodeId v = 0; v < network.num_peers(); ++v) {
    network.SetAlive(v, true);
  }
  ASSERT_EQ(network.num_alive(), network.num_peers());
  ExpectViewMatches(network, "after every peer rejoined");
}

TEST_P(ForwardingViewTest, MatchesHijackRestriction) {
  SimulatedNetwork network = MakeWorld(GetParam(), 22);
  AdversaryPlan plan;
  plan.adversary_fraction = 0.3;
  plan.hijack_walk = true;
  network.InstallAdversaryPlan(plan, 17);
  ASSERT_NE(network.adversary(), nullptr);
  ExpectViewMatches(network, "hijack, all alive");
  EXPECT_GT(network.adversary()->hops_hijacked(), 0u);
  util::Rng rng(6);
  for (graph::NodeId v = 0; v < network.num_peers(); ++v) {
    if (rng.Bernoulli(0.2)) network.SetAlive(v, false);
  }
  ExpectViewMatches(network, "hijack after random departures");
}

TEST_P(ForwardingViewTest, NumAliveMatchesBruteForceCount) {
  SimulatedNetwork network = MakeWorld(GetParam(), 23);
  ChurnParams churn_params;
  churn_params.leave_probability = 0.2;
  churn_params.rejoin_probability = 0.4;
  ChurnModel churn(churn_params, 31);
  for (int epoch = 0; epoch < 5; ++epoch) {
    churn.Step(network);
    ASSERT_EQ(network.num_alive(), CountAlive(network)) << "epoch " << epoch;
    ASSERT_EQ(SortedDeparted(network), ScanDeparted(network))
        << "epoch " << epoch;
    ExpectDeadCountsMatch(network);
  }

  FaultPlan faults;
  faults.crash_probability = 0.05;
  network.InstallFaultPlan(faults, 41);
  util::Rng rng(7);
  size_t crashes_seen = 0;
  std::vector<graph::NodeId> scratch;
  for (int send = 0; send < 2000; ++send) {
    auto from = static_cast<graph::NodeId>(
        rng.UniformIndex(network.num_peers()));
    if (!network.IsAlive(from)) continue;
    network.AliveNeighborsInto(from, &scratch);
    if (scratch.empty()) continue;
    graph::NodeId to = scratch[rng.UniformIndex(scratch.size())];
    const size_t before = network.num_alive();
    network.SendAlongEdge(MessageType::kWalker, from, to).ok();
    network.SendDirect(MessageType::kAggregateReply, to, from).ok();
    crashes_seen += before - network.num_alive();
    ASSERT_EQ(network.num_alive(), CountAlive(network)) << "send " << send;
    if (before != network.num_alive()) ExpectDeadCountsMatch(network);
  }
  EXPECT_GT(crashes_seen, 0u);
  ExpectViewMatches(network, "after crash-fault sends");

  SimulatedNetwork clone = network.Clone(99);
  EXPECT_EQ(clone.num_alive(), CountAlive(clone));
  EXPECT_EQ(clone.num_alive(), network.num_alive());
  EXPECT_EQ(SortedDeparted(clone), SortedDeparted(network));
  ExpectViewMatches(clone, "clone");
  // The clone's departed set is its own: churning it leaves the original's.
  const std::vector<graph::NodeId> original_down = SortedDeparted(network);
  churn.Step(clone);
  churn.Step(clone);
  ExpectViewMatches(clone, "churned clone");
  EXPECT_EQ(SortedDeparted(network), original_down);
  EXPECT_EQ(ScanDeparted(network), original_down);

  const std::string path =
      ::testing::TempDir() + "/net_test_forwarding_world.p2pw";
  ASSERT_TRUE(io::SaveWorld(path, network).ok());
  auto loaded = io::LoadWorld(path, NetworkParams{}, 3);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_LT(loaded->num_alive(), loaded->num_peers());
  EXPECT_EQ(loaded->num_alive(), CountAlive(*loaded));
  EXPECT_EQ(loaded->num_alive(), network.num_alive());
  ExpectViewMatches(*loaded, "loaded world with dead peers");
}

// A holder whose neighbours are all down gets an empty view (its scratch
// untouched), and both walkers then treat a token there as lost instead of
// sending it anywhere. Edges 0-1, 0-2, 2-3, 3-4 with 1, 2 and 4 down
// strand both the sink 0 and the holder 3.
TEST(StrandedHolderTest, EmptyViewLosesTheTokenInBothEngines) {
  graph::GraphBuilder builder(5);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(2, 3);
  builder.AddEdge(3, 4);
  std::vector<data::LocalDatabase> databases(5);
  auto made = SimulatedNetwork::Make(builder.Build(), std::move(databases),
                                     NetworkParams{}, 8);
  ASSERT_TRUE(made.ok());
  SimulatedNetwork& network = *made;
  for (graph::NodeId v : {1u, 2u, 4u}) network.SetAlive(v, false);
  ExpectViewMatches(network, "stranded holders");
  for (graph::NodeId holder : {0u, 3u}) {
    std::vector<graph::NodeId> scratch(1, graph::kInvalidNode);
    EXPECT_TRUE(network.ForwardingSet(holder, &scratch).empty());
    EXPECT_EQ(network.AliveDegree(holder), 0u);
    EXPECT_EQ(network.peer(holder).dead_neighbors(),
              network.graph().degree(holder));
  }

  // Synchronous walker: a token at either stranded holder is lost at its
  // first hop and, the sink being stranded too, cannot be re-issued; the
  // collection gives up with no message sent.
  sampling::RandomWalk walk(&network, sampling::WalkParams{.jump = 1});
  util::Rng rng(3);
  for (graph::NodeId holder : {0u, 3u}) {
    auto collected = walk.CollectResilient(holder, 4, rng);
    ASSERT_TRUE(collected.ok()) << collected.status().ToString();
    EXPECT_TRUE(collected->truncated);
    EXPECT_EQ(collected->truncation.code(), util::StatusCode::kUnavailable);
    EXPECT_TRUE(collected->visits.empty());
  }
  EXPECT_EQ(network.cost_snapshot().messages, 0u);

  // Event-driven walker: every token at the stranded sink is lost at its
  // first step and cannot be re-issued, so no walker message goes out and
  // no peer is observed.
  core::SystemCatalog catalog =
      core::MakeCatalog(network.graph(), /*jump=*/1, /*burn_in=*/0);
  core::AsyncParams params;
  params.walkers = 2;
  params.walk.jump = 1;
  params.walk.burn_in = 0;
  params.engine.phase1_peers = 4;
  core::AsyncQuerySession session(&network, catalog, params);
  query::AggregateQuery query;
  query.op = query::AggregateOp::kCount;
  query.predicate = query::RangePredicate{1, 40};
  auto report = session.Execute(query, 0, rng);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(network.cost_snapshot().walker_hops, 0u);
  EXPECT_EQ(network.cost_snapshot().messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(Worlds, ForwardingViewTest,
                         ::testing::Values(topology::TopologyKind::kPowerLaw,
                                           topology::TopologyKind::kSuperPeer),
                         [](const auto& info) {
                           return topology::TopologyKindToString(info.param);
                         });

}  // namespace
}  // namespace p2paqp::net
