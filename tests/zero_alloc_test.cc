// Tier-1 guard for the zero-allocation steady state (docs/PERFORMANCE.md,
// "Zero-allocation message path"): once an AsyncQuerySession is warm, the
// event-loop drains of a query — every walker hop, local scan, reply send,
// arrival and dedup — must perform no heap allocation on the driving
// thread. The contract is what the scale tier's steady_state_allocs_per_event
// gate pins to 0 (tools/bench_gate.py); this test catches a regression at a
// small world inside the ordinary ctest pass.
//
// The world uses zero hop-latency jitter, so DrawHopLatency is constant and
// draws nothing from the network RNG: two identically-seeded queries replay
// bit-identically, which makes the "second query allocates nothing" check
// deterministic rather than dependent on which peers a jittered replay
// happens to visit. Lockstep hops also mean every walker steps at the same
// tick — the batched RunSteps path, not just the single-step fallback.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/async_engine.h"
#include "core/catalog.h"
#include "data/generator.h"
#include "data/partitioner.h"
#include "net/churn.h"
#include "net/fault.h"
#include "net/network.h"
#include "topology/factory.h"
#include "util/alloc_guard.h"
#include "util/rng.h"

namespace p2paqp {
namespace {

TEST(AllocGuardTest, CountsThisThreadsAllocations) {
  util::AllocGuard guard;
  EXPECT_EQ(guard.allocations(), 0u);
  {
    auto sink = std::make_unique<std::vector<int>>(1024);
    ASSERT_NE(sink, nullptr);
  }
  EXPECT_GT(guard.allocations(), 0u);
  guard.Reset();
  EXPECT_EQ(guard.allocations(), 0u);
}

net::SimulatedNetwork MakeJitterFreeNetwork() {
  util::Rng rng(4242);
  topology::TopologyConfig config;
  config.kind = topology::TopologyKind::kClustered;
  config.num_nodes = 600;
  config.num_edges = 3000;
  config.num_subgraphs = 2;
  config.cut_edges = 120;
  auto topo = topology::MakeTopology(config, rng);
  P2PAQP_CHECK(topo.ok()) << topo.status().ToString();

  data::DatasetParams dataset;
  dataset.num_tuples = 600 * 20;
  dataset.skew = 0.2;
  auto table = data::GenerateDataset(dataset, rng);
  P2PAQP_CHECK(table.ok()) << table.status().ToString();
  auto databases = data::PartitionAcrossPeers(*table, topo->graph,
                                              data::PartitionParams{}, rng);
  P2PAQP_CHECK(databases.ok()) << databases.status().ToString();

  net::NetworkParams params;
  params.hop_latency_jitter_ms = 0.0;  // Constant hops: replayable queries.
  auto network = net::SimulatedNetwork::Make(
      std::move(topo->graph), std::move(*databases), params, 4243);
  P2PAQP_CHECK(network.ok()) << network.status().ToString();
  return std::move(*network);
}

TEST(ZeroAllocTest, WarmQueryDrainsWithoutAllocating) {
  net::SimulatedNetwork network = MakeJitterFreeNetwork();
  core::SystemCatalog catalog =
      core::MakeCatalog(network.graph(), /*jump=*/4, /*burn_in=*/16);
  core::AsyncParams params;
  params.engine.phase1_peers = 40;
  params.engine.tuples_per_peer = 10;
  params.walkers = 4;
  params.walk.jump = 4;
  params.walk.burn_in = 16;
  core::AsyncQuerySession session(&network, catalog, params);

  query::AggregateQuery query;
  query.op = query::AggregateOp::kCount;
  query.predicate = query::RangePredicate{1, 40};
  query.required_error = 0.3;

  // Query 1 warms the session: the reply arena, the event slabs and the
  // local-scan scratch grow to their high-water marks here.
  util::Rng warm_rng(99);
  auto warm = session.Execute(query, 0, warm_rng);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_GT(warm->events, 0u);

  // Query 2 replays the identical trace (same query-RNG seed, jitter-free
  // latency) on the warm session: its drains must not allocate at all.
  util::Rng rng(99);
  auto report = session.Execute(query, 0, rng);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->events, warm->events);
  EXPECT_EQ(report->answer.estimate, warm->answer.estimate);
  EXPECT_EQ(report->drain_allocs, 0u)
      << "the warm event-loop drain allocated; the zero-allocation "
         "steady-state contract is broken";

  // The reply arena recycled every payload slot it handed out.
  const net::ArenaStats& arena = session.reply_arena_stats();
  EXPECT_EQ(arena.live, 0u);
  EXPECT_EQ(arena.acquired, arena.released);
  EXPECT_GT(arena.acquired, 0u);
}

// One fault-and-policy mix the warm drain must absorb without allocating.
struct LossyInput {
  const char* name;
  net::FaultPlan faults;
  net::StragglerPolicy straggler;
};

std::vector<LossyInput> LossyInputs() {
  std::vector<LossyInput> inputs;
  for (const double crash_probability : {0.0, 0.01}) {
    LossyInput input{crash_probability > 0.0 ? "drops_and_crashes" : "drops",
                     {}, {}};
    input.faults.drop_probability = 0.1;
    input.faults.crash_probability = crash_probability;
    input.faults.crash_immune = {0};
    inputs.push_back(input);
  }
  // perfbench churn_faults_async's mix: the full straggler stack over 2%
  // drops, a Pareto(shape 2) tail and a 10% coalition at 20x.
  LossyInput stack{"straggler_stack", {}, {}};
  stack.faults.drop_probability = 0.02;
  stack.faults.tail = net::LatencyTail::kPareto;
  stack.faults.tail_scale_ms = 10.0;
  stack.faults.tail_alpha = 2.0;
  stack.faults.slow_fraction = 0.1;
  stack.faults.slow_factor = 20.0;
  stack.faults.crash_immune = {0};
  stack.straggler.walk_not_wait = true;
  stack.straggler.health_tracking = true;
  stack.straggler.hedged_replies = true;
  stack.straggler.exponential_backoff = true;
  inputs.push_back(stack);
  return inputs;
}

// Loss and churn are the drain's routine, not its exception: a lost
// message returns a status that must not allocate, a mid-query churn epoch
// must reuse its scratch and the network's departed list, an injected
// crash must reach SetAlive without a per-decision buffer, and the
// straggler stack (forks, breaker, hedges, backoff) must run on reserved
// state. Once a few queries have warmed the session under churn and each
// input's faults, further queries drain with zero allocations although
// every one of them loses messages and steps epochs.
TEST(ZeroAllocTest, WarmQueryUnderLossAndChurnDrainsWithoutAllocating) {
  for (const LossyInput& input : LossyInputs()) {
    SCOPED_TRACE(input.name);
    net::SimulatedNetwork network = MakeJitterFreeNetwork();
    network.InstallFaultPlan(input.faults, 4244);
    net::ChurnParams churn_params;
    churn_params.leave_probability = 0.01;
    churn_params.rejoin_probability = 0.2;
    churn_params.pinned = {0};
    net::ChurnModel churn(churn_params, 4245);
    core::SystemCatalog catalog =
        core::MakeCatalog(network.graph(), /*jump=*/4, /*burn_in=*/16);
    core::AsyncParams params;
    params.engine.phase1_peers = 40;
    params.engine.tuples_per_peer = 10;
    params.engine.reply_retransmits = 2;
    params.engine.straggler = input.straggler;
    params.walkers = 4;
    params.walk.jump = 4;
    params.walk.burn_in = 16;
    params.churn = &churn;
    params.churn_interval_ms = 100.0;
    core::AsyncQuerySession session(&network, catalog, params);

    query::AggregateQuery query;
    query.op = query::AggregateOp::kCount;
    query.predicate = query::RangePredicate{1, 40};
    query.required_error = 0.3;

    util::Rng rng(101);
    for (int warm = 0; warm < 4; ++warm) {
      auto report = session.Execute(query, 0, rng);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      // Everything the drain touches is reserved before it, so even the
      // cold session's first query drains without allocating.
      if (warm == 0) {
        EXPECT_EQ(report->drain_allocs, 0u) << "cold query";
      }
    }
    const uint64_t dropped_before = network.cost_snapshot().messages_dropped;
    const uint64_t epochs_before = churn.counters().epochs;
    const uint64_t crashes_before = network.fault_injector()->crashes();
    for (int measured = 0; measured < 4; ++measured) {
      auto report = session.Execute(query, 0, rng);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report->drain_allocs, 0u)
          << "query " << measured << " allocated while draining under loss "
          << "and churn";
    }
    EXPECT_GT(network.cost_snapshot().messages_dropped, dropped_before);
    EXPECT_GT(churn.counters().epochs, epochs_before);
    EXPECT_GT(churn.counters().departures, 0u);
    if (input.faults.crash_probability > 0.0) {
      EXPECT_GT(network.fault_injector()->crashes(), crashes_before);
    }
  }
}

TEST(ZeroAllocTest, ColdReservesKeepDrainCleanToo) {
  // Even the FIRST query's drains are allocation-free: RunPhase reserves
  // the event slabs, the observation vector, the reply arena and the
  // local-scan scratch (sized by the sub-sample budget) before draining.
  net::SimulatedNetwork network = MakeJitterFreeNetwork();
  core::SystemCatalog catalog =
      core::MakeCatalog(network.graph(), /*jump=*/4, /*burn_in=*/16);
  core::AsyncParams params;
  params.engine.phase1_peers = 40;
  params.engine.tuples_per_peer = 10;
  params.walkers = 4;
  params.walk.jump = 4;
  params.walk.burn_in = 16;
  core::AsyncQuerySession session(&network, catalog, params);

  query::AggregateQuery query;
  query.op = query::AggregateOp::kCount;
  query.predicate = query::RangePredicate{1, 40};
  query.required_error = 0.3;
  util::Rng rng(7);
  auto report = session.Execute(query, 0, rng);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->drain_allocs, 0u);
}

}  // namespace
}  // namespace p2paqp
