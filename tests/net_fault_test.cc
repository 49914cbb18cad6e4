#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/async_engine.h"
#include "graph/builder.h"
#include "net/churn.h"
#include "net/fault.h"
#include "net/network.h"
#include "test_common.h"

namespace p2paqp::net {
namespace {

graph::Graph MakeRing(size_t n) {
  graph::GraphBuilder builder(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    builder.AddEdge(v, (v + 1) % n);
  }
  return builder.Build();
}

SimulatedNetwork MakeRingNetwork(size_t n, uint64_t seed = 1) {
  auto network = SimulatedNetwork::Make(MakeRing(n), {}, NetworkParams{}, seed);
  EXPECT_TRUE(network.ok());
  return std::move(*network);
}

TEST(FaultPlanTest, DefaultPlanIsDisabled) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.spike_mean_ms = 500.0;  // A mean alone cannot fire anything.
  EXPECT_FALSE(plan.enabled());
  plan.drop_probability = 0.01;
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlanTest, EachKnobEnables) {
  for (int knob = 0; knob < 4; ++knob) {
    FaultPlan plan;
    switch (knob) {
      case 0: plan.drop_probability = 0.1; break;
      case 1: plan.spike_probability = 0.1; break;
      case 2: plan.crash_probability = 0.1; break;
      case 3: plan.scheduled_crashes.push_back({5, 2}); break;
    }
    EXPECT_TRUE(plan.enabled()) << "knob " << knob;
  }
}

TEST(FaultInjectorTest, DisabledPlanInstallsNoInjector) {
  SimulatedNetwork network = MakeRingNetwork(8);
  EXPECT_EQ(network.fault_injector(), nullptr);
  network.InstallFaultPlan(FaultPlan{}, 42);
  EXPECT_EQ(network.fault_injector(), nullptr);
  FaultPlan lossy;
  lossy.drop_probability = 0.5;
  network.InstallFaultPlan(lossy, 42);
  ASSERT_NE(network.fault_injector(), nullptr);
  // Re-installing a disabled plan removes the injector again.
  network.InstallFaultPlan(FaultPlan{}, 42);
  EXPECT_EQ(network.fault_injector(), nullptr);
}

TEST(FaultInjectorTest, DropRateIsHonoredAndChargesCost) {
  SimulatedNetwork network = MakeRingNetwork(8);
  FaultPlan plan;
  plan.drop_probability = 0.3;
  network.InstallFaultPlan(plan, 99);
  const size_t kSends = 4000;
  size_t delivered = 0;
  for (size_t i = 0; i < kSends; ++i) {
    if (network.SendAlongEdge(MessageType::kWalker, 0, 1).ok()) ++delivered;
  }
  const FaultInjector* injector = network.fault_injector();
  ASSERT_NE(injector, nullptr);
  EXPECT_EQ(injector->messages_seen(), kSends);
  EXPECT_EQ(injector->dropped(), kSends - delivered);
  double rate = static_cast<double>(kSends - delivered) / kSends;
  EXPECT_NEAR(rate, 0.3, 0.03);
  // Dropped messages still consumed bandwidth and hop latency: the cost
  // ledger charges every send, delivered or not.
  EXPECT_EQ(network.cost_snapshot().messages, kSends);
  EXPECT_EQ(network.cost_snapshot().walker_hops, kSends);
}

TEST(FaultInjectorTest, ProbabilisticCrashKillsReceiver) {
  SimulatedNetwork network = MakeRingNetwork(8);
  FaultPlan plan;
  plan.crash_probability = 1.0;  // First overlay hop must kill its receiver.
  network.InstallFaultPlan(plan, 7);
  EXPECT_EQ(network.num_alive(), 8u);
  auto status = network.SendAlongEdge(MessageType::kWalker, 0, 1);
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
  EXPECT_FALSE(network.IsAlive(1));
  EXPECT_TRUE(network.IsAlive(0));
  EXPECT_EQ(network.num_alive(), 7u);
  ASSERT_EQ(network.fault_injector()->crashes(), 1u);
  EXPECT_EQ(network.fault_injector()->trace()[0].crashed, 1u);
}

TEST(FaultInjectorTest, ReplyCrashKillsSenderNotSink) {
  SimulatedNetwork network = MakeRingNetwork(8);
  FaultPlan plan;
  plan.crash_probability = 1.0;
  network.InstallFaultPlan(plan, 7);
  // Direct replies lose the *replying* peer, never the sink collecting them.
  auto status = network.SendDirect(MessageType::kAggregateReply, 3, 0);
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
  EXPECT_FALSE(network.IsAlive(3));
  EXPECT_TRUE(network.IsAlive(0));
}

TEST(FaultInjectorTest, ScheduledCrashFiresAtIndex) {
  SimulatedNetwork network = MakeRingNetwork(8);
  FaultPlan plan;
  plan.scheduled_crashes.push_back({2, 5});
  network.InstallFaultPlan(plan, 11);
  // Messages 0 and 1 pass untouched; peer 5 departs at message index 2.
  EXPECT_TRUE(network.SendAlongEdge(MessageType::kWalker, 0, 1).ok());
  EXPECT_TRUE(network.SendAlongEdge(MessageType::kWalker, 1, 2).ok());
  EXPECT_TRUE(network.IsAlive(5));
  EXPECT_TRUE(network.SendAlongEdge(MessageType::kWalker, 2, 3).ok());
  EXPECT_FALSE(network.IsAlive(5));
  const auto& trace = network.fault_injector()->trace();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].kind, FaultKind::kScheduledCrash);
  EXPECT_EQ(trace[0].message_index, 2u);
  EXPECT_EQ(trace[0].crashed, 5u);
}

TEST(FaultInjectorTest, ScheduledCrashOfEndpointLosesMessage) {
  SimulatedNetwork network = MakeRingNetwork(8);
  FaultPlan plan;
  plan.scheduled_crashes.push_back({0, 1});
  network.InstallFaultPlan(plan, 11);
  // The crash applies before delivery: the message into the crashing peer
  // goes down with it.
  auto status = network.SendAlongEdge(MessageType::kWalker, 0, 1);
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
  EXPECT_FALSE(network.IsAlive(1));
}

TEST(FaultInjectorTest, ImmunePeersNeverCrash) {
  SimulatedNetwork network = MakeRingNetwork(8);
  FaultPlan plan;
  plan.crash_probability = 1.0;
  plan.scheduled_crashes.push_back({0, 0});
  plan.crash_immune = {0, 1};
  network.InstallFaultPlan(plan, 13);
  for (int i = 0; i < 20; ++i) {
    (void)network.SendAlongEdge(MessageType::kWalker, 0, 1);
  }
  EXPECT_TRUE(network.IsAlive(0));
  EXPECT_TRUE(network.IsAlive(1));
  EXPECT_EQ(network.num_alive(), 8u);
}

TEST(FaultInjectorTest, SpikesAddLatency) {
  SimulatedNetwork clean = MakeRingNetwork(8, 5);
  SimulatedNetwork spiky = MakeRingNetwork(8, 5);
  FaultPlan plan;
  plan.spike_probability = 1.0;
  plan.spike_mean_ms = 1000.0;
  spiky.InstallFaultPlan(plan, 21);
  const size_t kSends = 50;
  for (size_t i = 0; i < kSends; ++i) {
    EXPECT_TRUE(clean.SendAlongEdge(MessageType::kWalker, 0, 1).ok());
    // Spikes delay but never drop: every send still arrives.
    EXPECT_TRUE(spiky.SendAlongEdge(MessageType::kWalker, 0, 1).ok());
  }
  EXPECT_EQ(spiky.fault_injector()->spikes(), kSends);
  EXPECT_GT(spiky.cost_snapshot().latency_ms,
            clean.cost_snapshot().latency_ms + 1000.0);
  for (const FaultEvent& event : spiky.fault_injector()->trace()) {
    EXPECT_EQ(event.kind, FaultKind::kLatencySpike);
    EXPECT_GT(event.spike_ms, 0.0);
  }
}

TEST(FaultInjectorTest, SameSeedReplaysIdenticalTrace) {
  FaultPlan plan;
  plan.drop_probability = 0.25;
  plan.spike_probability = 0.1;
  plan.crash_probability = 0.02;
  plan.scheduled_crashes.push_back({7, 3});
  FaultInjector a(plan, 1234);
  FaultInjector b(plan, 1234);
  for (uint64_t i = 0; i < 300; ++i) {
    graph::NodeId from = static_cast<graph::NodeId>(i % 6);
    graph::NodeId to = static_cast<graph::NodeId>((i + 1) % 6);
    FaultDecision da = a.OnMessage(MessageType::kWalker, from, to, to);
    FaultDecision db = b.OnMessage(MessageType::kWalker, from, to, to);
    EXPECT_EQ(da.deliver, db.deliver);
    EXPECT_DOUBLE_EQ(da.extra_latency_ms, db.extra_latency_ms);
    EXPECT_TRUE(std::ranges::equal(da.crashed, db.crashed));
  }
  ASSERT_EQ(a.trace().size(), b.trace().size());
  EXPECT_GT(a.trace().size(), 0u);
  for (size_t i = 0; i < a.trace().size(); ++i) {
    EXPECT_EQ(a.trace()[i], b.trace()[i]);
  }
  // A different seed must diverge somewhere over 300 messages.
  FaultInjector c(plan, 4321);
  bool diverged = false;
  for (uint64_t i = 0; i < 300 && !diverged; ++i) {
    graph::NodeId from = static_cast<graph::NodeId>(i % 6);
    graph::NodeId to = static_cast<graph::NodeId>((i + 1) % 6);
    FaultDecision dc = c.OnMessage(MessageType::kWalker, from, to, to);
    if (i < a.trace().size() || dc.deliver != true) diverged = true;
  }
  EXPECT_NE(c.dropped() + c.spikes() + c.crashes(),
            a.dropped() + a.spikes() + a.crashes());
}

TEST(FaultInjectorTest, TraceStopsAtItsCapacityWhileCountersGoOn) {
  FaultPlan plan;
  plan.drop_probability = 1.0;
  FaultInjector injector(plan, 99);
  const uint64_t messages = FaultInjector::kTraceCapacity + 500;
  for (uint64_t i = 0; i < messages; ++i) {
    EXPECT_FALSE(injector.OnMessage(MessageType::kWalker, 0, 1, 1).deliver);
  }
  EXPECT_EQ(injector.dropped(), messages);
  ASSERT_EQ(injector.trace().size(), FaultInjector::kTraceCapacity);
  EXPECT_EQ(injector.trace().back().message_index,
            FaultInjector::kTraceCapacity - 1);
}

TEST(FaultInjectorTest, KindNamesAreDistinct) {
  EXPECT_STRNE(FaultKindToString(FaultKind::kDrop),
               FaultKindToString(FaultKind::kLatencySpike));
  EXPECT_STRNE(FaultKindToString(FaultKind::kCrash),
               FaultKindToString(FaultKind::kScheduledCrash));
}

TEST(FaultInjectorTest, AllZeroPlanIsBitIdentical) {
  // Same topology seed, same traffic; one network has a disabled plan
  // "installed". Every cost counter — including the RNG-drawn latency
  // ledger — must match bit for bit.
  SimulatedNetwork plain = MakeRingNetwork(16, 77);
  SimulatedNetwork planned = MakeRingNetwork(16, 77);
  planned.InstallFaultPlan(FaultPlan{}, 123);
  for (size_t i = 0; i < 200; ++i) {
    graph::NodeId from = static_cast<graph::NodeId>(i % 16);
    graph::NodeId to = static_cast<graph::NodeId>((i + 1) % 16);
    EXPECT_TRUE(plain.SendAlongEdge(MessageType::kWalker, from, to).ok());
    EXPECT_TRUE(planned.SendAlongEdge(MessageType::kWalker, from, to).ok());
    EXPECT_TRUE(
        plain.SendDirect(MessageType::kAggregateReply, to, 0).ok());
    EXPECT_TRUE(
        planned.SendDirect(MessageType::kAggregateReply, to, 0).ok());
  }
  const CostSnapshot& a = plain.cost_snapshot();
  const CostSnapshot& b = planned.cost_snapshot();
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.walker_hops, b.walker_hops);
  EXPECT_EQ(a.bytes_shipped, b.bytes_shipped);
  EXPECT_DOUBLE_EQ(a.latency_ms, b.latency_ms);
}

// Straggler regime: heavy-tailed latency + the slow coalition. A straggler
// is alive and answers eventually — the plan models it as extra delay, not
// loss, and every piece of it is a pure function of (plan, seed, num_peers).

TEST(StragglerPlanTest, TailOrCoalitionEnablesPlan) {
  FaultPlan plan;
  EXPECT_FALSE(plan.straggler_enabled());
  // The scale/alpha defaults alone fire nothing.
  plan.tail_scale_ms = 500.0;
  EXPECT_FALSE(plan.enabled());
  plan.tail = LatencyTail::kPareto;
  EXPECT_TRUE(plan.straggler_enabled());
  EXPECT_TRUE(plan.enabled());

  FaultPlan coalition;
  coalition.slow_fraction = 0.1;
  EXPECT_TRUE(coalition.straggler_enabled());
  coalition.slow_factor = 0.0;  // A factor of 0 is a no-op coalition.
  EXPECT_FALSE(coalition.straggler_enabled());
}

TEST(StragglerTest, ParetoDrawsMatchClosedFormMean) {
  FaultPlan plan;
  plan.tail = LatencyTail::kPareto;
  plan.tail_scale_ms = 50.0;
  plan.tail_alpha = 3.0;  // Finite variance, so the sample mean converges.
  FaultInjector injector(plan, 21, /*num_peers=*/16);
  util::Rng rng(22);
  const size_t kDraws = 20000;
  double sum = 0.0;
  double min_draw = 1e18;
  for (size_t i = 0; i < kDraws; ++i) {
    double d = injector.DrawTailDelay(3, rng);
    ASSERT_GE(d, 0.0);
    sum += d;
    min_draw = std::min(min_draw, d);
  }
  // The shifted Pareto's floor is 0 (typical messages pay nothing) and
  // E[extra] = scale / (alpha - 1) = 25ms.
  EXPECT_LT(min_draw, 1.0);
  EXPECT_NEAR(sum / kDraws, 25.0, 2.0);
  EXPECT_DOUBLE_EQ(injector.ExpectedTailDelayMs(3), 25.0);
}

TEST(StragglerTest, LognormalDrawsMatchMedian) {
  FaultPlan plan;
  plan.tail = LatencyTail::kLognormal;
  plan.tail_scale_ms = 40.0;  // The lognormal's median by construction.
  plan.tail_sigma = 1.0;
  FaultInjector injector(plan, 31, /*num_peers=*/16);
  util::Rng rng(32);
  std::vector<double> draws(20001);
  for (double& d : draws) {
    d = injector.DrawTailDelay(5, rng);
    ASSERT_GT(d, 0.0);
  }
  std::nth_element(draws.begin(), draws.begin() + draws.size() / 2,
                   draws.end());
  EXPECT_NEAR(draws[draws.size() / 2], 40.0, 4.0);
  EXPECT_DOUBLE_EQ(injector.ExpectedTailDelayMs(5),
                   40.0 * std::exp(0.5));  // scale * e^{sigma^2/2}.
}

TEST(StragglerTest, CoalitionDraftIsSeedDeterministicAndImmuneAware) {
  FaultPlan plan;
  plan.slow_fraction = 0.25;
  plan.crash_immune = {0, 1};
  FaultInjector a(plan, 99, /*num_peers=*/400);
  FaultInjector b(plan, 99, /*num_peers=*/400);
  FaultInjector other_seed(plan, 100, /*num_peers=*/400);
  EXPECT_EQ(a.slow_peers(), b.slow_peers());
  size_t differs = 0;
  for (graph::NodeId peer = 0; peer < 400; ++peer) {
    EXPECT_EQ(a.IsSlow(peer), b.IsSlow(peer)) << "peer " << peer;
    if (a.IsSlow(peer) != other_seed.IsSlow(peer)) ++differs;
  }
  // Immune peers (the sink) are never drafted; another seed redraws the
  // coalition, so the determinism check above is not vacuous.
  EXPECT_FALSE(a.IsSlow(0));
  EXPECT_FALSE(a.IsSlow(1));
  EXPECT_GT(differs, 0u);
  EXPECT_NEAR(static_cast<double>(a.slow_peers()) / 400.0, 0.25, 0.07);
}

TEST(StragglerTest, CoalitionScalingConsumesNoRngWithoutATail) {
  // The engine-side draw must leave the caller's stream untouched under
  // tail == kNone: coalition scaling is deterministic, so legacy query
  // streams replay bit-identically when only the coalition is configured.
  FaultPlan plan;
  plan.slow_fraction = 1.0;
  plan.slow_factor = 20.0;
  FaultInjector injector(plan, 5, /*num_peers=*/8);
  ASSERT_TRUE(injector.IsSlow(2));
  util::Rng drawn(77);
  util::Rng untouched(77);
  double d = injector.DrawTailDelay(2, drawn);
  // With no tail the coalition pays exactly slow_factor * tail_scale_ms.
  EXPECT_DOUBLE_EQ(d, 20.0 * plan.tail_scale_ms);
  EXPECT_EQ(drawn.Next64(), untouched.Next64());
}

TEST(StragglerTest, CoalitionScalesExpectedDelay) {
  FaultPlan plan;
  plan.tail = LatencyTail::kPareto;
  plan.tail_scale_ms = 10.0;
  plan.tail_alpha = 2.0;  // E[extra] = 10ms.
  plan.slow_fraction = 1.0;
  plan.slow_factor = 20.0;
  plan.crash_immune = {0};
  FaultInjector injector(plan, 7, /*num_peers=*/4);
  EXPECT_DOUBLE_EQ(injector.ExpectedTailDelayMs(0), 10.0);  // Immune: fast.
  EXPECT_DOUBLE_EQ(injector.ExpectedTailDelayMs(1), 20.0 * (10.0 + 10.0));
}

TEST(StragglerTest, TransportChargesTailDelayToLedger) {
  SimulatedNetwork plain = MakeRingNetwork(16, /*seed=*/3);
  SimulatedNetwork tailed = MakeRingNetwork(16, /*seed=*/3);
  FaultPlan plan;
  plan.tail = LatencyTail::kPareto;
  plan.tail_scale_ms = 10.0;
  plan.tail_alpha = 1.1;
  tailed.InstallFaultPlan(plan, 404);
  const size_t kSends = 500;
  for (size_t i = 0; i < kSends; ++i) {
    graph::NodeId from = static_cast<graph::NodeId>(i % 16);
    graph::NodeId to = static_cast<graph::NodeId>((i + 1) % 16);
    EXPECT_TRUE(plain.SendAlongEdge(MessageType::kWalker, from, to).ok());
    EXPECT_TRUE(tailed.SendAlongEdge(MessageType::kWalker, from, to).ok());
  }
  const FaultInjector* injector = tailed.fault_injector();
  ASSERT_NE(injector, nullptr);
  // Straggler delay is latency, never loss: everything delivered, every
  // extra millisecond accounted in both the injector and the cost ledger.
  EXPECT_EQ(injector->dropped(), 0u);
  EXPECT_GT(injector->tail_messages(), 0u);
  EXPECT_LE(injector->tail_messages(), kSends);
  EXPECT_GT(injector->tail_delay_ms(), 0.0);
  EXPECT_NEAR(tailed.cost_snapshot().latency_ms,
              plain.cost_snapshot().latency_ms + injector->tail_delay_ms(),
              1e-6);
  EXPECT_EQ(tailed.cost_snapshot().messages, plain.cost_snapshot().messages);
}

// Arena recycling under adverse conditions (docs/PERFORMANCE.md,
// "Zero-allocation message path"): every reply payload the async engine
// parks in its slot arena has exactly one arrival event holding its handle,
// and that event releases the slot whether the reply is accepted, deduped,
// or was doomed at send time — so once the query's event queue drains, no
// slot can still be live, no matter which peers crashed mid-flight.

core::AsyncParams ChurnyAsyncParams(const core::SystemCatalog& catalog) {
  core::AsyncParams params;
  params.engine.phase1_peers = 40;
  params.engine.tuples_per_peer = 10;
  params.engine.reply_retransmits = 2;
  params.engine.min_observation_quorum = 0.2;  // Survive heavy loss.
  params.walkers = 4;
  params.walk.jump = catalog.suggested_jump;
  params.walk.burn_in = catalog.suggested_burn_in;
  return params;
}

query::AggregateQuery SmallCountQuery() {
  query::AggregateQuery q;
  q.op = query::AggregateOp::kCount;
  q.predicate = {1, 30};
  q.required_error = 0.3;
  return q;
}

TEST(ArenaRecyclingTest, DrainedQueryLeavesNoLiveSlots) {
  auto tn = p2paqp::testing::MakeTestNetwork({});
  core::AsyncQuerySession session(&tn.network, tn.catalog,
                                  ChurnyAsyncParams(tn.catalog));
  util::Rng rng(11);
  auto report = session.Execute(SmallCountQuery(), 0, rng);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ArenaStats& arena = session.reply_arena_stats();
  EXPECT_GT(arena.acquired, 0u);
  EXPECT_EQ(arena.live, 0u);
  EXPECT_EQ(arena.acquired, arena.released);
}

TEST(ArenaRecyclingTest, LossAndCrashesStillReleaseEverySlot) {
  auto tn = p2paqp::testing::MakeTestNetwork({});
  FaultPlan plan;
  plan.drop_probability = 0.25;
  plan.crash_probability = 0.01;
  plan.crash_immune = {0};  // Keep the sink up so phases can complete.
  tn.network.InstallFaultPlan(plan, 555);
  core::AsyncQuerySession session(&tn.network, tn.catalog,
                                  ChurnyAsyncParams(tn.catalog));
  util::Rng rng(12);
  auto report = session.Execute(SmallCountQuery(), 0, rng);
  // Heavy loss may refuse the answer below quorum; the recycling invariant
  // holds either way.
  (void)report;
  const ArenaStats& arena = session.reply_arena_stats();
  EXPECT_GT(arena.acquired, 0u);
  EXPECT_EQ(arena.live, 0u);
  EXPECT_EQ(arena.acquired, arena.released);
}

TEST(ArenaRecyclingTest, MidQueryChurnRecyclesAcrossQueries) {
  auto tn = p2paqp::testing::MakeTestNetwork({});
  ChurnParams churn_params;
  churn_params.leave_probability = 0.01;
  churn_params.rejoin_probability = 0.3;
  churn_params.pinned = {0};
  ChurnModel churn(churn_params, 777);
  core::AsyncParams params = ChurnyAsyncParams(tn.catalog);
  params.churn = &churn;
  params.churn_interval_ms = 120.0;
  core::AsyncQuerySession session(&tn.network, tn.catalog, params);
  uint64_t acquired_after_first = 0;
  for (int q = 0; q < 3; ++q) {
    util::Rng rng(100 + q);
    auto report = session.Execute(SmallCountQuery(), 0, rng);
    (void)report;  // Quorum may fail under churn; recycling must not.
    const ArenaStats& arena = session.reply_arena_stats();
    EXPECT_EQ(arena.live, 0u) << "query " << q;
    EXPECT_EQ(arena.acquired, arena.released) << "query " << q;
    if (q == 0) {
      acquired_after_first = arena.acquired;
      EXPECT_GT(acquired_after_first, 0u);
    }
  }
  // The arena's chunk spine kept being reused: capacity plateaued at the
  // first query's high-water mark instead of growing per query.
  const ArenaStats& arena = session.reply_arena_stats();
  EXPECT_GT(arena.acquired, acquired_after_first);
  EXPECT_LE(arena.high_water, arena.capacity);
}

}  // namespace
}  // namespace p2paqp::net
