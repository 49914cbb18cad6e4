// Tests for the discrete-event scheduler and the event-driven query session.
#include "core/async_engine.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "net/fault.h"
#include "net/history.h"
#include "sampling/random_walk.h"
#include "test_common.h"
#include "util/statistics.h"

namespace p2paqp {
namespace {

using p2paqp::testing::MakeTestNetwork;
using p2paqp::testing::TestNetwork;
using p2paqp::testing::TestNetworkParams;

TEST(EventQueueTest, RunsInTimeOrder) {
  net::EventQueue events;
  std::vector<int> order;
  events.ScheduleAt(30.0, [&] { order.push_back(3); });
  events.ScheduleAt(10.0, [&] { order.push_back(1); });
  events.ScheduleAt(20.0, [&] { order.push_back(2); });
  events.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(events.now(), 30.0);
  EXPECT_EQ(events.executed(), 3u);
}

TEST(EventQueueTest, SimultaneousEventsAreFifo) {
  net::EventQueue events;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    events.ScheduleAt(7.0, [&order, i] { order.push_back(i); });
  }
  events.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  net::EventQueue events;
  int fired = 0;
  std::function<void()> chain = [&]() {
    ++fired;
    if (fired < 10) events.ScheduleAfter(5.0, chain);
  };
  events.ScheduleAfter(5.0, chain);
  events.RunUntilEmpty();
  EXPECT_EQ(fired, 10);
  EXPECT_DOUBLE_EQ(events.now(), 50.0);
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  net::EventQueue events;
  double observed = -1.0;
  events.ScheduleAt(100.0, [&] {
    events.ScheduleAfter(2.5, [&] { observed = events.now(); });
  });
  events.RunUntilEmpty();
  EXPECT_DOUBLE_EQ(observed, 102.5);
}

TEST(EventQueueDeathTest, RefusesToScheduleInThePast) {
  net::EventQueue events;
  events.ScheduleAt(10.0, [] {});
  events.RunUntilEmpty();
  EXPECT_DEATH(events.ScheduleAt(5.0, [] {}), "CHECK failed");
}

class AsyncSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tn_ = std::make_unique<TestNetwork>(MakeTestNetwork(TestNetworkParams{}));
  }

  core::AsyncParams MakeParams(size_t walkers) {
    core::AsyncParams params;
    params.engine.phase1_peers = 60;
    params.engine.include_phase1_observations = true;  // Combined estimate.
    params.walkers = walkers;
    params.walk.jump = tn_->catalog.suggested_jump;
    params.walk.burn_in = tn_->catalog.suggested_burn_in;
    return params;
  }

  query::AggregateQuery CountQuery() {
    query::AggregateQuery q;
    q.op = query::AggregateOp::kCount;
    q.predicate = {1, 30};
    q.required_error = 0.1;
    return q;
  }

  std::unique_ptr<TestNetwork> tn_;
};

TEST_F(AsyncSessionTest, MatchesSynchronousAccuracy) {
  core::AsyncQuerySession session(&tn_->network, tn_->catalog, MakeParams(4));
  util::Rng rng(1);
  auto report = session.Execute(CountQuery(), 0, rng);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  double err = p2paqp::testing::NormalizedCountError(
      tn_->network, report->answer.estimate, 1, 30);
  EXPECT_LT(err, 0.12);
  EXPECT_EQ(report->answer.phase1_peers, 60u);
  EXPECT_GT(report->events, 0u);
}

TEST_F(AsyncSessionTest, MakespanShrinksWithWalkers) {
  util::Rng rng_a(2);
  util::Rng rng_b(2);
  core::AsyncQuerySession one(&tn_->network, tn_->catalog, MakeParams(1));
  core::AsyncQuerySession eight(&tn_->network, tn_->catalog, MakeParams(8));
  auto slow = one.Execute(CountQuery(), 0, rng_a);
  auto fast = eight.Execute(CountQuery(), 0, rng_b);
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_LT(fast->makespan_ms, slow->makespan_ms / 3.0);
  // Same statistical work: peer visits are of the same order.
  EXPECT_NEAR(static_cast<double>(fast->answer.cost.peers_visited),
              static_cast<double>(slow->answer.cost.peers_visited),
              0.5 * static_cast<double>(slow->answer.cost.peers_visited));
}

TEST_F(AsyncSessionTest, PhaseOneCompletesBeforeQueryEnds) {
  core::AsyncQuerySession session(&tn_->network, tn_->catalog, MakeParams(4));
  util::Rng rng(3);
  auto report = session.Execute(CountQuery(), 0, rng);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->phase1_done_ms, 0.0);
  EXPECT_GT(report->makespan_ms, report->phase1_done_ms);
  EXPECT_DOUBLE_EQ(report->answer.cost.latency_ms, report->makespan_ms);
}

TEST_F(AsyncSessionTest, MakespanIsFarBelowSequentialSum) {
  // The sequential engine's latency is the sum of every hop and scan; the
  // event-driven makespan with 8 walkers must be a small fraction of it.
  core::EngineParams engine_params;
  engine_params.phase1_peers = 60;
  core::TwoPhaseEngine sync_engine(&tn_->network, tn_->catalog,
                                   engine_params);
  util::Rng rng_a(4);
  auto sync_answer = sync_engine.Execute(CountQuery(), 0, rng_a);
  ASSERT_TRUE(sync_answer.ok());

  core::AsyncQuerySession session(&tn_->network, tn_->catalog, MakeParams(8));
  util::Rng rng_b(4);
  auto report = session.Execute(CountQuery(), 0, rng_b);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->makespan_ms, sync_answer->cost.latency_ms / 2.0);
}

TEST_F(AsyncSessionTest, RejectsUnsupportedOps) {
  core::AsyncQuerySession session(&tn_->network, tn_->catalog, MakeParams(2));
  util::Rng rng(5);
  query::AggregateQuery q = CountQuery();
  q.op = query::AggregateOp::kMedian;
  EXPECT_FALSE(session.Execute(q, 0, rng).ok());
}

TEST_F(AsyncSessionTest, RejectsDeadSink) {
  core::AsyncQuerySession session(&tn_->network, tn_->catalog, MakeParams(2));
  tn_->network.SetAlive(0, false);
  util::Rng rng(6);
  EXPECT_FALSE(session.Execute(CountQuery(), 0, rng).ok());
}

TEST_F(AsyncSessionTest, FullQuorumPassesFaultFree) {
  // Boundary from the passing side: a 100% observation quorum on a
  // fault-free network means delivered == requested exactly at the quorum.
  core::AsyncParams params = MakeParams(4);
  params.engine.min_observation_quorum = 1.0;
  core::AsyncQuerySession session(&tn_->network, tn_->catalog, params);
  util::Rng rng(8);
  auto report = session.Execute(CountQuery(), 0, rng);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->answer.degraded);
  EXPECT_EQ(report->answer.observations_lost, 0u);
}

TEST_F(AsyncSessionTest, FullQuorumFailsUnderAnyLoss) {
  // With a 50% drop rate, no retransmits and a 100% quorum, some reply is
  // lost (seeded, hence reproducible) and the session must hard-fail
  // instead of degrading.
  net::FaultPlan plan;
  plan.drop_probability = 0.5;
  tn_->network.InstallFaultPlan(plan, 99);
  core::AsyncParams params = MakeParams(4);
  params.engine.min_observation_quorum = 1.0;
  params.engine.reply_retransmits = 0;
  core::AsyncQuerySession session(&tn_->network, tn_->catalog, params);
  util::Rng rng(9);
  auto report = session.Execute(CountQuery(), 0, rng);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kUnavailable);
}

TEST_F(AsyncSessionTest, FailsBelowDefaultQuorumUnderHeavyLoss) {
  // 95% loss leaves ~5% of replies: far below the default 25% quorum.
  net::FaultPlan plan;
  plan.drop_probability = 0.95;
  tn_->network.InstallFaultPlan(plan, 100);
  core::AsyncParams params = MakeParams(4);
  params.engine.reply_retransmits = 0;
  core::AsyncQuerySession session(&tn_->network, tn_->catalog, params);
  util::Rng rng(10);
  auto report = session.Execute(CountQuery(), 0, rng);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kUnavailable);
}

TEST_F(AsyncSessionTest, DeadlineExactlyAtMakespanChangesNothing) {
  // Probe on a twin network: the transport's latency stream is stateful, so
  // the deadline run needs a fresh-but-identical world to replay against.
  core::AsyncParams params = MakeParams(4);
  TestNetwork twin = MakeTestNetwork(TestNetworkParams{});
  core::AsyncQuerySession probe(&twin.network, twin.catalog, params);
  util::Rng rng_a(21);
  auto baseline = probe.Execute(CountQuery(), 0, rng_a);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // A reply arriving exactly at the deadline is still taken, so a deadline
  // equal to the free-running makespan curtails nothing: same estimate, no
  // anytime degradation, bit-identical clock.
  params.engine.deadline_ms = baseline->makespan_ms;
  core::AsyncQuerySession session(&tn_->network, tn_->catalog, params);
  util::Rng rng_b(21);
  auto report = session.Execute(CountQuery(), 0, rng_b);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->answer.deadline_hit);
  EXPECT_FALSE(report->answer.degraded);
  EXPECT_EQ(report->answer.estimate, baseline->answer.estimate);
  EXPECT_EQ(report->makespan_ms, baseline->makespan_ms);
  EXPECT_EQ(report->events, baseline->events);
}

TEST_F(AsyncSessionTest, TightDeadlineProducesAnytimeAnswer) {
  core::AsyncParams params = MakeParams(4);
  TestNetwork twin = MakeTestNetwork(TestNetworkParams{});
  core::AsyncQuerySession probe(&twin.network, twin.catalog, params);
  util::Rng rng_a(22);
  auto full = probe.Execute(CountQuery(), 0, rng_a);
  ASSERT_TRUE(full.ok());

  // A third of the free-running makespan: collection cannot finish, so the
  // session must answer *at* the deadline from whatever arrived, widening
  // the CI instead of failing the quorum.
  params.engine.deadline_ms = full->makespan_ms / 3.0;
  core::AsyncQuerySession session(&tn_->network, tn_->catalog, params);
  util::Rng rng_b(22);
  auto report = session.Execute(CountQuery(), 0, rng_b);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->answer.deadline_hit);
  EXPECT_TRUE(report->answer.degraded);
  EXPECT_GT(report->answer.observations_lost, 0u);
  EXPECT_GT(report->answer.achieved_error, 0.0);
  EXPECT_DOUBLE_EQ(report->makespan_ms, params.engine.deadline_ms);
  EXPECT_DOUBLE_EQ(report->answer.cost.latency_ms, report->makespan_ms);
}

TEST_F(AsyncSessionTest, DeadlineBeforeFirstReplyAnswersWithNothing) {
  // 1ms is shorter than a single hop: the deadline fires before burn-in
  // completes, no observation ever reaches the sink, and the contract is a
  // maximally degraded anytime answer — never an error.
  core::AsyncParams params = MakeParams(4);
  params.engine.deadline_ms = 1.0;
  core::AsyncQuerySession session(&tn_->network, tn_->catalog, params);
  util::Rng rng(23);
  auto report = session.Execute(CountQuery(), 0, rng);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->answer.deadline_hit);
  EXPECT_TRUE(report->answer.degraded);
  EXPECT_EQ(report->answer.estimate, 0.0);
  // Everything phase I requested counts as lost; phase II never launches.
  EXPECT_EQ(report->answer.observations_lost, params.engine.phase1_peers);
  EXPECT_EQ(report->answer.phase2_peers, 0u);
  EXPECT_DOUBLE_EQ(report->answer.achieved_error, 1.0);
  EXPECT_DOUBLE_EQ(report->makespan_ms, 1.0);
}

TEST_F(AsyncSessionTest, StragglerPolicyKeepsClockAndArenaHonest) {
  net::FaultPlan plan;
  plan.tail = net::LatencyTail::kPareto;
  plan.tail_scale_ms = 10.0;
  plan.tail_alpha = 1.1;
  plan.slow_fraction = 0.1;
  plan.slow_factor = 20.0;
  plan.crash_immune = {0};
  tn_->network.InstallFaultPlan(plan, 77);
  core::AsyncParams params = MakeParams(4);
  params.engine.straggler.walk_not_wait = true;
  params.engine.straggler.health_tracking = true;
  params.engine.straggler.hedged_replies = true;
  params.engine.straggler.exponential_backoff = true;
  core::AsyncQuerySession session(&tn_->network, tn_->catalog, params);
  util::Rng rng(24);
  auto report = session.Execute(CountQuery(), 0, rng);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The resilience layer actually engaged under this tail regime...
  EXPECT_GT(report->answer.hedges_sent + report->answer.stragglers_skipped,
            0u);
  // ...and a hedge's losing copy drains after the answer is ready: it
  // balances the reply arena without ever inflating the measured makespan.
  EXPECT_DOUBLE_EQ(report->answer.cost.latency_ms, report->makespan_ms);
  const net::ArenaStats& arena = session.reply_arena_stats();
  EXPECT_GT(arena.acquired, 0u);
  EXPECT_EQ(arena.live, 0u);
  EXPECT_EQ(arena.acquired, arena.released);
}

TEST_F(AsyncSessionTest, SumQueriesWork) {
  core::AsyncQuerySession session(&tn_->network, tn_->catalog, MakeParams(4));
  util::Rng rng(7);
  query::AggregateQuery q;
  q.op = query::AggregateOp::kSum;
  q.predicate = query::RangePredicate{1, 100};
  q.required_error = 0.1;
  auto report = session.Execute(q, 0, rng);
  ASSERT_TRUE(report.ok());
  double err = p2paqp::testing::NormalizedSumError(
      tn_->network, report->answer.estimate, 1, 100);
  EXPECT_LT(err, 0.12);
}

// ---- One walker decision table for both executors ----
//
// Each row scripts one walker situation on a hand-built overlay and drives
// it through the synchronous walk (RandomWalk::CollectResilient, one
// selection) and a one-walker AsyncQuerySession with the same query seed.
// Hop latency is constant, the straggler tail (when any) is a deterministic
// coalition, and peers hold no tuples, so until the first selection both
// executors draw the same stream: their walker histories up to the first
// reply must be identical, and so must the straggler skips and walker
// restarts those histories hold. The row's expectation then checks the
// prescribed action on that history. A row scans seeds for one whose walk
// reaches its situation; no seed at all is a failure too.

constexpr graph::NodeId kTableSink = 0;

struct TableWorld {
  std::function<graph::Graph()> graph;
  net::FaultPlan faults;
  net::StragglerPolicy policy;
  size_t jump = 1;
  size_t burn_in = 0;
  size_t max_hops = 10000;
  size_t max_restarts = 16;
};

// The walker-level history: hops, forks and liveness changes.
struct WalkerEvent {
  net::HistoryEventKind kind;
  graph::NodeId from;
  graph::NodeId to;
  bool operator==(const WalkerEvent&) const = default;
};

struct TableRun {
  std::vector<WalkerEvent> events;
  // Sync only: the collection's outcome.
  sampling::WalkOutcome outcome;
};

net::SimulatedNetwork MakeTableNetwork(const TableWorld& world) {
  net::NetworkParams params;
  params.hop_latency_jitter_ms = 0.0;  // No latency draws: aligned streams.
  auto network =
      net::SimulatedNetwork::Make(world.graph(), {}, params, /*seed=*/5);
  P2PAQP_CHECK(network.ok()) << network.status().ToString();
  if (world.faults.enabled()) network->InstallFaultPlan(world.faults, 77);
  return std::move(*network);
}

std::vector<WalkerEvent> WalkerPrefix(const net::HistoryRecorder& history) {
  std::vector<WalkerEvent> out;
  for (const net::HistoryEvent& e : history.events()) {
    if (e.type == net::MessageType::kAggregateReply) break;  // 1st selection.
    out.push_back(WalkerEvent{e.kind, e.from, e.to});
  }
  return out;
}

sampling::WalkParams TableWalk(const TableWorld& world) {
  sampling::WalkParams walk;
  walk.jump = world.jump;
  walk.burn_in = world.burn_in;
  walk.max_hops = world.max_hops;
  walk.max_restarts = world.max_restarts;
  return walk;
}

TableRun RunSyncWalk(const TableWorld& world, uint64_t seed) {
  net::SimulatedNetwork network = MakeTableNetwork(world);
  net::HistoryRecorder history;
  network.set_history(&history);
  net::PeerHealthBoard health;
  health.Reset(network.num_peers());
  sampling::WalkParams walk = TableWalk(world);
  walk.straggler = &world.policy;
  walk.health = &health;
  sampling::RandomWalk walker(&network, walk);
  util::Rng rng(seed);
  auto outcome = walker.CollectResilient(kTableSink, 1, rng);
  P2PAQP_CHECK(outcome.ok()) << outcome.status().ToString();
  network.set_history(nullptr);
  return TableRun{WalkerPrefix(history), std::move(*outcome)};
}

TableRun RunAsyncWalk(const TableWorld& world, uint64_t seed) {
  net::SimulatedNetwork network = MakeTableNetwork(world);
  net::HistoryRecorder history;
  network.set_history(&history);
  core::AsyncParams params;
  params.engine.phase1_peers = 2;
  params.engine.straggler = world.policy;
  params.walkers = 1;
  params.walk = TableWalk(world);
  core::SystemCatalog catalog =
      core::MakeCatalog(network.graph(), world.jump, world.burn_in);
  core::AsyncQuerySession session(&network, catalog, params);
  query::AggregateQuery query;
  query.op = query::AggregateOp::kCount;
  query.predicate = query::RangePredicate{1, 40};
  util::Rng rng(seed);
  (void)session.Execute(query, kTableSink, rng);  // Rows may starve it.
  network.set_history(nullptr);
  return TableRun{WalkerPrefix(history), {}};
}

// Replays a walker history: straggler skips (one record per fork) and sink
// re-issues (a hop sent from the sink while the token was elsewhere).
struct Replay {
  size_t skips = 0;
  size_t restarts = 0;
};

Replay ReplayHistory(const std::vector<WalkerEvent>& events) {
  Replay replay;
  graph::NodeId holder = kTableSink;
  // The last skip record, and whether the hop in flight is its fork's
  // token (which leaves the holder in place).
  WalkerEvent skip{net::HistoryEventKind::kStragglerSkip, graph::kInvalidNode,
                   graph::kInvalidNode};
  bool forking = false;
  for (const WalkerEvent& e : events) {
    switch (e.kind) {
      case net::HistoryEventKind::kStragglerSkip:
        ++replay.skips;
        skip = e;
        break;
      case net::HistoryEventKind::kSend:
        forking = e.from == skip.from && e.to == skip.to;
        skip.from = graph::kInvalidNode;
        if (e.from != holder) {
          EXPECT_EQ(e.from, kTableSink) << "hop from a non-holder";
          ++replay.restarts;
          holder = kTableSink;
        }
        break;
      case net::HistoryEventKind::kDeliver:
        if (!forking) holder = e.to;
        break;
      default:
        break;
    }
  }
  return replay;
}

struct TableRow {
  const char* name;
  TableWorld world;
  // True when the sync walk at this seed reached the row's situation.
  std::function<bool(const TableRun&)> reached;
  // The prescribed action, checked on the (shared) walker history.
  std::function<void(const TableRun&)> expect;
};

// Clique {0,1,2,3} of fast peers; slow peers 4 and 5 hang off 1, 2 and 3.
graph::Graph FastCoreSlowRim() {
  graph::GraphBuilder builder(6);
  for (graph::NodeId a = 0; a < 4; ++a) {
    for (graph::NodeId b = a + 1; b < 4; ++b) builder.AddEdge(a, b);
  }
  for (graph::NodeId core : {1, 2, 3}) {
    builder.AddEdge(core, 4);
    builder.AddEdge(core, 5);
  }
  return builder.Build();
}

// Every peer but the fast core is consistently 1000x tardy (no RNG drawn).
TableWorld SlowRimWorld(size_t burn_in) {
  TableWorld world;
  world.graph = FastCoreSlowRim;
  world.faults.slow_fraction = 1.0;
  world.faults.slow_factor = 1000.0;
  world.faults.crash_immune = {0, 1, 2, 3};
  world.policy.walk_not_wait = true;
  world.burn_in = burn_in;
  return world;
}

// Wheel: the sink is the hub of the ring 1..6.
graph::Graph Wheel() {
  graph::GraphBuilder builder(7);
  for (graph::NodeId r = 1; r <= 6; ++r) {
    builder.AddEdge(0, r);
    builder.AddEdge(r, r % 6 + 1);
  }
  return builder.Build();
}

std::vector<TableRow> DecisionTable() {
  std::vector<TableRow> rows;
  // A selection-due tardy hop sends the token, selects the peer in
  // absentia and forks: the holder keeps the token.
  rows.push_back(TableRow{
      "tardy_selection_due", SlowRimWorld(/*burn_in=*/3),
      [](const TableRun& run) {
        return run.outcome.stats.straggler_skips > 0 &&
               run.outcome.visits.size() == 1;
      },
      [](const TableRun& run) {
        const auto& ev = run.events;
        ASSERT_GE(ev.size(), 3u);
        const WalkerEvent& skip = ev[ev.size() - 3];
        EXPECT_EQ(skip.kind, net::HistoryEventKind::kStragglerSkip);
        EXPECT_EQ(ev[ev.size() - 2],
                  (WalkerEvent{net::HistoryEventKind::kSend, skip.from,
                               skip.to}));
        EXPECT_EQ(ev.back(), (WalkerEvent{net::HistoryEventKind::kDeliver,
                                          skip.from, skip.to}));
        EXPECT_EQ(run.outcome.visits.front().peer, skip.to);
        EXPECT_GE(skip.to, 4u);  // A slow rim peer.
      }});
  // A tardy hop that is not due still sends the token, selects nothing and
  // forks: the next hop leaves from the same holder.
  rows.push_back(TableRow{
      "tardy_not_due", SlowRimWorld(/*burn_in=*/8),
      [](const TableRun& run) {
        const auto& ev = run.events;
        for (size_t i = 0; i + 3 < ev.size(); ++i) {
          if (ev[i].kind == net::HistoryEventKind::kStragglerSkip) {
            return true;
          }
        }
        return false;
      },
      [](const TableRun& run) {
        const auto& ev = run.events;
        bool forked_before_selection = false;
        for (size_t i = 0; i < ev.size(); ++i) {
          if (ev[i].kind != net::HistoryEventKind::kStragglerSkip) continue;
          ASSERT_LT(i + 2, ev.size());
          EXPECT_EQ(ev[i + 1], (WalkerEvent{net::HistoryEventKind::kSend,
                                            ev[i].from, ev[i].to}));
          if (i + 3 >= ev.size()) continue;  // The selection-due fork.
          forked_before_selection = true;
          EXPECT_EQ(ev[i + 3].from, ev[i].from) << "fork left the holder";
          EXPECT_NE(run.outcome.visits.front().peer, ev[i].to);
        }
        EXPECT_TRUE(forked_before_selection);
      }});
  // Breaker: every hop is dropped, so the sink's two leaves trip one after
  // the other. A tripped pick forks for free only while the other leaf is
  // untripped; once both are tripped the hop goes out anyway.
  TableWorld lossy_leaves;
  lossy_leaves.graph = [] {
    graph::GraphBuilder builder(3);
    builder.AddEdge(0, 1);
    builder.AddEdge(0, 2);
    return builder.Build();
  };
  lossy_leaves.faults.drop_probability = 1.0;
  lossy_leaves.policy.health_tracking = true;
  lossy_leaves.burn_in = 5;
  lossy_leaves.max_hops = 60;
  auto breaker_replay = [](const TableRun& run, size_t* skips_with_alt,
                           size_t* sends_without_alt) {
    net::PeerHealthBoard board;
    board.Reset(3);
    for (const WalkerEvent& e : run.events) {
      const graph::NodeId other = e.to == 1 ? 2 : 1;
      if (e.kind == net::HistoryEventKind::kStragglerSkip) {
        EXPECT_TRUE(board.Tripped(e.to));
        EXPECT_FALSE(board.Tripped(other)) << "skipped with no alternative";
        ++*skips_with_alt;
      } else if (e.kind == net::HistoryEventKind::kSend) {
        EXPECT_TRUE(!board.Tripped(e.to) || board.Tripped(other))
            << "sent to a tripped peer past an untripped one";
        if (board.Tripped(e.to)) ++*sends_without_alt;
      } else if (e.kind == net::HistoryEventKind::kDrop) {
        board.Record(e.to, 0.0, false);
      }
    }
  };
  rows.push_back(TableRow{
      "tripped_with_alternative", lossy_leaves,
      [](const TableRun& run) { return run.outcome.stats.straggler_skips > 0; },
      [breaker_replay](const TableRun& run) {
        size_t skips = 0, sends = 0;
        breaker_replay(run, &skips, &sends);
        EXPECT_GT(skips, 0u);
      }});
  rows.push_back(TableRow{
      "tripped_without_alternative", lossy_leaves,
      [breaker_replay](const TableRun& run) {
        size_t skips = 0, sends = 0;
        breaker_replay(run, &skips, &sends);
        return sends > 0;
      },
      [breaker_replay](const TableRun& run) {
        size_t skips = 0, sends = 0;
        breaker_replay(run, &skips, &sends);
        EXPECT_GT(sends, 0u);
        EXPECT_TRUE(run.outcome.truncated);
        EXPECT_EQ(run.outcome.truncation.code(),
                  util::StatusCode::kOutOfRange);
      }});
  // A hop lost in transit is retried by the same holder.
  TableWorld lossy_wheel;
  lossy_wheel.graph = Wheel;
  lossy_wheel.faults.drop_probability = 0.3;
  lossy_wheel.burn_in = 10;
  rows.push_back(TableRow{
      "lost_in_transit", lossy_wheel,
      [](const TableRun& run) {
        for (const WalkerEvent& e : run.events) {
          if (e.kind == net::HistoryEventKind::kDrop) return true;
        }
        return false;
      },
      [](const TableRun& run) {
        const auto& ev = run.events;
        for (size_t i = 0; i + 1 < ev.size(); ++i) {
          if (ev[i].kind != net::HistoryEventKind::kDrop) continue;
          EXPECT_EQ(ev[i + 1].kind, net::HistoryEventKind::kSend);
          EXPECT_EQ(ev[i + 1].from, ev[i].from) << "retransmit moved";
        }
        EXPECT_EQ(run.outcome.stats.restarts, 0u);
      }});
  // A crashed holder loses the token; the sink re-issues it and the walk
  // burns in again before it selects.
  TableWorld crashing_wheel;
  crashing_wheel.graph = Wheel;
  crashing_wheel.faults.scheduled_crashes = {{9, 1}, {9, 2}, {9, 3}};
  crashing_wheel.faults.crash_immune = {0};
  crashing_wheel.burn_in = 12;
  rows.push_back(TableRow{
      "crashed_holder_restarts", crashing_wheel,
      [](const TableRun& run) { return run.outcome.stats.restarts == 1; },
      [](const TableRun& run) {
        const auto& ev = run.events;
        size_t after_restart = 0;
        bool restarted = false;
        graph::NodeId holder = kTableSink;
        for (const WalkerEvent& e : ev) {
          if (e.kind == net::HistoryEventKind::kSend) {
            if (e.from != holder) {
              EXPECT_EQ(e.from, kTableSink);
              restarted = true;
            }
            if (restarted) ++after_restart;
          }
          if (e.kind == net::HistoryEventKind::kDeliver) holder = e.to;
        }
        EXPECT_TRUE(restarted);
        EXPECT_GE(after_restart, 12u + 1u) << "no fresh burn-in";
        EXPECT_EQ(run.outcome.visits.size(), 1u);
      }});
  // With one restart allowed, a second lost token retires the walker.
  TableWorld exhausting_wheel = crashing_wheel;
  exhausting_wheel.faults.scheduled_crashes = {
      {9, 1}, {9, 2}, {21, 3}, {21, 4}, {33, 5}};
  exhausting_wheel.burn_in = 40;
  exhausting_wheel.max_restarts = 1;
  rows.push_back(TableRow{
      "restart_budget_exhausted", exhausting_wheel,
      [](const TableRun& run) {
        return run.outcome.truncated && run.outcome.stats.restarts == 1 &&
               run.outcome.truncation.message() ==
                   "walker restart budget exhausted";
      },
      [](const TableRun& run) { EXPECT_TRUE(run.outcome.visits.empty()); }});
  // The hop budget retires the walker mid burn-in: exactly max_hops hops.
  TableWorld short_budget;
  short_budget.graph = Wheel;
  short_budget.burn_in = 20;
  short_budget.max_hops = 10;
  rows.push_back(TableRow{
      "hop_budget_exhausted", short_budget,
      [](const TableRun& run) { return run.outcome.truncated; },
      [](const TableRun& run) {
        EXPECT_EQ(run.outcome.truncation.code(),
                  util::StatusCode::kOutOfRange);
        EXPECT_EQ(run.outcome.stats.hops, 10u);
        size_t sends = 0;
        for (const WalkerEvent& e : run.events) {
          if (e.kind == net::HistoryEventKind::kSend) ++sends;
        }
        EXPECT_EQ(sends, 10u);
        EXPECT_TRUE(run.outcome.visits.empty());
      }});
  return rows;
}

class WalkerDecisionTableTest : public ::testing::TestWithParam<size_t> {};

TEST_P(WalkerDecisionTableTest, SyncWalkAndAsyncSessionTakeTheSameAction) {
  const TableRow row = DecisionTable()[GetParam()];
  bool reached = false;
  for (uint64_t seed = 1; seed <= 200 && !reached; ++seed) {
    const TableRun sync = RunSyncWalk(row.world, seed);
    if (!row.reached(sync)) continue;
    reached = true;
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const TableRun async = RunAsyncWalk(row.world, seed);
    EXPECT_EQ(sync.events, async.events)
        << "the executors' walker histories diverge";
    const Replay replay = ReplayHistory(sync.events);
    EXPECT_EQ(replay.skips, sync.outcome.stats.straggler_skips);
    EXPECT_EQ(replay.restarts, sync.outcome.stats.restarts);
    const Replay async_replay = ReplayHistory(async.events);
    EXPECT_EQ(async_replay.skips, replay.skips);
    EXPECT_EQ(async_replay.restarts, replay.restarts);
    row.expect(sync);
  }
  EXPECT_TRUE(reached) << "no seed reached the row's situation";
}

INSTANTIATE_TEST_SUITE_P(
    Rows, WalkerDecisionTableTest,
    ::testing::Range<size_t>(0, DecisionTable().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(DecisionTable()[info.param].name);
    });

}  // namespace
}  // namespace p2paqp
