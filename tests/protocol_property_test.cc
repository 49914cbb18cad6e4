// Property-based protocol chaos harness (see docs/TESTING.md, "Property
// layer"): generated plans must pass every invariant oracle and the
// black-box history checker; seeded bugs must be caught AND shrink to tiny
// reproducible counterexamples; replay must be bit-identical.
//
// Quick tier runs P2PAQP_PROP_QUICK_PLANS generated plans; the scheduled
// long-fuzz CI job sets P2PAQP_PROP_MODE=long for a 10x budget.
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/churn.h"
#include "net/history.h"
#include "net/network.h"
#include "topology/factory.h"
#include "util/bug_injection.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "verify/protocol/chaos_plan.h"
#include "verify/protocol/history_checker.h"
#include "verify/protocol/runner.h"
#include "verify/protocol/shrink.h"

namespace p2paqp {
namespace {

using verify::ChaosEngineKind;
using verify::ChaosPlan;
using verify::ChaosRunReport;
using verify::GenerateChaosPlan;
using verify::ParseChaosPlan;
using verify::PlanComplexity;
using verify::RunChaosPlan;
using verify::SerializeChaosPlan;
using verify::ShrinkChaosPlan;
using verify::ShrinkOutcome;

bool LongMode() {
  const char* mode = std::getenv("P2PAQP_PROP_MODE");
  return mode != nullptr && std::strcmp(mode, "long") == 0;
}

size_t PlanBudget() { return LongMode() ? 2000 : 200; }

std::string FailureDump(const ChaosRunReport& report) {
  std::string out = "plan: " + SerializeChaosPlan(report.plan);
  for (const std::string& v : report.violations) out += "\n  " + v;
  return out;
}

// --- Generation & serialization -------------------------------------------

TEST(ChaosPlanTest, SerializationRoundTripsExactly) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    ChaosPlan plan = GenerateChaosPlan(seed);
    std::string line = SerializeChaosPlan(plan);
    auto parsed = ParseChaosPlan(line);
    ASSERT_TRUE(parsed.ok()) << line << " : " << parsed.status().message();
    EXPECT_EQ(SerializeChaosPlan(*parsed), line);
    EXPECT_EQ(parsed->seed, plan.seed);
    EXPECT_EQ(parsed->scheduled_crashes, plan.scheduled_crashes);
    EXPECT_EQ(parsed->behavior_mask, plan.behavior_mask);
  }
}

TEST(ChaosPlanTest, GenerationIsDeterministic) {
  for (uint64_t seed : {1ULL, 77ULL, 0xDEADBEEFULL}) {
    EXPECT_EQ(SerializeChaosPlan(GenerateChaosPlan(seed)),
              SerializeChaosPlan(GenerateChaosPlan(seed)));
  }
}

TEST(ChaosPlanTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseChaosPlan("").ok());
  EXPECT_FALSE(ParseChaosPlan("seed=banana").ok());
  EXPECT_FALSE(ParseChaosPlan("seed=1 peers=0").ok());
}

TEST(ChaosPlanTest, GeneratorCoversEveryEngineAndStressor) {
  std::set<uint32_t> engines;
  bool saw_faults = false, saw_churn = false, saw_adversary = false;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    ChaosPlan plan = GenerateChaosPlan(seed);
    engines.insert(static_cast<uint32_t>(plan.engine));
    saw_faults |= plan.faults_enabled();
    saw_churn |= plan.churn_enabled();
    saw_adversary |= plan.adversary_enabled();
  }
  EXPECT_EQ(engines.size(), 4u);
  EXPECT_TRUE(saw_faults);
  EXPECT_TRUE(saw_churn);
  EXPECT_TRUE(saw_adversary);
}

// --- The main property: generated plans pass every oracle -----------------

TEST(ProtocolPropertyTest, GeneratedPlansPassAllOracles) {
  const size_t budget = PlanBudget();
  // Each plan is an independent serial simulation; the sweep itself is safe
  // to parallelize (runner state is all run-local).
  std::vector<ChaosRunReport> reports = util::ParallelMap(
      budget, [](size_t i) { return RunChaosPlan(GenerateChaosPlan(i + 1)); });
  size_t failed_queries = 0;
  for (const ChaosRunReport& report : reports) {
    EXPECT_TRUE(report.violations.empty()) << FailureDump(report);
    failed_queries += report.answers_failed;
  }
  // Sanity: the sweep actually stresses the protocol — some queries must
  // fail under faults (else the fault knobs are dead) while the oracles
  // still hold.
  EXPECT_GT(failed_queries, 0u);
}

TEST(ProtocolPropertyTest, ReplayIsBitIdentical) {
  // Digest equality across (a) a re-run in the same process and (b) a run
  // inside a parallel region vs. a serial one: the runner must be a pure
  // function of the plan, independent of P2PAQP_THREADS.
  std::vector<uint64_t> seeds = {3, 8, 15, 24, 55, 101};
  std::vector<ChaosRunReport> parallel_reports = util::ParallelMap(
      seeds.size(),
      [&](size_t i) { return RunChaosPlan(GenerateChaosPlan(seeds[i])); });
  for (size_t i = 0; i < seeds.size(); ++i) {
    ChaosRunReport serial = RunChaosPlan(GenerateChaosPlan(seeds[i]));
    EXPECT_EQ(serial.digest, parallel_reports[i].digest)
        << "seed " << seeds[i] << " digest differs across execution contexts";
    EXPECT_EQ(serial.history_events, parallel_reports[i].history_events);
  }
}

// --- Seeded-bug detection + shrinking -------------------------------------

// A replay-heavy adversary plan on the synchronous engine: with reply dedup
// disabled the sink counts duplicated replies, which the history checker
// sees as a tag accepted twice.
ChaosPlan DedupBugPlan() {
  ChaosPlan plan;
  plan.seed = 4242;
  plan.num_peers = 64;
  plan.avg_degree = 6;
  plan.tuples_per_peer = 20;
  plan.engine = ChaosEngineKind::kTwoPhase;
  plan.num_queries = 2;
  plan.num_batches = 2;
  plan.phase1_peers = 16;
  plan.quorum_pct = 25;
  plan.retransmits = 2;
  plan.drop_pm = 50;
  plan.churn_leave_pm = 20;
  plan.churn_rejoin_pm = 300;
  // Two inter-batch epochs: one left the world untouched on the current
  // churn stream (the test below asserts that churn fires).
  plan.churn_steps = 2;
  plan.adversary_pm = 400;
  plan.behavior_mask = 1u << 5;  // kReplay.
  return plan;
}

TEST(SeededBugTest, DisabledReplyDedupIsCaughtAndShrinks) {
  util::ScopedInjectedBug armed(util::InjectedBug::kDisableReplyDedup);
  ChaosPlan plan = DedupBugPlan();
  ChaosRunReport report = RunChaosPlan(plan);
  ASSERT_TRUE(report.failed())
      << "armed dedup bug not detected: " << SerializeChaosPlan(plan);
  EXPECT_GT(report.churn_transitions, 0u) << "the plan's churn never fired";
  bool dedup_violation = false;
  for (const std::string& v : report.violations) {
    dedup_violation |= v.find("accepted more than once") != std::string::npos;
  }
  EXPECT_TRUE(dedup_violation) << FailureDump(report);

  // Shrink to a minimal still-failing counterexample (the bug stays armed
  // through the predicate runs).
  ShrinkOutcome shrunk = ShrinkChaosPlan(plan);
  EXPECT_LE(PlanComplexity(shrunk.plan), 5u)
      << "shrunk counterexample too complex: "
      << SerializeChaosPlan(shrunk.plan);
  EXPECT_LT(PlanComplexity(shrunk.plan), PlanComplexity(plan));

  // The one-line form reproduces the identical failing run.
  std::string line = SerializeChaosPlan(shrunk.plan);
  auto parsed = ParseChaosPlan(line);
  ASSERT_TRUE(parsed.ok());
  ChaosRunReport replay1 = RunChaosPlan(*parsed);
  ChaosRunReport replay2 = RunChaosPlan(*parsed);
  EXPECT_TRUE(replay1.failed()) << line;
  EXPECT_EQ(replay1.digest, replay2.digest);
  EXPECT_EQ(replay1.violations, replay2.violations);
}

TEST(SeededBugTest, SkippedQuorumCheckIsCaught) {
  // Loss so heavy the engine must refuse the answer; with the quorum check
  // skipped it answers anyway, and the per-answer oracle flags the
  // below-quorum delivery count.
  ChaosPlan plan;
  plan.seed = 9001;
  plan.engine = ChaosEngineKind::kTwoPhase;
  plan.num_queries = 2;
  plan.phase1_peers = 16;
  plan.quorum_pct = 40;
  plan.retransmits = 0;
  plan.drop_pm = 700;

  ChaosRunReport honest = RunChaosPlan(plan);
  EXPECT_TRUE(honest.violations.empty()) << FailureDump(honest);

  util::ScopedInjectedBug armed(util::InjectedBug::kSkipQuorumCheck);
  ChaosRunReport buggy = RunChaosPlan(plan);
  ASSERT_TRUE(buggy.failed()) << "armed quorum bug not detected";
  bool quorum_violation = false;
  for (const std::string& v : buggy.violations) {
    quorum_violation |= v.find("below observation quorum") != std::string::npos;
  }
  EXPECT_TRUE(quorum_violation) << FailureDump(buggy);
}

TEST(SeededBugTest, DoubleCountedFrameHitsAreCaught) {
  // Two scheduler batches over a reused frame: batch 2's legitimate hits
  // exceed half the carry, so double counting breaks hits <= carry.
  ChaosPlan plan;
  plan.seed = 512;
  plan.engine = ChaosEngineKind::kScheduler;
  plan.num_queries = 3;
  plan.num_batches = 2;
  plan.phase1_peers = 24;
  plan.frame_ttl = 4;
  plan.reuse_frame = true;

  ChaosRunReport honest = RunChaosPlan(plan);
  EXPECT_TRUE(honest.violations.empty()) << FailureDump(honest);

  util::ScopedInjectedBug armed(util::InjectedBug::kDoubleCountFrameHits);
  ChaosRunReport buggy = RunChaosPlan(plan);
  ASSERT_TRUE(buggy.failed()) << "armed frame-hit bug not detected";
  bool frame_violation = false;
  for (const std::string& v : buggy.violations) {
    frame_violation |= v.find("frame hits exceed") != std::string::npos;
  }
  EXPECT_TRUE(frame_violation) << FailureDump(buggy);
}

TEST(SeededBugTest, ShrinkIsDeterministic) {
  util::ScopedInjectedBug armed(util::InjectedBug::kDisableReplyDedup);
  ChaosPlan plan = DedupBugPlan();
  ShrinkOutcome a = ShrinkChaosPlan(plan);
  ShrinkOutcome b = ShrinkChaosPlan(plan);
  EXPECT_EQ(SerializeChaosPlan(a.plan), SerializeChaosPlan(b.plan));
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.accepted, b.accepted);
}

// --- Satellite regressions -------------------------------------------------

// Death-and-rebirth during an in-flight async walk: a reborn peer must never
// resume the walker session that died with its previous incarnation. The
// history checker's walker-continuity rule flags any regression black-box.
TEST(ProtocolRegressionTest, AsyncChurnRejoinCannotResumeStaleSession) {
  ChaosPlan plan;
  plan.seed = 777;
  plan.num_peers = 96;
  plan.engine = ChaosEngineKind::kAsync;
  plan.num_queries = 3;
  plan.num_batches = 2;
  plan.phase1_peers = 16;
  plan.retransmits = 2;
  plan.crash_pm = 12;
  plan.churn_leave_pm = 150;   // Heavy mid-query churn...
  plan.churn_rejoin_pm = 600;  // ...with fast rebirth.
  plan.churn_steps = 2;
  ChaosRunReport report = RunChaosPlan(plan);
  EXPECT_TRUE(report.violations.empty()) << FailureDump(report);
  EXPECT_GT(report.history_events, 0u);
  // The rule is only exercised if a token holder actually died and was
  // reborn while walks were still in flight.
  EXPECT_GT(report.churn_transitions, 0u);
  EXPECT_GT(report.holder_rebirths, 0u);
}

TEST(ProtocolRegressionTest, IncarnationBumpsOnRebirthOnly) {
  util::Rng rng(7);
  topology::TopologyConfig config;
  config.kind = topology::TopologyKind::kErdosRenyi;
  config.num_nodes = 16;
  config.num_edges = 48;
  auto topo = topology::MakeTopology(config, rng);
  ASSERT_TRUE(topo.ok());
  auto network = net::SimulatedNetwork::Make(std::move(topo->graph), {},
                                             net::NetworkParams{}, 11);
  ASSERT_TRUE(network.ok());
  uint64_t base = network->peer(3).incarnation();
  network->SetAlive(3, true);  // Already alive: no bump.
  EXPECT_EQ(network->peer(3).incarnation(), base);
  network->SetAlive(3, false);
  EXPECT_EQ(network->peer(3).incarnation(), base);
  network->SetAlive(3, true);  // Rebirth: exactly one bump.
  EXPECT_EQ(network->peer(3).incarnation(), base + 1);
}

// The reply-causality rule: a Pong or QueryHit may only leave a peer the
// paired request reached in its current incarnation. Hand-built histories
// pin the rule from both sides.
TEST(ProtocolRegressionTest, ReplyWithoutRequestIsFlagged) {
  net::HistoryRecorder history;
  // Peer 5 emits a QueryHit although no kQuery was ever delivered to it.
  history.Record(net::HistoryEventKind::kSend, net::MessageType::kQueryHit, 5,
                 0);
  history.Record(net::HistoryEventKind::kDeliver, net::MessageType::kQueryHit,
                 5, 0);
  auto violations = verify::CheckHistory(history.events());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("no query reached"), std::string::npos);
}

TEST(ProtocolRegressionTest, ReplyAfterRebirthIsFlagged) {
  net::HistoryRecorder history;
  // Peer 7 hears a Ping, dies, rejoins — its pre-death license to Pong died
  // with the old incarnation.
  history.Record(net::HistoryEventKind::kSend, net::MessageType::kPing, 0, 7);
  history.Record(net::HistoryEventKind::kDeliver, net::MessageType::kPing, 0,
                 7);
  history.Record(net::HistoryEventKind::kPeerDown, net::MessageType::kPing, 7,
                 7);
  history.Record(net::HistoryEventKind::kPeerUp, net::MessageType::kPing, 7,
                 7);
  history.Record(net::HistoryEventKind::kSend, net::MessageType::kPong, 7, 0);
  history.Record(net::HistoryEventKind::kDeliver, net::MessageType::kPong, 7,
                 0);
  auto violations = verify::CheckHistory(history.events());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("no ping reached"), std::string::npos);
}

TEST(ProtocolRegressionTest, RequestThenReplyIsClean) {
  net::HistoryRecorder history;
  history.Record(net::HistoryEventKind::kSend, net::MessageType::kQuery, 0, 5);
  history.Record(net::HistoryEventKind::kDeliver, net::MessageType::kQuery, 0,
                 5);
  history.Record(net::HistoryEventKind::kSend, net::MessageType::kQueryHit, 5,
                 0);
  history.Record(net::HistoryEventKind::kDeliver, net::MessageType::kQueryHit,
                 5, 0);
  auto violations = verify::CheckHistory(history.events());
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(ProtocolRegressionTest, TransportConservesUnderFaultsAndRecordsHistory) {
  util::Rng rng(19);
  topology::TopologyConfig config;
  config.kind = topology::TopologyKind::kErdosRenyi;
  config.num_nodes = 32;
  config.num_edges = 128;
  auto topo = topology::MakeTopology(config, rng);
  ASSERT_TRUE(topo.ok());
  auto network = net::SimulatedNetwork::Make(std::move(topo->graph), {},
                                             net::NetworkParams{}, 23);
  ASSERT_TRUE(network.ok());
  net::HistoryRecorder history;
  network->set_history(&history);
  net::FaultPlan faults;
  faults.drop_probability = 0.3;
  faults.crash_probability = 0.05;
  faults.crash_immune = {0};
  network->InstallFaultPlan(faults, 31);
  for (graph::NodeId n = 0; n < 32; ++n) {
    for (graph::NodeId m : network->graph().neighbors(n)) {
      (void)network->SendAlongEdge(net::MessageType::kWalker, n, m);
      (void)network->SendDirect(net::MessageType::kAggregateReply, m, 0, 16);
    }
  }
  network->VerifyCostConservation();
  const net::CostSnapshot& cost = network->cost_snapshot();
  EXPECT_EQ(history.Count(net::HistoryEventKind::kSend), cost.messages);
  EXPECT_EQ(history.Count(net::HistoryEventKind::kDeliver),
            cost.messages_delivered);
  EXPECT_EQ(history.Count(net::HistoryEventKind::kDrop),
            cost.messages_dropped);
  EXPECT_GT(cost.messages_dropped, 0u);  // Faults actually fired.
  auto violations = verify::CheckHistory(history.events());
  EXPECT_TRUE(violations.empty()) << violations.front();
  network->set_history(nullptr);
}

}  // namespace
}  // namespace p2paqp
