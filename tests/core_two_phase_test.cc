// End-to-end tests of the adaptive two-phase engine on clustered networks.
#include "core/two_phase.h"

#include <cmath>

#include <gtest/gtest.h>

#include "net/fault.h"
#include "test_common.h"
#include "topology/power_law.h"
#include "util/statistics.h"

namespace p2paqp::core {
namespace {

using p2paqp::testing::MakeTestNetwork;
using p2paqp::testing::TestNetwork;
using p2paqp::testing::TestNetworkParams;

query::AggregateQuery CountQuery(double required_error = 0.1) {
  query::AggregateQuery q;
  q.op = query::AggregateOp::kCount;
  q.predicate = {1, 30};
  q.required_error = required_error;
  return q;
}

TEST(TwoPhaseEngineTest, CountMeetsRequiredErrorAcrossSeeds) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  EngineParams params;
  params.phase1_peers = 60;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  query::AggregateQuery q = CountQuery(0.1);
  // The paper's error metric is normalized against the total database size
  // and its figures report the average over five runs staying within the
  // requirement; per-run values should essentially always comply too.
  int violations = 0;
  util::RunningStat errors;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    util::Rng rng(seed);
    auto answer = engine.Execute(q, /*sink=*/0, rng);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    double err = p2paqp::testing::NormalizedCountError(
        tn.network, answer->estimate, q.predicate.lo, q.predicate.hi);
    errors.Add(err);
    if (err > q.required_error) ++violations;
  }
  // Sizing targets sigma ~= delta/sqrt(2), so individual runs exceed the
  // bound ~16% of the time; the paper's "always within" claim is about the
  // 5-run average, which we assert strictly.
  EXPECT_LE(violations, 2);
  EXPECT_LE(errors.mean(), q.required_error);
}

TEST(TwoPhaseEngineTest, SumMeetsRequiredError) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  EngineParams params;
  params.phase1_peers = 60;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  query::AggregateQuery q;
  q.op = query::AggregateOp::kSum;
  q.predicate = query::RangePredicate{1, 100};
  q.required_error = 0.1;
  int violations = 0;
  util::RunningStat errors;
  for (uint64_t seed = 10; seed < 15; ++seed) {
    util::Rng rng(seed);
    auto answer = engine.Execute(q, 0, rng);
    ASSERT_TRUE(answer.ok());
    double err = p2paqp::testing::NormalizedSumError(tn.network,
                                                     answer->estimate, 1, 100);
    errors.Add(err);
    if (err > 0.1) ++violations;
  }
  EXPECT_LE(violations, 2);
  EXPECT_LE(errors.mean(), 0.1);
}

TEST(TwoPhaseEngineTest, AvgIsAccurate) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  EngineParams params;
  params.phase1_peers = 60;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  query::AggregateQuery q;
  q.op = query::AggregateOp::kAvg;
  q.predicate = query::RangePredicate{1, 100};
  q.required_error = 0.1;
  double truth = static_cast<double>(tn.network.ExactSum(1, 100)) /
                 static_cast<double>(tn.network.ExactCount(1, 100));
  // AVG is normalized against itself (it does not scale with selectivity,
  // so self-normalization is *stricter* than the paper's N-normalized
  // metric; the paper does not evaluate AVG). Allow modest slack.
  util::RunningStat errors;
  for (uint64_t seed = 3; seed < 8; ++seed) {
    util::Rng rng(seed);
    auto answer = engine.Execute(q, 0, rng);
    ASSERT_TRUE(answer.ok());
    errors.Add(util::RelativeError(answer->estimate, truth));
  }
  EXPECT_LT(errors.mean(), 0.15);
}

TEST(TwoPhaseEngineTest, TighterAccuracyCostsMoreSamples) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  EngineParams params;
  params.phase1_peers = 60;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  auto loose = engine.Execute(CountQuery(0.25), 0, rng_a);
  auto tight = engine.Execute(CountQuery(0.05), 0, rng_b);
  ASSERT_TRUE(loose.ok());
  ASSERT_TRUE(tight.ok());
  EXPECT_GT(tight->phase2_peers, loose->phase2_peers);
  EXPECT_GT(tight->sample_tuples, loose->sample_tuples);
}

TEST(TwoPhaseEngineTest, AnswerCarriesCostVector) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  EngineParams params;
  params.phase1_peers = 40;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  util::Rng rng(11);
  auto answer = engine.Execute(CountQuery(), 0, rng);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->phase1_peers, 40u);
  EXPECT_GE(answer->phase2_peers, core::kMinPhase2Peers);
  EXPECT_EQ(answer->cost.peers_visited,
            answer->phase1_peers + answer->phase2_peers);
  // Walker hops = jump * selections + one burn-in per phase walk.
  EXPECT_EQ(answer->cost.walker_hops,
            tn.catalog.suggested_jump *
                    (answer->phase1_peers + answer->phase2_peers) +
                2 * tn.catalog.suggested_burn_in);
  EXPECT_GT(answer->cost.messages, answer->cost.walker_hops);
  EXPECT_GT(answer->cost.latency_ms, 0.0);
  EXPECT_EQ(answer->sample_tuples, answer->cost.tuples_sampled);
  EXPECT_FALSE(answer->ToString().empty());
}

TEST(TwoPhaseEngineTest, RespectsMaxPhase2Clamp) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  EngineParams params;
  params.phase1_peers = 30;
  params.max_phase2_peers = 35;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  util::Rng rng(13);
  auto answer = engine.Execute(CountQuery(0.01), 0, rng);  // Very tight.
  ASSERT_TRUE(answer.ok());
  EXPECT_LE(answer->phase2_peers, 35u);
}

TEST(TwoPhaseEngineTest, IncludePhase1ReusesObservations) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  EngineParams params;
  params.phase1_peers = 50;
  params.include_phase1_observations = true;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  query::AggregateQuery q = CountQuery(0.1);
  util::Rng rng(17);
  auto answer = engine.Execute(q, 0, rng);
  ASSERT_TRUE(answer.ok());
  EXPECT_LT(p2paqp::testing::NormalizedCountError(tn.network,
                                                  answer->estimate, 1, 30),
            0.15);
}

TEST(TwoPhaseEngineTest, RejectsDeadSink) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  TwoPhaseEngine engine(&tn.network, tn.catalog, EngineParams{});
  tn.network.SetAlive(0, false);
  util::Rng rng(19);
  EXPECT_FALSE(engine.Execute(CountQuery(), 0, rng).ok());
  EXPECT_FALSE(engine.Execute(CountQuery(), 99999, rng).ok());
}

TEST(TwoPhaseEngineTest, UniformDataNeedsFewPhase2Peers) {
  // CL = 1: every peer is a microcosm, CV error collapses, the plan stays
  // near the minimum.
  TestNetworkParams net_params;
  net_params.cluster_level = 1.0;
  TestNetwork tn = MakeTestNetwork(net_params);
  EngineParams params;
  params.phase1_peers = 60;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  util::Rng rng(23);
  auto uniform_answer = engine.Execute(CountQuery(0.1), 0, rng);
  ASSERT_TRUE(uniform_answer.ok());

  TestNetworkParams clustered_params;
  clustered_params.cluster_level = 0.0;
  TestNetwork tn2 = MakeTestNetwork(clustered_params);
  TwoPhaseEngine engine2(&tn2.network, tn2.catalog, params);
  util::Rng rng2(23);
  auto clustered_answer = engine2.Execute(CountQuery(0.1), 0, rng2);
  ASSERT_TRUE(clustered_answer.ok());

  EXPECT_LT(uniform_answer->phase2_peers, clustered_answer->phase2_peers);
}

TEST(TwoPhaseEngineTest, SelectivityOneIsEasy) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  EngineParams params;
  params.phase1_peers = 60;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  query::AggregateQuery q;
  q.op = query::AggregateOp::kCount;
  q.predicate = query::RangePredicate{1, 100};
  q.required_error = 0.1;
  util::Rng rng(29);
  auto answer = engine.Execute(q, 0, rng);
  ASSERT_TRUE(answer.ok());
  double truth = static_cast<double>(tn.network.TotalTuples());
  EXPECT_LT(util::RelativeError(answer->estimate, truth), 0.05);
}

TEST(TwoPhaseEngineTest, ExpressionSumOverTwoColumns) {
  // SUM(A*B) with B filled and correlated: the engine must estimate an
  // expression aggregate end-to-end, not just single-column sums.
  util::Rng rng(61);
  auto graph = topology::MakeBarabasiAlbert(800, 5, rng);
  ASSERT_TRUE(graph.ok());
  data::DatasetParams dataset;
  dataset.num_tuples = 40000;
  dataset.fill_b = true;
  dataset.b_correlation = 0.5;
  auto table = data::GenerateDataset(dataset, rng);
  ASSERT_TRUE(table.ok());
  double truth = 0.0;
  for (const data::Tuple& t : *table) {
    truth += static_cast<double>(t.value) * static_cast<double>(t.b);
  }
  auto dbs = data::PartitionAcrossPeers(*table, *graph,
                                        data::PartitionParams{}, rng);
  ASSERT_TRUE(dbs.ok());
  auto network = net::SimulatedNetwork::Make(std::move(*graph),
                                             std::move(*dbs),
                                             net::NetworkParams{}, 62);
  ASSERT_TRUE(network.ok());
  core::SystemCatalog catalog = core::MakeCatalog(network->graph(), 10, 40);
  EngineParams params;
  params.phase1_peers = 60;
  params.include_phase1_observations = true;
  TwoPhaseEngine engine(&*network, catalog, params);
  query::AggregateQuery q;
  q.op = query::AggregateOp::kSum;
  q.expr = query::Expression::kATimesB;
  q.predicate = query::RangePredicate{1, 100};
  q.required_error = 0.1;
  util::Rng query_rng(63);
  auto answer = engine.Execute(q, 0, query_rng);
  ASSERT_TRUE(answer.ok());
  EXPECT_LT(util::RelativeError(answer->estimate, truth), 0.12);
}

TEST(TwoPhaseEngineTest, BlockSamplingCostsMorePeersOnClusteredData) {
  // Sec. 4: "If the data in the disk blocks are highly correlated, it will
  // simply mean that the number of peers to be visited will increase, as
  // determined by our cross-validation approach."
  // Globally shuffled content (each peer sees the whole value domain) laid
  // out in a *sorted* local table — the clustered-index physical layout
  // where whole blocks are value runs. Tuple-level sampling is unaffected;
  // block-level sampling gets correlated blocks.
  TestNetworkParams net_params;
  net_params.cluster_level = 1.0;
  net_params.tuples_per_peer = 100;
  net_params.sort_local_tables = true;
  TestNetwork tn = MakeTestNetwork(net_params);
  EngineParams uniform_params;
  uniform_params.phase1_peers = 60;
  EngineParams block_params = uniform_params;
  block_params.subsample_mode = query::SubSampleMode::kBlockLevel;
  block_params.block_size = 25;  // 25-tuple blocks: one value run each.
  TwoPhaseEngine uniform_engine(&tn.network, tn.catalog, uniform_params);
  TwoPhaseEngine block_engine(&tn.network, tn.catalog, block_params);
  query::AggregateQuery q = CountQuery(0.1);
  double uniform_m2 = 0.0;
  double block_m2 = 0.0;
  for (uint64_t seed = 80; seed < 85; ++seed) {
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    auto ua = uniform_engine.Execute(q, 0, rng_a);
    auto ba = block_engine.Execute(q, 0, rng_b);
    ASSERT_TRUE(ua.ok());
    ASSERT_TRUE(ba.ok());
    uniform_m2 += static_cast<double>(ua->phase2_peers);
    block_m2 += static_cast<double>(ba->phase2_peers);
  }
  EXPECT_GT(block_m2, uniform_m2);
}

TEST(TwoPhaseEngineTest, AnswerNormalizationTightensLowSelectivityPlans) {
  // Under kTotalAggregate a 5%-selectivity COUNT gets a loose absolute
  // target (0.1 * N); under kQueryAnswer the target is 0.1 * y — twenty
  // times tighter in absolute terms — so the phase-II plan must grow.
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  query::AggregateQuery q;
  q.op = query::AggregateOp::kCount;
  q.predicate = {1, 3};  // Small prefix: low selectivity.
  q.required_error = 0.1;
  EngineParams total_params;
  total_params.phase1_peers = 60;
  EngineParams answer_params = total_params;
  answer_params.normalization = ErrorNormalization::kQueryAnswer;
  TwoPhaseEngine total_engine(&tn.network, tn.catalog, total_params);
  TwoPhaseEngine answer_engine(&tn.network, tn.catalog, answer_params);
  util::Rng rng_a(71);
  util::Rng rng_b(71);
  auto total_answer = total_engine.Execute(q, 0, rng_a);
  auto answer_answer = answer_engine.Execute(q, 0, rng_b);
  ASSERT_TRUE(total_answer.ok());
  ASSERT_TRUE(answer_answer.ok());
  EXPECT_GT(answer_answer->phase2_peers, 2 * total_answer->phase2_peers);
  // And the answer-relative run should indeed deliver a tighter relative
  // error on average (single-seed check kept loose).
  double truth = static_cast<double>(
      tn.network.ExactCount(q.predicate.lo, q.predicate.hi));
  ASSERT_GT(truth, 0.0);
  EXPECT_LT(util::RelativeError(answer_answer->estimate, truth), 0.3);
}

TEST(TwoPhaseEngineTest, DegradesGracefullyUnderReplyLoss) {
  // 20% message loss with retransmission disabled: about a fifth of the
  // (y(p), deg(p)) replies never reach the sink. The engine must reweight
  // over the survivors, widen the CI, and flag the answer as degraded —
  // not fail, and not return garbage.
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  net::FaultPlan plan;
  plan.drop_probability = 0.2;
  tn.network.InstallFaultPlan(plan, 5);
  EngineParams params;
  params.phase1_peers = 60;
  params.reply_retransmits = 0;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  util::Rng rng(31);
  auto answer = engine.Execute(CountQuery(0.1), 0, rng);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->degraded);
  EXPECT_GT(answer->observations_lost, 0u);
  EXPECT_TRUE(std::isfinite(answer->estimate));
  EXPECT_GT(answer->estimate, 0.0);
  EXPECT_GT(answer->ci_half_width_95, 0.0);
  EXPECT_GT(answer->achieved_error, 0.0);
  EXPECT_NE(answer->ToString().find("DEGRADED"), std::string::npos);
  // MCAR reply loss keeps the HT estimator unbiased: the reweighted
  // estimate still lands near the truth (loose single-seed bound).
  EXPECT_LT(p2paqp::testing::NormalizedCountError(tn.network,
                                                  answer->estimate, 1, 30),
            0.2);
}

TEST(TwoPhaseEngineTest, RetransmitsRecoverMostReplies) {
  // Same 20% loss, but with the default 2 retransmits the per-observation
  // loss collapses to 0.2^3 = 0.8%; the answer is near-complete.
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  net::FaultPlan plan;
  plan.drop_probability = 0.2;
  tn.network.InstallFaultPlan(plan, 5);
  EngineParams params;
  params.phase1_peers = 60;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  util::RunningStat errors;
  for (uint64_t seed = 31; seed < 36; ++seed) {
    util::Rng rng(seed);
    auto answer = engine.Execute(CountQuery(0.1), 0, rng);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_LE(answer->observations_lost, 3u);
    errors.Add(p2paqp::testing::NormalizedCountError(tn.network,
                                                     answer->estimate, 1, 30));
  }
  EXPECT_LT(errors.mean(), 0.12);
}

TEST(TwoPhaseEngineTest, FailsBelowObservationQuorum) {
  // 95% loss with no retransmits: ~5% of replies arrive, far below the
  // default 25% quorum. A best-effort answer from that little data would
  // be statistically meaningless — the engine must refuse.
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  net::FaultPlan plan;
  plan.drop_probability = 0.95;
  tn.network.InstallFaultPlan(plan, 9);
  EngineParams params;
  params.phase1_peers = 60;
  params.reply_retransmits = 0;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  util::Rng rng(37);
  auto answer = engine.Execute(CountQuery(0.1), 0, rng);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), util::StatusCode::kUnavailable);
}

// Deterministic quorum edge cases need exact control over how many
// observations can possibly arrive; a scripted sampler returns a fixed
// visit list (some of which may point at dead peers, which the engine
// skips) so the delivered count is known in advance.
class ScriptedSampler : public sampling::PeerSampler {
 public:
  ScriptedSampler(const net::SimulatedNetwork* network,
                  std::vector<graph::NodeId> peers)
      : network_(network), peers_(std::move(peers)) {}

  util::Result<std::vector<sampling::PeerVisit>> SamplePeers(
      graph::NodeId, size_t, util::Rng&) override {
    std::vector<sampling::PeerVisit> visits;
    visits.reserve(peers_.size());
    for (graph::NodeId peer : peers_) {
      visits.push_back(sampling::PeerVisit{
          peer, network_->graph().degree(peer)});
    }
    return visits;
  }

  double StationaryWeight(graph::NodeId node) const override {
    return static_cast<double>(network_->graph().degree(node));
  }

  std::string name() const override { return "scripted"; }

 private:
  const net::SimulatedNetwork* network_;
  std::vector<graph::NodeId> peers_;
};

// Requesting 8 observations at a 50% quorum (= 4 after ceil): exactly 4
// deliverable observations is a pass, not a failure — the quorum is
// inclusive.
TEST(TwoPhaseEngineTest, CollectionSucceedsExactlyAtQuorum) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  std::vector<graph::NodeId> script = {10, 11, 12, 13, 14, 15, 16, 17};
  for (graph::NodeId dead : {14, 15, 16, 17}) {
    tn.network.SetAlive(dead, false);
  }
  EngineParams params;
  params.min_observation_quorum = 0.5;
  TwoPhaseEngine engine(
      &tn.network, tn.catalog, params,
      std::make_unique<ScriptedSampler>(&tn.network, script),
      tn.catalog.total_degree_weight());
  util::Rng rng(1);
  TwoPhaseEngine::CollectionStats stats;
  auto obs = engine.CollectObservations(CountQuery(0.1), /*sink=*/0,
                                        /*count=*/8, rng, &stats);
  ASSERT_TRUE(obs.ok()) << obs.status().ToString();
  EXPECT_EQ(obs->size(), 4u);
  EXPECT_EQ(stats.requested, 8u);
  EXPECT_EQ(stats.delivered, 4u);
  EXPECT_EQ(stats.lost, 4u);
}

// One observation below the quorum is a hard Unavailable, not a degraded
// answer.
TEST(TwoPhaseEngineTest, CollectionFailsOneBelowQuorum) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  std::vector<graph::NodeId> script = {10, 11, 12, 13, 14, 15, 16, 17};
  for (graph::NodeId dead : {13, 14, 15, 16, 17}) {
    tn.network.SetAlive(dead, false);
  }
  EngineParams params;
  params.min_observation_quorum = 0.5;
  TwoPhaseEngine engine(
      &tn.network, tn.catalog, params,
      std::make_unique<ScriptedSampler>(&tn.network, script),
      tn.catalog.total_degree_weight());
  util::Rng rng(1);
  auto obs = engine.CollectObservations(CountQuery(0.1), /*sink=*/0,
                                        /*count=*/8, rng);
  ASSERT_FALSE(obs.ok());
  EXPECT_EQ(obs.status().code(), util::StatusCode::kUnavailable);
}

// All replies lost (every scripted peer departed): Unavailable even with a
// permissive quorum, because zero observations can never satisfy a positive
// request.
TEST(TwoPhaseEngineTest, CollectionFailsWhenAllRepliesLost) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  std::vector<graph::NodeId> script = {10, 11, 12, 13};
  for (graph::NodeId dead : script) tn.network.SetAlive(dead, false);
  EngineParams params;
  params.min_observation_quorum = 0.25;
  TwoPhaseEngine engine(
      &tn.network, tn.catalog, params,
      std::make_unique<ScriptedSampler>(&tn.network, script),
      tn.catalog.total_degree_weight());
  util::Rng rng(1);
  auto obs = engine.CollectObservations(CountQuery(0.1), /*sink=*/0,
                                        /*count=*/4, rng);
  ASSERT_FALSE(obs.ok());
  EXPECT_EQ(obs.status().code(), util::StatusCode::kUnavailable);
}

// A 100% quorum on a fault-free network is the boundary case from the
// other side: every observation arrives, delivered == requested == quorum.
TEST(TwoPhaseEngineTest, FullQuorumPassesWhenNothingIsLost) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  EngineParams params;
  params.phase1_peers = 30;
  params.min_observation_quorum = 1.0;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  util::Rng rng(17);
  auto answer = engine.Execute(CountQuery(0.1), 0, rng);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_FALSE(answer->degraded);
  EXPECT_EQ(answer->observations_lost, 0u);
}

TEST(TwoPhaseEngineTest, DisabledFaultPlanIsBitIdentical) {
  // Acceptance gate for the fault subsystem: installing an all-zero
  // FaultPlan must leave every result bit-identical to a network that
  // never heard of fault injection.
  TestNetwork plain = MakeTestNetwork(TestNetworkParams{});
  TestNetwork planned = MakeTestNetwork(TestNetworkParams{});
  planned.network.InstallFaultPlan(net::FaultPlan{}, 12345);
  EngineParams params;
  params.phase1_peers = 60;
  TwoPhaseEngine engine_a(&plain.network, plain.catalog, params);
  TwoPhaseEngine engine_b(&planned.network, planned.catalog, params);
  util::Rng rng_a(41);
  util::Rng rng_b(41);
  auto a = engine_a.Execute(CountQuery(0.1), 0, rng_a);
  auto b = engine_b.Execute(CountQuery(0.1), 0, rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->estimate, b->estimate);  // Bitwise, not approximate.
  EXPECT_EQ(a->ci_half_width_95, b->ci_half_width_95);
  EXPECT_EQ(a->phase2_peers, b->phase2_peers);
  EXPECT_EQ(a->cost.messages, b->cost.messages);
  EXPECT_EQ(a->cost.latency_ms, b->cost.latency_ms);
  EXPECT_FALSE(a->degraded);
  EXPECT_FALSE(b->degraded);
  EXPECT_EQ(a->ToString(), b->ToString());
}

// Parameterized sweep over the paper's clustering and skew axes: the engine
// must meet the error bound everywhere (Figs. 8 and 10 at test scale).
class TwoPhaseSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(TwoPhaseSweep, MeetsErrorBoundAcrossDataShapes) {
  auto [cluster_level, skew] = GetParam();
  TestNetworkParams net_params;
  net_params.cluster_level = cluster_level;
  net_params.skew = skew;
  TestNetwork tn = MakeTestNetwork(net_params);
  EngineParams params;
  params.phase1_peers = 60;
  TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  query::AggregateQuery q = CountQuery(0.15);
  int violations = 0;
  for (uint64_t seed = 100; seed < 103; ++seed) {
    util::Rng rng(seed);
    auto answer = engine.Execute(q, 0, rng);
    ASSERT_TRUE(answer.ok());
    if (p2paqp::testing::NormalizedCountError(tn.network, answer->estimate,
                                              1, 30) > 0.15) {
      ++violations;
    }
  }
  EXPECT_LE(violations, 1);
}

INSTANTIATE_TEST_SUITE_P(
    DataShapes, TwoPhaseSweep,
    ::testing::Combine(::testing::Values(0.0, 0.5, 1.0),
                       ::testing::Values(0.2, 1.0, 2.0)));

}  // namespace
}  // namespace p2paqp::core
