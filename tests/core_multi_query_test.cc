// Tests for the multi-query scheduler: batch execution over a shared sample
// frame, frame reuse/top-up/epoch-expiry, the walker-batching and
// frame-reuse ablation switches, per-query failure isolation, and the
// retransmit backoff policy on the batched reply path.
#include <gtest/gtest.h>

#include <vector>

#include "core/multi_query.h"
#include "net/fault.h"
#include "net/history.h"
#include "test_common.h"

namespace p2paqp::core {
namespace {

using p2paqp::testing::MakeTestNetwork;
using p2paqp::testing::TestNetwork;
using p2paqp::testing::TestNetworkParams;

query::AggregateQuery CountQuery(int hi) {
  query::AggregateQuery q;
  q.op = query::AggregateOp::kCount;
  q.predicate = {1, hi};
  q.required_error = 0.15;
  return q;
}

std::vector<query::AggregateQuery> QueryMix() {
  return {CountQuery(20), CountQuery(40), CountQuery(60), CountQuery(80)};
}

SchedulerParams DefaultParams(const TestNetwork& tn) {
  SchedulerParams params;
  params.engine.phase1_peers = 40;
  params.walk.jump = tn.catalog.suggested_jump;
  params.walk.burn_in = tn.catalog.suggested_burn_in;
  return params;
}

TEST(QuerySchedulerTest, AnswersEveryQueryInBatch) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  FreshnessCache cache(/*ttl_epochs=*/10, /*max_entries=*/1 << 12);
  QueryScheduler scheduler(&tn.network, tn.catalog, DefaultParams(tn),
                           &cache);
  std::vector<query::AggregateQuery> queries = QueryMix();
  util::Rng rng(7);
  BatchResult result = scheduler.ExecuteBatch(queries, 0, rng);
  ASSERT_EQ(result.answers.size(), queries.size());
  for (size_t i = 0; i < result.answers.size(); ++i) {
    ASSERT_TRUE(result.answers[i].ok()) << "query " << i;
    EXPECT_GT(result.answers[i]->estimate, 0.0);
    EXPECT_GT(result.answers[i]->phase1_peers, 0u);
  }
  // The batch paid for real network work, attributed batch-wide.
  EXPECT_GT(result.cost.messages, 0u);
  EXPECT_GT(result.cost.peers_visited, 0u);
  // Estimates are in a sane range (within a factor 2 of truth — the
  // statistical tier checks tight unbiasedness, this is a smoke bound).
  double truth = 0.0;
  for (graph::NodeId p = 0; p < tn.network.num_peers(); ++p) {
    for (const auto& t : tn.network.peer(p).database().tuples()) {
      if (t.value >= 1 && t.value <= 40) truth += 1.0;
    }
  }
  double est = result.answers[1]->estimate;
  EXPECT_GT(est, truth * 0.5);
  EXPECT_LT(est, truth * 2.0);
}

TEST(QuerySchedulerTest, SecondBatchReusesFrame) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  FreshnessCache cache(10, 1 << 12);
  QueryScheduler scheduler(&tn.network, tn.catalog, DefaultParams(tn),
                           &cache);
  std::vector<query::AggregateQuery> queries = QueryMix();
  util::Rng rng(8);
  BatchResult first = scheduler.ExecuteBatch(queries, 0, rng);
  ASSERT_TRUE(first.answers[0].ok());
  EXPECT_EQ(first.frame.frame_hits, 0u);  // Cold start: all walked.
  EXPECT_GT(first.frame.frame_misses, 0u);
  size_t frame_after_first = scheduler.frame_size();
  EXPECT_GT(frame_after_first, 0u);

  BatchResult second = scheduler.ExecuteBatch(queries, 0, rng);
  ASSERT_TRUE(second.answers[0].ok());
  EXPECT_GT(second.frame.frame_hits, 0u);  // Warm: selections reused.
  // Walking only happens if the second batch needed a deeper frame.
  EXPECT_LE(second.frame.frame_misses, first.frame.frame_misses);
  // Reuse means the warm batch ships fewer bytes than the cold one.
  EXPECT_LT(second.cost.bytes_shipped, first.cost.bytes_shipped);
}

TEST(QuerySchedulerTest, EpochExpiryForcesRebuild) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  FreshnessCache cache(10, 1 << 12);
  SchedulerParams params = DefaultParams(tn);
  params.frame_ttl_epochs = 2;
  QueryScheduler scheduler(&tn.network, tn.catalog, params, &cache);
  std::vector<query::AggregateQuery> queries = QueryMix();
  util::Rng rng(9);
  BatchResult first = scheduler.ExecuteBatch(queries, 0, rng);
  ASSERT_TRUE(first.answers[0].ok());
  EXPECT_EQ(first.frame.rebuilds, 0u);  // Cold start is not a rebuild.

  // Simulated data churn: tick past the frame TTL.
  for (int i = 0; i < 3; ++i) cache.AdvanceEpoch();
  BatchResult second = scheduler.ExecuteBatch(queries, 0, rng);
  ASSERT_TRUE(second.answers[0].ok());
  EXPECT_EQ(second.frame.rebuilds, 1u);
  EXPECT_EQ(second.frame.frame_hits, 0u);  // Expired frame serves nothing.
  EXPECT_EQ(second.frame.frame_epoch, cache.epoch());
}

TEST(QuerySchedulerTest, InvalidateFrameDropsReuse) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  FreshnessCache cache(10, 1 << 12);
  QueryScheduler scheduler(&tn.network, tn.catalog, DefaultParams(tn),
                           &cache);
  std::vector<query::AggregateQuery> queries = QueryMix();
  util::Rng rng(10);
  ASSERT_TRUE(scheduler.ExecuteBatch(queries, 0, rng).answers[0].ok());
  scheduler.InvalidateFrame();
  EXPECT_EQ(scheduler.frame_size(), 0u);
  BatchResult second = scheduler.ExecuteBatch(queries, 0, rng);
  ASSERT_TRUE(second.answers[0].ok());
  EXPECT_EQ(second.frame.frame_hits, 0u);  // Cold again.
}

TEST(QuerySchedulerTest, BatchingReducesMessagesPerQuery) {
  // The amortization claim itself: two batches of K=4 queries through the
  // scheduler (shared frame + batched walkers) must ship under half the
  // messages of the same eight queries run as independent two-phase
  // executions. Also checks the ablation ordering: stripping frame reuse
  // must cost strictly more messages than the full scheduler.
  TestNetworkParams net_params;
  net_params.seed = 77;
  std::vector<query::AggregateQuery> queries = QueryMix();

  auto run_scheduler = [&](bool reuse_frame) {
    TestNetwork tn = MakeTestNetwork(net_params);
    FreshnessCache cache(10, 1 << 12);
    SchedulerParams params = DefaultParams(tn);
    params.reuse_frame = reuse_frame;
    QueryScheduler scheduler(&tn.network, tn.catalog, params, &cache);
    util::Rng rng(11);
    uint64_t messages = 0;
    for (int b = 0; b < 2; ++b) {
      BatchResult result = scheduler.ExecuteBatch(queries, 0, rng);
      for (const auto& answer : result.answers) {
        EXPECT_TRUE(answer.ok());
      }
      messages += result.cost.messages;
    }
    return messages;
  };

  auto run_independent = [&] {
    TestNetwork tn = MakeTestNetwork(net_params);
    TwoPhaseEngine engine(&tn.network, tn.catalog, DefaultParams(tn).engine);
    util::Rng rng(11);
    net::CostSnapshot before = tn.network.cost_snapshot();
    for (int b = 0; b < 2; ++b) {
      for (const auto& q : queries) {
        EXPECT_TRUE(engine.Execute(q, 0, rng).ok());
      }
    }
    return net::CostDelta(tn.network.cost_snapshot(), before).messages;
  };

  uint64_t full = run_scheduler(/*reuse_frame=*/true);
  uint64_t no_reuse = run_scheduler(/*reuse_frame=*/false);
  uint64_t independent = run_independent();
  EXPECT_LT(full * 2, independent)
      << "scheduler=" << full << " independent=" << independent;
  EXPECT_LT(full, no_reuse) << "frame reuse must save messages";
}

TEST(QuerySchedulerTest, RejectsUnsupportedOperators) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  FreshnessCache cache(10, 1 << 12);
  QueryScheduler scheduler(&tn.network, tn.catalog, DefaultParams(tn),
                           &cache);
  query::AggregateQuery avg = CountQuery(40);
  avg.op = query::AggregateOp::kAvg;
  std::vector<query::AggregateQuery> queries = {CountQuery(40), avg};
  util::Rng rng(12);
  BatchResult result = scheduler.ExecuteBatch(queries, 0, rng);
  ASSERT_EQ(result.answers.size(), 2u);
  EXPECT_TRUE(result.answers[0].ok());  // Sibling unaffected.
  ASSERT_FALSE(result.answers[1].ok());
  EXPECT_EQ(result.answers[1].status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(QuerySchedulerTest, DeadSinkFailsWholeBatch) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  FreshnessCache cache(10, 1 << 12);
  QueryScheduler scheduler(&tn.network, tn.catalog, DefaultParams(tn),
                           &cache);
  tn.network.SetAlive(0, false);
  std::vector<query::AggregateQuery> queries = QueryMix();
  util::Rng rng(13);
  BatchResult result = scheduler.ExecuteBatch(queries, 0, rng);
  for (const auto& answer : result.answers) {
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().code(), util::StatusCode::kFailedPrecondition);
  }
}

TEST(QuerySchedulerTest, SumQueriesEstimateTotals) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  FreshnessCache cache(10, 1 << 12);
  QueryScheduler scheduler(&tn.network, tn.catalog, DefaultParams(tn),
                           &cache);
  query::AggregateQuery sum_query = CountQuery(60);
  sum_query.op = query::AggregateOp::kSum;
  std::vector<query::AggregateQuery> queries = {sum_query, CountQuery(60)};
  util::Rng rng(14);
  BatchResult result = scheduler.ExecuteBatch(queries, 0, rng);
  ASSERT_TRUE(result.answers[0].ok());
  ASSERT_TRUE(result.answers[1].ok());
  // SUM over values in [1,60] must exceed COUNT of the same predicate
  // (every matching tuple has value >= 1).
  EXPECT_GE(result.answers[0]->estimate, result.answers[1]->estimate);
}

// One cold batch on a 20%-lossy world under `straggler`: the batch cost, the
// number of batched-reply retries, and the query RNG's next draw.
struct LossyBatch {
  net::CostSnapshot cost;
  uint64_t retransmits = 0;
  uint64_t next_draw = 0;
};

LossyBatch RunLossyBatch(const net::StragglerPolicy& straggler) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  net::FaultPlan faults;
  faults.drop_probability = 0.2;
  tn.network.InstallFaultPlan(faults, 515);
  net::HistoryRecorder history;
  tn.network.set_history(&history);
  SchedulerParams params = DefaultParams(tn);
  params.engine.straggler = straggler;
  FreshnessCache cache(10, 1 << 12);
  QueryScheduler scheduler(&tn.network, tn.catalog, params, &cache);
  util::Rng rng(15);
  BatchResult result = scheduler.ExecuteBatch(QueryMix(), 0, rng);
  tn.network.set_history(nullptr);
  return LossyBatch{result.cost,
                    history.Count(net::HistoryEventKind::kRetransmit),
                    rng.Next64()};
}

// The scheduler's batched replies retry under the configured backoff policy,
// like the engines' replies: each retry's wait is charged to the batch's
// latency, and exponential backoff draws its jitter from the query stream.
TEST(QuerySchedulerTest, RetransmitBackoffIsChargedToTheBatch) {
  const LossyBatch plain = RunLossyBatch(net::StragglerPolicy{});
  ASSERT_GT(plain.retransmits, 0u) << "the lossy plan never retried a reply";

  // A fixed sink-side timer consumes no RNG: the same run, with exactly one
  // wait per retry added to the latency ledger.
  net::StragglerPolicy timer;
  timer.retransmit_timeout_ms = 500.0;
  const LossyBatch timed = RunLossyBatch(timer);
  EXPECT_EQ(timed.retransmits, plain.retransmits);
  EXPECT_EQ(timed.cost.messages, plain.cost.messages);
  EXPECT_EQ(timed.next_draw, plain.next_draw);
  EXPECT_NEAR(timed.cost.latency_ms,
              plain.cost.latency_ms +
                  500.0 * static_cast<double>(plain.retransmits),
              1e-6 * timed.cost.latency_ms);

  // Exponential backoff jitters every wait from the query RNG, so the
  // stream moves on, and every wait is at least the jittered first step.
  net::StragglerPolicy backoff;
  backoff.exponential_backoff = true;
  const LossyBatch backed = RunLossyBatch(backoff);
  ASSERT_GT(backed.retransmits, 0u);
  EXPECT_NE(backed.next_draw, plain.next_draw);
  EXPECT_GT(backed.cost.latency_ms,
            net::kBackoffBaseMs * (1.0 - net::kBackoffJitter) *
                static_cast<double>(backed.retransmits));
}

}  // namespace
}  // namespace p2paqp::core
