// Unit tests for the shared reply path (core/reply_path.h): the dedup table
// and its injected-bug seam, the retransmit loop's retry/backoff/stop
// rules, and the round close's quorum check.
#include <gtest/gtest.h>

#include <vector>

#include "core/reply_path.h"
#include "net/history.h"
#include "test_common.h"
#include "util/bug_injection.h"

namespace p2paqp::core {
namespace {

using p2paqp::testing::MakeTestNetwork;
using p2paqp::testing::TestNetwork;
using p2paqp::testing::TestNetworkParams;

PeerObservation Selection(graph::NodeId peer, size_t seq) {
  PeerObservation obs;
  obs.peer = peer;
  obs.selection_seq = seq;
  return obs;
}

TEST(ReplyDedupTest, KeepsTheFirstCopyOfEachSelection) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  net::HistoryRecorder history;
  tn.network.set_history(&history);
  ReplyDedup dedup;
  dedup.Open(&tn.network, /*sink=*/0, /*selections=*/3);
  EXPECT_TRUE(dedup.Arrive(Selection(7, 0)));
  EXPECT_FALSE(dedup.Arrive(Selection(7, 0)));  // Replayed or hedged copy.
  EXPECT_TRUE(dedup.Arrive(Selection(7, 1)));   // Reselection: fresh seq.
  EXPECT_FALSE(dedup.seen(2));
  EXPECT_EQ(dedup.duplicates(), 1u);
  EXPECT_EQ(history.Count(net::HistoryEventKind::kDedupAccept), 2u);
  EXPECT_EQ(history.Count(net::HistoryEventKind::kDedupDrop), 1u);
  EXPECT_EQ(history.events()[1].tag, dedup.Tag(7, 0));

  // A new round forgets the old flags and tags in a fresh namespace.
  const uint64_t old_tag = dedup.Tag(7, 0);
  dedup.Open(&tn.network, 0, 1);
  EXPECT_TRUE(dedup.Arrive(Selection(7, 0)));
  EXPECT_EQ(dedup.duplicates(), 0u);
  EXPECT_NE(dedup.Tag(7, 0), old_tag);
  tn.network.set_history(nullptr);
}

TEST(ReplyDedupTest, DisabledDedupSeamAcceptsEveryCopy) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  util::ScopedInjectedBug armed(util::InjectedBug::kDisableReplyDedup);
  ReplyDedup dedup;
  dedup.Open(&tn.network, 0, 1);
  EXPECT_TRUE(dedup.Arrive(Selection(3, 0)));
  EXPECT_TRUE(dedup.Arrive(Selection(3, 0)));
  EXPECT_EQ(dedup.duplicates(), 0u);
}

TEST(TransmitReplyTest, RetriesUntilDeliveredWithBackoffWaits) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  EngineParams params;
  params.reply_retransmits = 3;
  params.straggler.retransmit_timeout_ms = 250.0;
  const PlanContext ctx{&tn.network, params, /*sink=*/0, 1.0};
  util::Rng rng(1);
  std::vector<double> waits;
  size_t retries = 0;
  const double latency_before = tn.network.cost_snapshot().latency_ms;
  const bool delivered =
      TransmitReply(ctx, /*peer=*/5, /*batch=*/1, rng, &retries,
                    [&](double wait_ms) {
                      waits.push_back(wait_ms);
                      return waits.size() == 3;  // Third copy gets through.
                    });
  EXPECT_TRUE(delivered);
  EXPECT_EQ(retries, 2u);
  EXPECT_EQ(waits, (std::vector<double>{0.0, 250.0, 250.0}));
  EXPECT_DOUBLE_EQ(tn.network.cost_snapshot().latency_ms - latency_before,
                   500.0);
}

TEST(TransmitReplyTest, GivesUpAfterTheBudgetOrAtADeadEndpoint) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  EngineParams params;
  params.reply_retransmits = 2;
  const PlanContext ctx{&tn.network, params, /*sink=*/0, 1.0};
  util::Rng rng(1);
  size_t retries = 0;
  size_t sends = 0;
  auto lose = [&](double) {
    ++sends;
    return false;
  };
  EXPECT_FALSE(TransmitReply(ctx, 5, 1, rng, &retries, lose));
  EXPECT_EQ(sends, 3u);
  EXPECT_EQ(retries, 2u);

  // A crashed sender cannot retry.
  tn.network.SetAlive(5, false);
  sends = 0;
  retries = 0;
  EXPECT_FALSE(TransmitReply(ctx, 5, 1, rng, &retries, lose));
  EXPECT_EQ(sends, 1u);
  EXPECT_EQ(retries, 0u);
}

TEST(CloseRoundTest, QuorumIsInclusiveAndWaivedAtTheDeadline) {
  EngineParams params;
  params.min_observation_quorum = 0.5;
  TwoPhaseEngine::CollectionStats stats;
  stats.requested = 8;
  EXPECT_TRUE(CloseRound(params, 4, &stats).ok());
  EXPECT_EQ(stats.delivered, 4u);
  EXPECT_EQ(stats.lost, 4u);

  util::Status below = CloseRound(params, 3, &stats);
  EXPECT_EQ(below.code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(below.message(), "observation quorum not met: 3/8 delivered");

  stats.deadline_hit = true;
  EXPECT_TRUE(CloseRound(params, 0, &stats).ok());
  EXPECT_EQ(stats.lost, 8u);
}

}  // namespace
}  // namespace p2paqp::core
