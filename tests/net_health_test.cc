// Unit tests for the straggler-resilience primitives: the retry backoff
// schedule and the per-peer health scoreboard / circuit breaker
// (src/net/health.h). Statistical consequences (unbiasedness under skips,
// makespan wins from hedging) live in tests/statistical/stat_straggler_test.
#include "net/health.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace p2paqp::net {
namespace {

TEST(RetryBackoffTest, FixedTimerConsumesNoRng) {
  StragglerPolicy policy;
  policy.retransmit_timeout_ms = 2000.0;
  util::Rng drawn(9);
  util::Rng untouched(9);
  // The PR 1 fixed timer: every attempt waits the same, and the query's RNG
  // stream is untouched so legacy plans replay bit-identically.
  EXPECT_DOUBLE_EQ(RetryBackoffMs(policy, 1, drawn), 2000.0);
  EXPECT_DOUBLE_EQ(RetryBackoffMs(policy, 5, drawn), 2000.0);
  EXPECT_EQ(drawn.Next64(), untouched.Next64());
}

TEST(RetryBackoffTest, ExponentialDoublesInsideJitterEnvelope) {
  StragglerPolicy policy;
  policy.exponential_backoff = true;
  util::Rng rng(10);
  for (size_t attempt = 1; attempt <= 5; ++attempt) {
    const double nominal = kBackoffBaseMs * std::pow(2.0, attempt - 1.0);
    const double wait = RetryBackoffMs(policy, attempt, rng);
    EXPECT_GE(wait, nominal * (1.0 - kBackoffJitter)) << "attempt " << attempt;
    EXPECT_LE(wait, nominal * (1.0 + kBackoffJitter)) << "attempt " << attempt;
  }
  // Deterministic: the jitter comes from the seeded query stream.
  util::Rng a(11);
  util::Rng b(11);
  EXPECT_DOUBLE_EQ(RetryBackoffMs(policy, 3, a), RetryBackoffMs(policy, 3, b));
}

TEST(HealthBoardTest, EwmaTracksLatencyAndFailures) {
  PeerHealthBoard board;
  board.Reset(4);
  board.Record(0, 100.0, /*ok=*/true);
  EXPECT_FLOAT_EQ(board.LatencyEwma(0), 100.0f);  // First sample seeds it.
  board.Record(0, 200.0, /*ok=*/true);
  EXPECT_NEAR(board.LatencyEwma(0), 0.8 * 100.0 + 0.2 * 200.0, 1e-3);
  EXPECT_FLOAT_EQ(board.FailureEwma(0), 0.0f);
  board.Record(0, 0.0, /*ok=*/false);
  EXPECT_NEAR(board.FailureEwma(0), 0.2, 1e-6);
  board.Record(0, 100.0, /*ok=*/true);  // A success decays the failure rate.
  EXPECT_NEAR(board.FailureEwma(0), 0.16, 1e-6);
  EXPECT_EQ(board.Samples(0), 4u);
  EXPECT_EQ(board.TouchedPeers(), 1u);
}

TEST(HealthBoardTest, WinsorizesTailMonsters) {
  PeerHealthBoard board;
  board.Reset(2);
  board.Record(0, 10.0, /*ok=*/true);
  board.Record(0, 10000.0, /*ok=*/true);  // One Pareto monster...
  // ...is clamped to 8x the current EWMA before folding: the board nudges
  // toward "slow", it does not hand the whole scoreboard to one draw.
  EXPECT_NEAR(board.LatencyEwma(0), 0.8 * 10.0 + 0.2 * 80.0, 1e-3);
}

TEST(HealthBoardTest, BreakerNeedsMinSamplesThenTripsOnFailures) {
  PeerHealthBoard board;
  board.Reset(4);
  for (int i = 0; i < 3; ++i) board.Record(1, 0.0, /*ok=*/false);
  // Three straight failures, but below kBreakerMinSamples: no verdict yet.
  EXPECT_FALSE(board.Tripped(1));
  for (int i = 0; i < 3; ++i) board.Record(1, 0.0, /*ok=*/false);
  // Six failures: EWMA = 1 - 0.8^6 ~ 0.74, past the 0.6 threshold.
  EXPECT_TRUE(board.Tripped(1));
  EXPECT_EQ(board.TrippedCount(), 1u);
  // Successes decay the failure EWMA back under the threshold: the breaker
  // recovers instead of blacklisting forever.
  board.Record(1, 10.0, /*ok=*/true);
  board.Record(1, 10.0, /*ok=*/true);
  EXPECT_FALSE(board.Tripped(1));
  EXPECT_EQ(board.TrippedCount(), 0u);
}

TEST(HealthBoardTest, BreakerTripsOnLatencyOutlier) {
  PeerHealthBoard board;
  board.Reset(16);
  // Peer 1 answers, but consistently ~50x slower than everyone else.
  for (int i = 0; i < 4; ++i) board.Record(1, 500.0, /*ok=*/true);
  for (graph::NodeId peer = 2; peer < 12; ++peer) {
    for (int i = 0; i < 4; ++i) board.Record(peer, 10.0, /*ok=*/true);
  }
  EXPECT_TRUE(board.Tripped(1));
  EXPECT_FALSE(board.Tripped(2));
  EXPECT_EQ(board.TrippedCount(), 1u);
}

TEST(HealthBoardTest, ResetClearsEverything) {
  PeerHealthBoard board;
  board.Reset(4);
  for (int i = 0; i < 6; ++i) board.Record(2, 0.0, /*ok=*/false);
  ASSERT_TRUE(board.Tripped(2));
  board.Reset(4);
  EXPECT_FALSE(board.Tripped(2));
  EXPECT_EQ(board.TouchedPeers(), 0u);
  EXPECT_EQ(board.Samples(2), 0u);
  EXPECT_DOUBLE_EQ(board.GlobalLatencyEwma(), 0.0);
  // Out-of-range peers are inert, not UB: the engines size the board once
  // per query in the reserve-before-drain block.
  board.Record(99, 10.0, /*ok=*/true);
  EXPECT_FALSE(board.Tripped(99));
}

}  // namespace
}  // namespace p2paqp::net
