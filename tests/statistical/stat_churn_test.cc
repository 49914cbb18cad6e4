// Statistical verification of the churn epoch's law (DESIGN.md, "Churn
// epochs"). The contract of net::ChurnModel::Step is a law, not an RNG
// stream: each live, unpinned peer departs with probability p_leave, each
// unpinned peer down at the epoch's start returns with probability
// p_rejoin, independently, and no peer flips twice. The epoch draws leave
// candidates with geometric skips over the id range, so the checks pin
// every part of that draw:
//
//   * departures against Binomial(live unpinned, p_leave), per epoch;
//   * rejoins against Binomial(unpinned down at the start, p_rejoin);
//   * leave candidates against Binomial(ids, p_leave) — a scan that revisits
//     ids draws too many;
//   * the departed ids' positions, chi-square over id buckets against the
//     live unpinned mass of each bucket — a first-position or skip bias
//     piles departures up or thins them out somewhere along the range.
//
// Epochs run as one chain on one world. Conditioned on the world at each
// epoch's start the counts are binomial, so their sums over the chain are
// compared with the sums of the conditional means and variances (a
// martingale CLT). Each count check reports its minimum detectable effect:
// the relative rate shift it catches half of the time at the 5.5-sigma
// cutoff (docs/TESTING.md).
#include "statistical_test_util.h"

#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "gtest/gtest.h"
#include "net/churn.h"
#include "util/bug_injection.h"

namespace p2paqp {
namespace {

constexpr size_t kPeers = 10000;
constexpr size_t kBucketIds = 100;  // 100 buckets of 100 ids.

struct Regime {
  const char* name;
  double leave;
  double rejoin;
};

// The workload rates of perfbench's churn_faults_async, plus a heavy regime
// where most of the world flips every few epochs.
constexpr Regime kRegimes[] = {{"workload", 0.01, 0.2}, {"heavy", 0.3, 0.5}};

// Sum of per-epoch binomial counts and of their conditional moments.
struct CountCheck {
  double observed = 0.0;
  double mean = 0.0;
  double variance = 0.0;

  void Add(double count, double trials, double p) {
    observed += count;
    mean += trials * p;
    variance += trials * p * (1.0 - p);
  }

  verify::TestVerdict Verdict(const std::string& name) const {
    const double alpha = verify::DefaultAlpha();
    const double cutoff = verify::SigmaForAlpha(alpha);
    verify::TestVerdict v;
    v.name = name;
    v.statistic = (observed - mean) / std::sqrt(variance);
    v.p_value = std::erfc(std::fabs(v.statistic) / std::sqrt(2.0));
    v.alpha = alpha;
    v.pass = v.p_value >= alpha;
    v.detail = "observed " + std::to_string(observed) + " expected " +
               std::to_string(mean) + " sd " +
               std::to_string(std::sqrt(variance)) +
               "; detects a relative rate shift of " +
               std::to_string(cutoff * std::sqrt(variance) / mean);
    return v;
  }
};

struct ChainResult {
  CountCheck departures;
  CountCheck rejoins;
  CountCheck candidates;
  std::vector<double> leavers_per_bucket;
  std::vector<double> live_mass_per_bucket;
};

bool Pinned(graph::NodeId id) { return id % 97 == 5; }

// A world with a known starting state: a seeded quarter of the peers down,
// and every 97th id pinned, some of them up and some down.
net::SimulatedNetwork MakeChurnWorld(uint64_t seed) {
  auto network = net::SimulatedNetwork::Make(
      graph::GraphBuilder(kPeers).Build(), {}, net::NetworkParams{}, seed);
  P2PAQP_CHECK(network.ok()) << network.status().ToString();
  util::Rng rng(seed);
  for (graph::NodeId id = 0; id < kPeers; ++id) {
    if (rng.Bernoulli(0.25)) network->SetAlive(id, false);
  }
  return std::move(*network);
}

// Steps `epochs` epochs of one chain and accumulates every check.
ChainResult RunChain(const Regime& regime, size_t epochs, uint64_t seed) {
  net::SimulatedNetwork network = MakeChurnWorld(seed);
  net::ChurnParams params;
  params.leave_probability = regime.leave;
  params.rejoin_probability = regime.rejoin;
  for (graph::NodeId id = 0; id < kPeers; ++id) {
    if (Pinned(id)) params.pinned.push_back(id);
  }
  net::ChurnModel churn(params, util::MixSeed(seed ^ 0xC4A7ULL));

  ChainResult result;
  result.leavers_per_bucket.assign(kPeers / kBucketIds, 0.0);
  result.live_mass_per_bucket.assign(kPeers / kBucketIds, 0.0);
  std::vector<double> unpinned(kPeers / kBucketIds, 0.0);
  for (graph::NodeId id = 0; id < kPeers; ++id) {
    if (!Pinned(id)) unpinned[id / kBucketIds] += 1.0;
  }
  std::vector<uint8_t> was_down(kPeers, 0);
  std::vector<graph::NodeId> down_at_start;
  std::vector<double> live_unpinned;
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    // The world at the epoch's start, read through departed().
    down_at_start = network.departed();
    live_unpinned = unpinned;
    size_t down_unpinned = 0;
    for (graph::NodeId id : down_at_start) {
      was_down[id] = 1;
      if (Pinned(id)) continue;
      ++down_unpinned;
      live_unpinned[id / kBucketIds] -= 1.0;
    }
    double alive_unpinned = 0.0;
    for (size_t b = 0; b < live_unpinned.size(); ++b) {
      alive_unpinned += live_unpinned[b];
      result.live_mass_per_bucket[b] += live_unpinned[b];
    }

    const net::ChurnCounters before = churn.counters();
    churn.Step(network);
    const net::ChurnCounters& after = churn.counters();
    result.departures.Add(
        static_cast<double>(after.departures - before.departures),
        alive_unpinned, regime.leave);
    result.rejoins.Add(static_cast<double>(after.rejoins - before.rejoins),
                       static_cast<double>(down_unpinned), regime.rejoin);
    result.candidates.Add(
        static_cast<double>(after.leave_candidates - before.leave_candidates),
        static_cast<double>(kPeers), regime.leave);

    for (graph::NodeId id : network.departed()) {
      if (!was_down[id]) result.leavers_per_bucket[id / kBucketIds] += 1.0;
    }
    for (graph::NodeId id : down_at_start) was_down[id] = 0;
  }
  return result;
}

size_t Epochs() { return verify::Replicates(300, 3000); }

// One chain per regime, shared by the four checks (each reads a different
// part of it).
const ChainResult& Chain(size_t regime) {
  static const std::vector<ChainResult> chains = [] {
    std::vector<ChainResult> all;
    for (size_t r = 0; r < std::size(kRegimes); ++r) {
      all.push_back(RunChain(kRegimes[r], Epochs(), 0xC1 + r));
    }
    return all;
  }();
  return chains[regime];
}

TEST(StatChurnTest, DeparturesFollowBinomialOverLiveUnpinnedPeers) {
  for (size_t r = 0; r < std::size(kRegimes); ++r) {
    SCOPED_TRACE(kRegimes[r].name);
    EXPECT_STAT_PASS(Chain(r).departures.Verdict("departures"));
  }
}

TEST(StatChurnTest, RejoinsFollowBinomialOverPeersDownAtEpochStart) {
  for (size_t r = 0; r < std::size(kRegimes); ++r) {
    SCOPED_TRACE(kRegimes[r].name);
    EXPECT_STAT_PASS(Chain(r).rejoins.Verdict("rejoins"));
  }
}

TEST(StatChurnTest, LeaveCandidatesAreBernoulliPerId) {
  for (size_t r = 0; r < std::size(kRegimes); ++r) {
    SCOPED_TRACE(kRegimes[r].name);
    EXPECT_STAT_PASS(Chain(r).candidates.Verdict("leave candidates"));
  }
}

TEST(StatChurnTest, DeparturePositionsAreUniformOverLiveMass) {
  for (size_t r = 0; r < std::size(kRegimes); ++r) {
    SCOPED_TRACE(kRegimes[r].name);
    EXPECT_STAT_PASS(verify::ChiSquareGofTest(Chain(r).leavers_per_bucket,
                                              Chain(r).live_mass_per_bucket,
                                              verify::DefaultAlpha()));
  }
}

// Canaries: each seeded epoch bug must trip the check that owns it, on the
// heavy regime where its effect is largest — so large (hundreds of sigma)
// that a short chain suffices in either mode.
constexpr size_t kCanaryEpochs = 50;

TEST(StatChurnTest, SkipWithoutStrideIsCaughtByTheCandidateCount) {
  util::ScopedInjectedBug armed(util::InjectedBug::kChurnSkipWithoutStride);
  ChainResult chain = RunChain(kRegimes[1], kCanaryEpochs, 0xC5);
  EXPECT_STAT_FAIL(chain.candidates.Verdict("leave candidates"));
}

TEST(StatChurnTest, RejoinInTheLeavingEpochIsCaughtByTheRejoinCount) {
  util::ScopedInjectedBug armed(util::InjectedBug::kChurnRejoinSameEpoch);
  ChainResult chain = RunChain(kRegimes[1], kCanaryEpochs, 0xC6);
  EXPECT_STAT_FAIL(chain.rejoins.Verdict("rejoins"));
}

}  // namespace
}  // namespace p2paqp
