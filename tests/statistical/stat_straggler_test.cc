// Statistical verification of the straggler-resilience layer: under
// heavy-tailed per-peer latency the full stack (Walk-Not-Wait forking,
// hedged replies, jittered backoff, health breaker) must leave the
// Horvitz-Thompson estimate unbiased at the suite's 5.5-sigma bar. A
// Walk-Not-Wait fork is a lazy self-loop and tail draws are peer-iid, so
// forking thins hops without reweighting the stationary distribution;
// hedged duplicates are deduped by (peer, selection_seq). A slow
// *coalition* breaks the iid premise — forks then steer away from a fixed
// set of peers — but the perturbation is value-independent and bounded by
// the coalition fraction, which the guard-banded z-test pins down.
//
// The chaos-matrix entries (ctest -L chaos) re-run the bounded-error cell
// across tail shape x hedging x deadline via the P2PAQP_STRAGGLER_TAIL,
// P2PAQP_STRAGGLER_HEDGE and P2PAQP_STRAGGLER_DEADLINE environment
// variables, on the async engine (the only one honoring deadlines).
#include "statistical_test_util.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/async_engine.h"
#include "gtest/gtest.h"
#include "net/fault.h"

namespace p2paqp {
namespace {

// The acceptance regime's tail: Pareto with infinite variance (alpha < 2),
// so a fixed timeout has no sane setting — exactly the regime the
// resilience stack exists for.
net::FaultPlan ParetoTailPlan() {
  net::FaultPlan plan;
  plan.tail = net::LatencyTail::kPareto;
  plan.tail_scale_ms = 10.0;
  plan.tail_alpha = 1.1;
  return plan;
}

net::FaultPlan LognormalTailPlan() {
  net::FaultPlan plan;
  plan.tail = net::LatencyTail::kLognormal;
  plan.tail_scale_ms = 10.0;
  plan.tail_sigma = 1.5;
  return plan;
}

// Tail plus the acceptance coalition: 10% of peers consistently 20x tardy.
net::FaultPlan CoalitionPlan(double fraction) {
  net::FaultPlan plan = ParetoTailPlan();
  plan.slow_fraction = fraction;
  plan.slow_factor = 20.0;
  return plan;
}

// Everything on — mirrors the protocol runner's wnw/hedge/backoff wiring.
net::StragglerPolicy FullResilience() {
  net::StragglerPolicy policy;
  policy.walk_not_wait = true;
  policy.health_tracking = true;
  policy.hedged_replies = true;
  policy.exponential_backoff = true;
  return policy;
}

struct StragglerOutcome {
  verify::EstimateSample sample;
  double normalized_error = 0.0;
  double latency_ms = 0.0;
  size_t hedges = 0;
  size_t skips = 0;
  bool deadline_hit = false;
  bool failed = false;
};

struct StragglerRun {
  verify::CalibrationAccumulator acc;
  util::RunningStat normalized_errors;
  util::RunningStat latencies_ms;
  size_t hedges = 0;
  size_t skips = 0;
  size_t deadline_hits = 0;
  size_t failures = 0;
};

enum class EngineKind { kSync, kAsync };

// Installs `fault` on the shared synthetic world (CloneWorld re-seeds the
// injector per replicate, so tails and coalitions are redrawn
// independently) and runs replicated queries under `policy`.
StragglerRun RunStragglerReplicates(const net::FaultPlan& fault,
                                    const net::StragglerPolicy& policy,
                                    EngineKind kind, double deadline_ms,
                                    size_t replicates, uint64_t base_seed) {
  bench::World& world = testing::SyntheticStatWorld();
  world.network.InstallFaultPlan(fault, base_seed ^ 0x57A6u);

  query::AggregateQuery query;
  query.op = query::AggregateOp::kCount;
  query.predicate = query::RangePredicate{1, 40};
  query.required_error = 0.08;
  const double truth = testing::EngineTruth(world, query);

  std::vector<StragglerOutcome> outcomes = util::ParallelMap(
      replicates, [&](size_t r) {
        util::Rng rng(verify::ReplicateSeed(base_seed, r));
        bench::World rep_world = bench::CloneWorld(
            world, testing::ReplicateNetworkSeed(base_seed, r));
        core::EngineParams params;
        params.phase1_peers = 40;
        params.max_phase2_peers = 250;
        params.straggler = policy;
        params.deadline_ms = deadline_ms;
        graph::NodeId sink = testing::RandomLiveSink(rep_world.network, rng);
        StragglerOutcome out;
        core::ApproximateAnswer answer;
        if (kind == EngineKind::kAsync) {
          core::AsyncParams aparams;
          aparams.engine = params;
          aparams.walkers = 4;
          aparams.walk.jump = rep_world.catalog.suggested_jump;
          aparams.walk.burn_in = rep_world.catalog.suggested_burn_in;
          core::AsyncQuerySession session(&rep_world.network,
                                          rep_world.catalog, aparams);
          auto report = session.Execute(query, sink, rng);
          if (!report.ok()) {
            out.failed = true;
            return out;
          }
          answer = report->answer;
          out.latency_ms = report->makespan_ms;
        } else {
          core::TwoPhaseEngine engine(&rep_world.network, rep_world.catalog,
                                      params);
          auto result = engine.Execute(query, sink, rng);
          if (!result.ok()) {
            out.failed = true;
            return out;
          }
          answer = *result;
          out.latency_ms = answer.cost.latency_ms;
        }
        out.sample = verify::EstimateSample{answer.estimate, truth,
                                            answer.ci_half_width_95};
        out.normalized_error =
            bench::NormalizedError(world, query, answer.estimate);
        out.hedges = answer.hedges_sent;
        out.skips = answer.stragglers_skipped;
        out.deadline_hit = answer.deadline_hit;
        return out;
      });
  world.network.InstallFaultPlan(net::FaultPlan{}, 0);

  StragglerRun run;
  for (const StragglerOutcome& out : outcomes) {
    if (out.failed) {
      ++run.failures;
      continue;
    }
    run.acc.Add(out.sample);
    run.normalized_errors.Add(out.normalized_error);
    run.latencies_ms.Add(out.latency_ms);
    run.hedges += out.hedges;
    run.skips += out.skips;
    if (out.deadline_hit) ++run.deadline_hits;
  }
  return run;
}

// Replicates behind the synchronous engine's bias checks in full mode: at
// the suite's cutoff a mean z-test over n replicates catches a bias of
// (z_alpha + z_0.9) / sqrt(n) standard deviations with 90% power, so 768
// replicates see 0.25 SD (n >= ((5.54 + 1.28) / 0.25)^2 = 744).
constexpr size_t kSyncBiasReplicates = 768;

// Prints the smallest mean bias `errors` can detect with 90% power, beyond
// the guard band `tolerance`, in per-replicate standard deviations and in
// estimate units (docs/TESTING.md lists these), next to the observed mean.
void PrintDetectableBias(const char* check, const util::RunningStat& errors,
                         double tolerance) {
  const double z = verify::SigmaForAlpha(verify::DefaultAlpha()) + 1.2816;
  const double sd_units = z / std::sqrt(static_cast<double>(errors.count()));
  std::printf(
      "[ MDE      ] %s: n=%zu, 90%% power against a mean bias of %.3f SD "
      "(%.1f in estimate units, guard band %.1f); observed mean error "
      "%.3f SD\n",
      check, errors.count(), sd_units,
      tolerance + sd_units * errors.stddev(), tolerance,
      errors.mean() / errors.stddev());
}

// --- Unbiasedness under iid tails (the tentpole's 5.5-sigma claim) ----------

// The full resilience stack under a peer-iid Pareto tail: every fork and
// hedge decision is identity-blind, so the estimator must stay unbiased —
// no guard band, the plain z-test at the suite's alpha.
TEST(StatStragglerTest, ParetoTailFullStackUnbiased) {
  auto run = RunStragglerReplicates(
      ParetoTailPlan(), FullResilience(), EngineKind::kSync,
      /*deadline_ms=*/0.0, verify::Replicates(16, kSyncBiasReplicates),
      0x57a1);
  ASSERT_GT(run.acc.total(), 0u);
  EXPECT_EQ(run.failures, 0u);
  EXPECT_STAT_PASS(
      verify::MeanZTest(run.acc.errors(), 0.0, verify::DefaultAlpha()));
  PrintDetectableBias("ParetoTailFullStackUnbiased", run.acc.errors(), 0.0);
  // The stack visibly engaged — otherwise this proves nothing about it.
  // (Hedges stay at zero here by design: under an iid tail no peer is
  // *predictably* tardy, and the hedge trigger keys on the per-peer
  // expectation. The coalition test below covers the hedge path.)
  EXPECT_GT(run.skips, 0u);
  EXPECT_EQ(run.hedges, 0u);
}

// Same claim on the event-driven engine, whose Walk-Not-Wait fork lives in
// the walker scheduler rather than the synchronous hop loop.
TEST(StatStragglerTest, ParetoTailAsyncEngineUnbiased) {
  auto run = RunStragglerReplicates(ParetoTailPlan(), FullResilience(),
                                    EngineKind::kAsync, /*deadline_ms=*/0.0,
                                    verify::Replicates(12, 48), 0x57a2);
  ASSERT_GT(run.acc.total(), 0u);
  EXPECT_EQ(run.failures, 0u);
  EXPECT_STAT_PASS(
      verify::MeanZTest(run.acc.errors(), 0.0, verify::DefaultAlpha()));
  EXPECT_GT(run.skips, 0u);
}

// --- Slow coalition: bounded, value-independent bias ------------------------

// With 10% of peers consistently tardy, Walk-Not-Wait forks are no longer
// identity-blind: transit edges into the coalition fork more often, tilting
// selection mass toward the fast majority. The tilt is value-independent
// and bounded by the coalition fraction, so the z-test with a
// fraction-sized guard band must pass and the normalized error stays
// within the paper's envelope.
TEST(StatStragglerTest, SlowCoalitionBiasBounded) {
  bench::World& world = testing::SyntheticStatWorld();
  query::AggregateQuery query;
  query.op = query::AggregateOp::kCount;
  query.predicate = query::RangePredicate{1, 40};
  const double truth = testing::EngineTruth(world, query);
  auto run = RunStragglerReplicates(
      CoalitionPlan(0.10), FullResilience(), EngineKind::kSync,
      /*deadline_ms=*/0.0, verify::Replicates(16, kSyncBiasReplicates),
      0x57a3);
  ASSERT_GT(run.acc.total(), 0u);
  EXPECT_EQ(run.failures, 0u);
  EXPECT_STAT_PASS(verify::MeanZTest(run.acc.errors(), 0.0,
                                     verify::DefaultAlpha(),
                                     /*bias_tolerance=*/0.10 * truth));
  PrintDetectableBias("SlowCoalitionBiasBounded", run.acc.errors(),
                      0.10 * truth);
  EXPECT_LT(run.normalized_errors.mean(), 0.10);
  // Coalition members are predictably tardy, so both interventions fire.
  EXPECT_GT(run.skips, 0u);
  EXPECT_GT(run.hedges, 0u);
}

// --- The stack earns its keep: latency under a coalition --------------------

// Against the same coalition regime, the resilient configuration must beat
// the wait-on-everything legacy configuration on mean query makespan — on
// the async engine, whose event clock is where hedging's min-of-two race
// and Walk-Not-Wait's bounded fork wait actually pay off (the synchronous
// ledger is a straight sum, so a hedge there *adds* its transit). The
// legacy run doubles as the control that straggling alone (without the
// stack's interventions) never biased the estimate in the first place.
TEST(StatStragglerTest, ResilienceCutsCoalitionMakespan) {
  auto resilient = RunStragglerReplicates(
      CoalitionPlan(0.10), FullResilience(), EngineKind::kAsync,
      /*deadline_ms=*/0.0, verify::Replicates(10, 32), 0x57a4);
  auto legacy = RunStragglerReplicates(
      CoalitionPlan(0.10), net::StragglerPolicy{}, EngineKind::kAsync,
      /*deadline_ms=*/0.0, verify::Replicates(10, 32), 0x57a4);
  ASSERT_GT(resilient.acc.total(), 0u);
  ASSERT_GT(legacy.acc.total(), 0u);
  EXPECT_LT(resilient.latencies_ms.mean(), 0.9 * legacy.latencies_ms.mean());
  EXPECT_EQ(legacy.skips + legacy.hedges, 0u);
  EXPECT_STAT_PASS(
      verify::MeanZTest(legacy.acc.errors(), 0.0, verify::DefaultAlpha()));
}

// --- Deadline: anytime answers ----------------------------------------------

// A deadline shorter than the typical makespan must produce anytime
// answers — deadline_hit set, query still answered — without the estimate
// drifting beyond a loose envelope (the early cutoff favors fast replies,
// which under an iid tail is value-independent).
TEST(StatStragglerTest, DeadlineProducesAnytimeAnswers) {
  auto run = RunStragglerReplicates(ParetoTailPlan(), FullResilience(),
                                    EngineKind::kAsync,
                                    /*deadline_ms=*/12000.0,
                                    verify::Replicates(10, 32), 0x57a5);
  ASSERT_GT(run.acc.total(), 0u);
  EXPECT_EQ(run.failures, 0u);
  EXPECT_GT(run.deadline_hits, 0u);
  EXPECT_LT(run.normalized_errors.mean(), 0.30);
}

// --- Chaos matrix -----------------------------------------------------------

// One cell of the straggler chaos matrix: P2PAQP_STRAGGLER_TAIL x
// P2PAQP_STRAGGLER_HEDGE x P2PAQP_STRAGGLER_DEADLINE select the regime;
// every cell must answer with bounded error on the async engine. Unset
// variables default to the acceptance regime (Pareto, hedging on, no
// deadline).
TEST(StatStragglerTest, ChaosMatrixCellStaysBounded) {
  net::FaultPlan fault = ParetoTailPlan();
  if (const char* env = std::getenv("P2PAQP_STRAGGLER_TAIL")) {
    std::string tail = env;
    if (tail == "lognormal") {
      fault = LognormalTailPlan();
    } else if (tail == "coalition") {
      fault = CoalitionPlan(0.10);
    } else {
      ASSERT_EQ(tail, "pareto") << "unknown tail regime: " << tail;
    }
  }
  net::StragglerPolicy policy = FullResilience();
  if (const char* env = std::getenv("P2PAQP_STRAGGLER_HEDGE")) {
    if (std::atoi(env) == 0) {
      policy.hedged_replies = false;
      policy.exponential_backoff = false;
    }
  }
  double deadline_ms = 0.0;
  bool tight = false;
  if (const char* env = std::getenv("P2PAQP_STRAGGLER_DEADLINE")) {
    std::string regime = env;
    if (regime == "tight") {
      deadline_ms = 12000.0;
      tight = true;
    } else if (regime == "loose") {
      deadline_ms = 120000.0;
    } else {
      ASSERT_EQ(regime, "0") << "unknown deadline regime: " << regime;
    }
  }
  auto run = RunStragglerReplicates(fault, policy, EngineKind::kAsync,
                                    deadline_ms, verify::Replicates(8, 24),
                                    0x57c0);
  ASSERT_GT(run.acc.total(), 0u);
  // Tails delay but never destroy messages: every replicate must answer.
  EXPECT_EQ(run.failures, 0u);
  // Regime-aware envelope: a tight deadline legitimately rests the anytime
  // estimate on a truncated sample, so its honest noise band is wider.
  EXPECT_LT(run.normalized_errors.mean(), tight ? 0.35 : 0.15);
  if (tight) {
    EXPECT_GT(run.deadline_hits, 0u);
  }
}

}  // namespace
}  // namespace p2paqp
