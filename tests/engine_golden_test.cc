// Cross-commit golden digests for the three executors of the two-phase plan:
// the synchronous TwoPhaseEngine, the event-driven AsyncQuerySession and the
// multi-query QueryScheduler.
//
// The determinism tests compare two runs inside one build, so they cannot
// see a refactor that moves an output. These constants were taken once and
// pinned: every case hashes every ApproximateAnswer field (plus the async
// report's clocks, or the scheduler batch's cost and frame stats) and the
// full HistoryRecorder stream into one 64-bit FNV-1a digest. A refactor that
// claims bit-identical behaviour must pass this file unchanged; a change
// that moves an output on purpose re-pins the affected digests and says why.
//
// On mismatch the failure message prints the actual digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "core/async_engine.h"
#include "core/multi_query.h"
#include "net/adversary.h"
#include "net/churn.h"
#include "net/fault.h"
#include "net/history.h"
#include "test_common.h"

namespace p2paqp {
namespace {

using p2paqp::testing::MakeTestNetwork;
using p2paqp::testing::TestNetwork;
using p2paqp::testing::TestNetworkParams;

class Digest {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 1099511628211ull;
    }
  }
  void AddString(const std::string& s) {
    Add(s.size());
    for (char c : s) Add(c);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

void AddCost(const net::CostSnapshot& c, Digest* d) {
  d->Add(c.peers_visited);
  d->Add(c.walker_hops);
  d->Add(c.messages);
  d->Add(c.bytes_shipped);
  d->Add(c.tuples_scanned);
  d->Add(c.tuples_sampled);
  d->Add(c.latency_ms);
  d->Add(c.messages_delivered);
  d->Add(c.messages_dropped);
}

void AddAnswer(const util::Result<core::ApproximateAnswer>& result,
               Digest* d) {
  d->Add(static_cast<int>(result.status().code()));
  if (!result.ok()) {
    d->AddString(result.status().message());
    return;
  }
  const core::ApproximateAnswer& a = *result;
  d->Add(a.estimate);
  d->Add(a.variance);
  d->Add(a.ci_half_width_95);
  d->Add(a.estimated_total);
  d->Add(a.cv_error_relative);
  d->Add(a.phase1_peers);
  d->Add(a.phase2_peers);
  d->Add(a.sample_tuples);
  AddCost(a.cost, d);
  d->Add(a.degraded);
  d->Add(a.observations_lost);
  d->Add(a.walk_restarts);
  d->Add(a.achieved_error);
  d->Add(a.suspected_peers);
  d->Add(a.trimmed_mass);
  d->Add(a.duplicate_replies);
  d->Add(a.deadline_hit);
  d->Add(a.hedges_sent);
  d->Add(a.stragglers_skipped);
}

void AddHistory(const net::HistoryRecorder& history, Digest* d) {
  d->Add(history.size());
  for (const net::HistoryEvent& e : history.events()) {
    d->Add(static_cast<int>(e.kind));
    d->Add(static_cast<int>(e.type));
    d->Add(e.from);
    d->Add(e.to);
    d->Add(e.batch);
    d->Add(e.tag);
  }
}

enum class Regime { kClean, kLossy, kAdversarial, kStraggler };

TestNetworkParams SmallWorld() {
  TestNetworkParams params;
  params.num_peers = 400;
  params.num_edges = 2000;
  params.cut_edges = 100;
  params.tuples_per_peer = 30;
  params.seed = 616;
  return params;
}

net::FaultPlan StragglerFaults() {
  net::FaultPlan plan;
  plan.tail = net::LatencyTail::kPareto;
  plan.tail_scale_ms = 10.0;
  plan.tail_alpha = 1.1;
  plan.slow_fraction = 0.1;
  plan.slow_factor = 20.0;
  plan.crash_immune = {0};  // The sink.
  return plan;
}

net::AdversaryPlan Adversaries() {
  net::AdversaryPlan plan;
  plan.adversary_fraction = 0.15;
  plan.immune = {0};
  plan.degree_factor = 3.0;
  plan.value_scale = 5.0;
  plan.outlier_probability = 0.2;
  plan.replay_copies = 2;
  return plan;
}

core::RobustnessPolicy Defenses() {
  core::RobustnessPolicy policy;
  policy.estimator = core::RobustEstimatorKind::kWinsorized;
  policy.trim_fraction = 0.05;
  policy.mad_cutoff = 6.0;
  policy.degree_audit_probes = 3;
  return policy;
}

net::StragglerPolicy FullStragglerStack() {
  net::StragglerPolicy policy;
  policy.walk_not_wait = true;
  policy.health_tracking = true;
  policy.hedged_replies = true;
  policy.exponential_backoff = true;
  return policy;
}

// Installs the regime's fault/adversary plans and fills its engine knobs.
void ApplyRegime(Regime regime, TestNetwork& tn, core::EngineParams* params) {
  params->phase1_peers = 30;
  params->max_phase2_peers = 120;
  switch (regime) {
    case Regime::kClean:
      break;
    case Regime::kLossy: {
      net::FaultPlan plan;
      plan.drop_probability = 0.15;
      tn.network.InstallFaultPlan(plan, 4040);
      break;
    }
    case Regime::kAdversarial: {
      net::FaultPlan plan;
      plan.drop_probability = 0.1;
      tn.network.InstallFaultPlan(plan, 777);
      tn.network.InstallAdversaryPlan(Adversaries(), 888);
      params->robustness = Defenses();
      break;
    }
    case Regime::kStraggler:
      tn.network.InstallFaultPlan(StragglerFaults(), 4242);
      params->straggler = FullStragglerStack();
      break;
  }
}

query::AggregateQuery Query(query::AggregateOp op) {
  query::AggregateQuery q;
  q.op = op;
  q.predicate = {1, 30};
  q.required_error = 0.1;
  q.quantile_phi = 0.75;
  return q;
}

struct GoldenCase {
  const char* name;
  uint64_t digest;
};

// ---- Synchronous engine: six operators x four regimes. ----

uint64_t SyncDigest(query::AggregateOp op, Regime regime) {
  TestNetwork tn = MakeTestNetwork(SmallWorld());
  net::HistoryRecorder history;
  tn.network.set_history(&history);
  core::EngineParams params;
  ApplyRegime(regime, tn, &params);
  core::TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  util::Rng rng(99);
  Digest d;
  AddAnswer(engine.Execute(Query(op), /*sink=*/0, rng), &d);
  AddHistory(history, &d);
  tn.network.set_history(nullptr);
  return d.value();
}

TEST(EngineGoldenTest, SyncEngineMatchesPinnedDigests) {
  const query::AggregateOp ops[] = {
      query::AggregateOp::kCount,  query::AggregateOp::kSum,
      query::AggregateOp::kAvg,    query::AggregateOp::kMedian,
      query::AggregateOp::kQuantile, query::AggregateOp::kDistinct};
  const Regime regimes[] = {Regime::kClean, Regime::kLossy,
                            Regime::kAdversarial, Regime::kStraggler};
  const char* op_names[] = {"count", "sum", "avg",
                            "median", "quantile", "distinct"};
  const char* regime_names[] = {"clean", "lossy", "adversarial", "straggler"};
  const uint64_t golden[6][4] = {
      {0xc80774f322b64f66ull, 0x52be8b0f2979bda0ull, 0xde27da86ad6161d1ull,
       0xb1ce25d57c66ab7full},
      {0x80d95f1f0090cc2aull, 0x65b4a275437f1ad7ull, 0xe3cf20e435d96897ull,
       0xd5429985539495a0ull},
      {0xc18dbed89c4da04cull, 0x0a91fde7d638048eull, 0x9d2337dd99ca3a1cull,
       0x6bfc607d35438aa3ull},
      {0x3c5010f2cafa4556ull, 0xa629a1ed63bc04dbull, 0x14fc80b3f524266eull,
       0xb0d6f875410fe8a4ull},
      {0xf96bc08fa0296112ull, 0x730f523dacb4f06aull, 0xb431a1f11b29e800ull,
       0x5badcfba1699b47aull},
      {0xfebb5da951a2e3e1ull, 0xaec197d364bfb1b8ull, 0x730a7bfb71944e38ull,
       0xffc3b5a20bfd6043ull},
  };
  for (size_t o = 0; o < 6; ++o) {
    for (size_t r = 0; r < 4; ++r) {
      uint64_t actual = SyncDigest(ops[o], regimes[r]);
      EXPECT_EQ(actual, golden[o][r])
          << op_names[o] << " x " << regime_names[r] << ": actual 0x"
          << std::hex << actual << "ull";
    }
  }
}

// ---- Event-driven session. ----

enum class AsyncCase {
  kClean,
  kLossy,
  kAdversarial,
  kStraggler,
  kDeadlineHit,
  kDeadlineStarvesPhaseOne,
  kDeadlineBeforeFirstReply,
  kChurnWithDeadline,
};

// One async case's outcome: the digest the golden table pins, plus what
// the property checks below read directly.
struct AsyncRun {
  uint64_t digest = 0;
  util::Result<core::AsyncQueryReport> report =
      util::Status::Internal("not run");
  size_t phase1_requested = 0;
  double deadline_ms = 0.0;
  net::ChurnCounters churn;
};

AsyncRun RunAsyncCase(AsyncCase which) {
  TestNetwork tn = MakeTestNetwork(SmallWorld());
  net::HistoryRecorder history;
  tn.network.set_history(&history);
  core::AsyncParams params;
  params.walkers = 4;
  params.walk.jump = tn.catalog.suggested_jump;
  params.walk.burn_in = tn.catalog.suggested_burn_in;
  query::AggregateQuery q = Query(query::AggregateOp::kCount);
  net::ChurnParams churn_params;
  churn_params.leave_probability = 0.01;
  churn_params.rejoin_probability = 0.2;
  churn_params.pinned = {0};
  net::ChurnModel churn(churn_params, 2024);
  switch (which) {
    case AsyncCase::kClean:
      ApplyRegime(Regime::kClean, tn, &params.engine);
      break;
    case AsyncCase::kLossy:
      ApplyRegime(Regime::kLossy, tn, &params.engine);
      q = Query(query::AggregateOp::kSum);
      break;
    case AsyncCase::kAdversarial:
      ApplyRegime(Regime::kAdversarial, tn, &params.engine);
      break;
    case AsyncCase::kStraggler:
      ApplyRegime(Regime::kStraggler, tn, &params.engine);
      break;
    case AsyncCase::kDeadlineHit:
      // Phase I completes; the deadline cuts phase II short.
      ApplyRegime(Regime::kStraggler, tn, &params.engine);
      params.engine.deadline_ms = 100000.0;
      break;
    case AsyncCase::kDeadlineStarvesPhaseOne:
      // Exactly one phase-I reply beats the deadline: no cross-validation,
      // an anytime answer with achieved_error 1.
      ApplyRegime(Regime::kStraggler, tn, &params.engine);
      params.engine.deadline_ms = 24500.0;
      break;
    case AsyncCase::kDeadlineBeforeFirstReply:
      ApplyRegime(Regime::kStraggler, tn, &params.engine);
      params.engine.deadline_ms = 1.0;
      break;
    case AsyncCase::kChurnWithDeadline:
      // Phase I is cut with enough replies to plan; phase II never starts.
      ApplyRegime(Regime::kLossy, tn, &params.engine);
      params.churn = &churn;
      params.churn_interval_ms = 120.0;
      params.engine.deadline_ms = 35000.0;
      break;
  }
  core::AsyncQuerySession session(&tn.network, tn.catalog, params);
  util::Rng rng(57);
  auto report = session.Execute(q, /*sink=*/0, rng);
  Digest d;
  d.Add(static_cast<int>(report.status().code()));
  if (report.ok()) {
    AddAnswer(report->answer, &d);
    d.Add(report->makespan_ms);
    d.Add(report->phase1_done_ms);
    d.Add(report->events);
  } else {
    d.AddString(report.status().message());
  }
  AddHistory(history, &d);
  tn.network.set_history(nullptr);
  AsyncRun run;
  run.digest = d.value();
  run.report = std::move(report);
  run.phase1_requested = params.engine.phase1_peers;
  run.deadline_ms = params.engine.deadline_ms;
  run.churn = churn.counters();
  return run;
}

uint64_t AsyncDigest(AsyncCase which) { return RunAsyncCase(which).digest; }

TEST(EngineGoldenTest, AsyncSessionMatchesPinnedDigests) {
  const GoldenCase golden[] = {
      {"clean", 0x7ad0bc3e273d7433ull},
      {"lossy", 0xedecc4799570b4a8ull},
      {"adversarial", 0x9c46620d779b8832ull},
      {"straggler", 0x587174e12225a2a0ull},
      {"deadline_hit", 0xf7bed4008d09c17dull},
      {"deadline_starves_phase1", 0xd4858fad8a72d87dull},
      {"deadline_before_first_reply", 0x5bf2d0dd837dff9full},
      // Re-pinned when churn epochs moved to geometric leave skips: same
      // per-peer law, new churn stream (DESIGN.md, "Churn epochs").
      {"churn_with_deadline", 0xc9d6c60bc203b2e5ull},
  };
  for (size_t i = 0; i < std::size(golden); ++i) {
    uint64_t actual = AsyncDigest(static_cast<AsyncCase>(i));
    EXPECT_EQ(actual, golden[i].digest)
        << golden[i].name << ": actual 0x" << std::hex << actual << "ull";
  }
}

// The churn cell pins one churn stream; the property its comment names
// must hold on whatever stream is pinned, so it is checked here directly:
// churn ran, the deadline cut phase I with enough replies to cross-validate
// a plan, and phase II never started.
TEST(EngineGoldenTest, ChurnWithDeadlineCutsPhaseOneAndSkipsPhaseTwo) {
  AsyncRun run = RunAsyncCase(AsyncCase::kChurnWithDeadline);
  EXPECT_GT(run.churn.epochs, 0u);
  EXPECT_GT(run.churn.departures + run.churn.rejoins, 0u);
  ASSERT_TRUE(run.report.ok()) << run.report.status().ToString();
  const core::ApproximateAnswer& answer = run.report->answer;
  EXPECT_TRUE(answer.deadline_hit);
  EXPECT_GE(answer.phase1_peers, 2u);
  EXPECT_LT(answer.phase1_peers, run.phase1_requested);
  EXPECT_LT(answer.achieved_error, 1.0);
  EXPECT_EQ(answer.phase2_peers, 0u);
  EXPECT_LE(run.report->phase1_done_ms, run.deadline_ms);
}

// ---- Multi-query scheduler: three regimes, three batches each. ----

uint64_t SchedulerDigest(Regime regime) {
  TestNetwork tn = MakeTestNetwork(SmallWorld());
  net::HistoryRecorder history;
  tn.network.set_history(&history);
  core::SchedulerParams params;
  ApplyRegime(regime, tn, &params.engine);
  params.walk.jump = tn.catalog.suggested_jump;
  params.walk.burn_in = tn.catalog.suggested_burn_in;
  core::FreshnessCache cache(/*ttl_epochs=*/10, /*max_entries=*/1 << 12);
  core::QueryScheduler scheduler(&tn.network, tn.catalog, params, &cache);
  std::vector<query::AggregateQuery> queries;
  for (int hi : {20, 40, 60}) {
    query::AggregateQuery q = Query(query::AggregateOp::kCount);
    q.predicate = {1, hi};
    queries.push_back(q);
  }
  queries.push_back(Query(query::AggregateOp::kSum));
  util::Rng rng(321);
  Digest d;
  for (int batch = 0; batch < 3; ++batch) {
    core::BatchResult result = scheduler.ExecuteBatch(queries, /*sink=*/0, rng);
    d.Add(result.answers.size());
    for (const auto& answer : result.answers) AddAnswer(answer, &d);
    AddCost(result.cost, &d);
    d.Add(result.frame.frame_hits);
    d.Add(result.frame.frame_misses);
    d.Add(result.frame.rebuilds);
    d.Add(result.frame.frame_epoch);
  }
  AddHistory(history, &d);
  tn.network.set_history(nullptr);
  return d.value();
}

TEST(EngineGoldenTest, SchedulerMatchesPinnedDigests) {
  const GoldenCase golden[] = {
      {"clean", 0xce78a2ec3a06eb2eull},
      {"lossy", 0xddf14d87f6fb0442ull},
      {"adversarial", 0xf047ce08db068c7dull},
  };
  const Regime regimes[] = {Regime::kClean, Regime::kLossy,
                            Regime::kAdversarial};
  for (size_t i = 0; i < std::size(golden); ++i) {
    uint64_t actual = SchedulerDigest(regimes[i]);
    EXPECT_EQ(actual, golden[i].digest)
        << golden[i].name << ": actual 0x" << std::hex << actual << "ull";
  }
}

}  // namespace
}  // namespace p2paqp
