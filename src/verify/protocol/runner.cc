#include "verify/protocol/runner.h"

#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "core/async_engine.h"
#include "core/baselines.h"
#include "core/catalog.h"
#include "core/hybrid.h"
#include "core/multi_query.h"
#include "core/two_phase.h"
#include "data/generator.h"
#include "data/partitioner.h"
#include "net/adversary.h"
#include "net/churn.h"
#include "net/fault.h"
#include "net/history.h"
#include "net/network.h"
#include "query/query.h"
#include "sampling/random_walk.h"
#include "topology/factory.h"
#include "util/rng.h"
#include "verify/protocol/history_checker.h"

namespace p2paqp::verify {

namespace {

// Distinct sub-seed domains so the topology / data / transport / fault /
// adversary / churn / query / run streams never alias each other.
constexpr uint64_t kTopoSalt = 0x746F706FULL;
constexpr uint64_t kDataSalt = 0x64617461ULL;
constexpr uint64_t kNetSalt = 0x6E657477ULL;
constexpr uint64_t kFaultSalt = 0x6661756CULL;
constexpr uint64_t kAdvSalt = 0x61647665ULL;
constexpr uint64_t kChurnSalt = 0x63687572ULL;
constexpr uint64_t kQuerySalt = 0x71756572ULL;
constexpr uint64_t kRunSalt = 0x6578656BULL;

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return util::MixSeed(seed ^ salt);
}

// The fixed query sink; pinned against crashes, churn and the adversary so
// every failure the oracles see is a protocol property, not a dead sink.
constexpr graph::NodeId kSink = 0;

net::FaultPlan BuildFaultPlan(const ChaosPlan& plan) {
  net::FaultPlan fp;
  fp.drop_probability = plan.drop_pm / 1000.0;
  fp.spike_probability = plan.spike_pm / 1000.0;
  fp.crash_probability = plan.crash_pm / 1000.0;
  for (const auto& [at, peer] : plan.scheduled_crashes) {
    graph::NodeId id = peer % plan.num_peers;
    if (id == kSink) id = 1;
    fp.scheduled_crashes.push_back(net::ScheduledCrash{at, id});
  }
  fp.crash_immune = {kSink};
  if (plan.tail_kind == 1) fp.tail = net::LatencyTail::kPareto;
  if (plan.tail_kind == 2) fp.tail = net::LatencyTail::kLognormal;
  if (plan.tail_scale_ms > 0) fp.tail_scale_ms = plan.tail_scale_ms;
  fp.slow_fraction = plan.slow_pm / 1000.0;
  if (plan.slow_factor > 0) fp.slow_factor = plan.slow_factor;
  return fp;
}

net::AdversaryPlan BuildAdversaryPlan(const ChaosPlan& plan) {
  net::AdversaryPlan ap;
  ap.adversary_fraction = plan.adversary_pm / 1000.0;
  ap.immune = {kSink};
  // Canonical per-behavior knobs (net::AdversaryBehavior order); multiple
  // mask bits compose onto one coalition.
  if (plan.behavior_mask & (1u << 0)) ap.degree_factor = 4.0;
  if (plan.behavior_mask & (1u << 1)) ap.degree_factor = 0.25;
  if (plan.behavior_mask & (1u << 2)) ap.value_scale = -1.0;
  if (plan.behavior_mask & (1u << 3)) ap.value_scale = 10.0;
  if (plan.behavior_mask & (1u << 4)) {
    ap.outlier_probability = 0.5;
    ap.outlier_magnitude = 100.0;
  }
  if (plan.behavior_mask & (1u << 5)) ap.replay_copies = 3;
  if (plan.behavior_mask & (1u << 6)) ap.hijack_walk = true;
  return ap;
}

std::vector<query::AggregateQuery> BuildQueries(const ChaosPlan& plan) {
  util::Rng rng(SubSeed(plan.seed, kQuerySalt));
  std::vector<query::AggregateQuery> queries;
  queries.reserve(plan.num_queries);
  for (uint32_t i = 0; i < plan.num_queries; ++i) {
    query::AggregateQuery q;
    q.op = rng.Bernoulli(0.5) ? query::AggregateOp::kCount
                              : query::AggregateOp::kSum;
    data::Value lo = rng.UniformInt(1, 80);
    q.predicate = query::RangePredicate{
        lo, static_cast<data::Value>(lo + rng.UniformInt(5, 20))};
    q.required_error = static_cast<double>(rng.UniformInt(15, 50)) / 100.0;
    queries.push_back(q);
  }
  return queries;
}

double ExactAnswer(const net::SimulatedNetwork& network,
                   const query::AggregateQuery& q) {
  if (q.op == query::AggregateOp::kCount) {
    return static_cast<double>(
        network.ExactCount(q.predicate.lo, q.predicate.hi));
  }
  return static_cast<double>(network.ExactSum(q.predicate.lo, q.predicate.hi));
}

double ExactTotal(const net::SimulatedNetwork& network,
                  const query::AggregateQuery& q) {
  if (q.op == query::AggregateOp::kCount) {
    return static_cast<double>(network.TotalTuples());
  }
  return static_cast<double>(
      network.ExactSum(std::numeric_limits<data::Value>::min(),
                       std::numeric_limits<data::Value>::max()));
}

// --- FNV-1a replay digest --------------------------------------------------

class Fnv1a {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  void MixDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

// Rebirths of a peer that went down holding a walker token it had not
// forwarded, each counted once the walk traffic goes on after it.
size_t CountHolderRebirths(const std::vector<net::HistoryEvent>& events,
                           size_t num_peers) {
  std::vector<uint8_t> holding(num_peers, 0);
  std::vector<uint8_t> died_holding(num_peers, 0);
  size_t pending = 0;
  size_t rebirths = 0;
  for (const net::HistoryEvent& e : events) {
    const bool walker = e.type == net::MessageType::kWalker;
    switch (e.kind) {
      case net::HistoryEventKind::kDeliver:
        if (walker) holding[e.to] = 1;
        break;
      case net::HistoryEventKind::kSend:
        if (!walker) break;
        holding[e.from] = 0;
        rebirths += pending;
        pending = 0;
        break;
      case net::HistoryEventKind::kPeerDown:
        died_holding[e.from] = holding[e.from];
        holding[e.from] = 0;
        break;
      case net::HistoryEventKind::kPeerUp:
        if (died_holding[e.from]) {
          died_holding[e.from] = 0;
          ++pending;
        }
        break;
      default:
        break;
    }
  }
  return rebirths;
}

uint64_t ComputeDigest(const std::vector<AnswerRecord>& answers,
                       const net::CostSnapshot& cost,
                       const std::vector<net::HistoryEvent>& events) {
  Fnv1a h;
  for (const AnswerRecord& r : answers) {
    h.Mix(r.query_index);
    h.Mix(r.batch_index);
    h.Mix(r.ok ? 1 : 0);
    if (!r.ok) continue;
    h.MixDouble(r.answer.estimate);
    h.MixDouble(r.answer.ci_half_width_95);
    h.MixDouble(r.answer.variance);
    h.Mix(r.answer.phase1_peers);
    h.Mix(r.answer.phase2_peers);
    h.Mix(r.answer.observations_lost);
    h.Mix(r.answer.degraded ? 1 : 0);
  }
  h.Mix(cost.messages);
  h.Mix(cost.messages_delivered);
  h.Mix(cost.messages_dropped);
  h.Mix(cost.bytes_shipped);
  h.Mix(cost.walker_hops);
  for (const net::HistoryEvent& e : events) {
    h.Mix(static_cast<uint64_t>(e.kind));
    h.Mix(static_cast<uint64_t>(e.type));
    h.Mix(e.from);
    h.Mix(e.to);
    h.Mix(e.batch);
    h.Mix(e.tag);
  }
  return h.hash();
}

void Fail(ChaosRunReport* report, const std::string& what) {
  report->violations.push_back(what);
}

}  // namespace

ChaosRunReport RunChaosPlan(const ChaosPlan& plan) {
  ChaosRunReport report;
  report.plan = plan;

  // --- World ---------------------------------------------------------------
  topology::TopologyConfig topo;
  topo.kind = topology::TopologyKind::kClustered;
  topo.num_nodes = plan.num_peers;
  topo.num_edges =
      static_cast<size_t>(plan.num_peers) * plan.avg_degree / 2;
  topo.num_subgraphs = 2;
  topo.cut_edges = std::max<size_t>(2, topo.num_edges / 20);
  util::Rng topo_rng(SubSeed(plan.seed, kTopoSalt));
  auto topo_result = topology::MakeTopology(topo, topo_rng);
  if (!topo_result.ok()) {
    Fail(&report, "world construction failed (topology): " +
                      topo_result.status().message());
    return report;
  }

  data::DatasetParams dataset;
  dataset.num_tuples =
      static_cast<size_t>(plan.num_peers) * plan.tuples_per_peer;
  dataset.skew = plan.skew_pct / 100.0;
  util::Rng data_rng(SubSeed(plan.seed, kDataSalt));
  auto table = data::GenerateDataset(dataset, data_rng);
  if (!table.ok()) {
    Fail(&report,
         "world construction failed (dataset): " + table.status().message());
    return report;
  }
  data::PartitionParams partition;
  partition.cluster_level = plan.cluster_pct / 100.0;
  partition.bfs_root = kSink;
  auto databases = data::PartitionAcrossPeers(*table, topo_result->graph,
                                              partition, data_rng);
  if (!databases.ok()) {
    Fail(&report, "world construction failed (partition): " +
                      databases.status().message());
    return report;
  }

  // Cheap exact-count catalog (no spectral pass): the paper pins j anyway.
  core::SystemCatalog catalog =
      core::MakeCatalog(topo_result->graph, /*jump=*/4, /*burn_in=*/24);

  auto network_result = net::SimulatedNetwork::Make(
      std::move(topo_result->graph), std::move(*databases), net::NetworkParams{},
      SubSeed(plan.seed, kNetSalt));
  if (!network_result.ok()) {
    Fail(&report, "world construction failed (network): " +
                      network_result.status().message());
    return report;
  }
  net::SimulatedNetwork network = std::move(*network_result);

  net::HistoryRecorder history;
  network.set_history(&history);
  if (plan.faults_enabled()) {
    network.InstallFaultPlan(BuildFaultPlan(plan),
                             SubSeed(plan.seed, kFaultSalt));
  }
  if (plan.adversary_enabled()) {
    network.InstallAdversaryPlan(BuildAdversaryPlan(plan),
                                 SubSeed(plan.seed, kAdvSalt));
  }
  net::ChurnParams churn_params;
  churn_params.leave_probability = plan.churn_leave_pm / 1000.0;
  churn_params.rejoin_probability = plan.churn_rejoin_pm / 1000.0;
  churn_params.pinned = {kSink};
  net::ChurnModel churn(churn_params, SubSeed(plan.seed, kChurnSalt));

  // --- Workload ------------------------------------------------------------
  std::vector<query::AggregateQuery> queries = BuildQueries(plan);

  core::EngineParams engine;
  engine.phase1_peers = plan.phase1_peers;
  engine.tuples_per_peer = plan.tuples_per_peer;
  engine.cv_repeats = 6;
  engine.reply_retransmits = plan.retransmits;
  engine.min_observation_quorum = plan.quorum_pct / 100.0;
  engine.straggler.walk_not_wait = plan.wnw;
  engine.straggler.health_tracking = plan.wnw;  // Breaker rides with WNW.
  engine.straggler.hedged_replies = plan.hedge;
  engine.straggler.exponential_backoff = plan.backoff;
  engine.deadline_ms = plan.deadline_ms;  // Async engine only; others ignore.

  sampling::WalkParams walk;
  walk.jump = 4;
  walk.burn_in = 24;

  util::Rng run_rng(SubSeed(plan.seed, kRunSalt));
  std::vector<FrameBatchRecord> frame_batches;

  // Long-lived execution state (scheduler variants keep the frame and the
  // epoch clock across batches).
  core::FreshnessCache cache(plan.frame_ttl);
  core::SchedulerParams sched_params;
  sched_params.engine = engine;
  sched_params.walk = walk;
  sched_params.frame_ttl_epochs = plan.frame_ttl;
  sched_params.batch_walkers = plan.batch_walkers;
  sched_params.reuse_frame = plan.reuse_frame;
  core::QueryScheduler scheduler(&network, catalog, sched_params, &cache);
  core::TwoPhaseEngine two_phase(&network, catalog, engine);
  core::AsyncParams async_params;
  async_params.engine = engine;
  async_params.walkers = 2;
  async_params.walk = walk;
  if (plan.churn_enabled()) {
    async_params.churn = &churn;
    async_params.churn_interval_ms = 40.0;
  }
  core::AsyncQuerySession async(&network, catalog, async_params);
  // BFS-flood baseline: the two-phase plan fed by FloodCollect samples, so
  // the chaos sweep exercises the reverse-path reply routing (per-hop
  // QueryHit sends the history checker audits for causality).
  std::unique_ptr<core::TwoPhaseEngine> flood = core::MakeBaselineEngine(
      &network, catalog, engine, core::BaselineKind::kBfs);

  for (uint32_t batch = 0; batch < plan.num_batches; ++batch) {
    std::vector<double> truth_before(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      truth_before[q] = ExactAnswer(network, queries[q]);
    }

    std::vector<util::Result<core::ApproximateAnswer>> answers;
    switch (plan.engine) {
      case ChaosEngineKind::kScheduler: {
        FrameBatchRecord fb;
        fb.batch_index = batch;
        fb.frame_before = scheduler.frame_size();
        core::BatchResult result =
            scheduler.ExecuteBatch(queries, kSink, run_rng);
        fb.carry = scheduler.batch_carry();
        fb.frame_after = scheduler.frame_size();
        fb.stats = result.frame;
        frame_batches.push_back(fb);
        answers = std::move(result.answers);
        break;
      }
      case ChaosEngineKind::kTwoPhase: {
        for (const query::AggregateQuery& q : queries) {
          answers.push_back(two_phase.Execute(q, kSink, run_rng));
        }
        break;
      }
      case ChaosEngineKind::kAsync: {
        for (const query::AggregateQuery& q : queries) {
          auto r = async.Execute(q, kSink, run_rng);
          if (r.ok()) {
            answers.push_back(std::move(r->answer));
          } else {
            answers.push_back(r.status());
          }
        }
        break;
      }
      case ChaosEngineKind::kFlood: {
        for (const query::AggregateQuery& q : queries) {
          answers.push_back(flood->Execute(q, kSink, run_rng));
        }
        break;
      }
    }

    for (size_t q = 0; q < queries.size(); ++q) {
      AnswerRecord record;
      record.query_index = q;
      record.batch_index = batch;
      record.truth_before = truth_before[q];
      record.truth_after = ExactAnswer(network, queries[q]);
      record.truth_total = ExactTotal(network, queries[q]);
      if (q < answers.size() && answers[q].ok()) {
        record.ok = true;
        record.answer = *answers[q];
        ++report.answers_ok;
      } else {
        record.ok = false;
        record.error = q < answers.size() ? answers[q].status().message()
                                          : "no answer produced";
        ++report.answers_failed;
      }
      report.answers.push_back(std::move(record));
    }

    // Inter-batch world evolution: churn epochs plus one data-churn tick on
    // the freshness clock (drives frame TTL expiry in the scheduler).
    if (batch + 1 < plan.num_batches) {
      if (plan.churn_enabled()) {
        for (uint32_t s = 0; s < plan.churn_steps; ++s) churn.Step(network);
      }
      cache.AdvanceEpoch();
    }
  }

  // --- Oracles -------------------------------------------------------------
  for (std::string& v : CheckAnswerInvariants(plan, report.answers)) {
    report.violations.push_back(std::move(v));
  }
  if (plan.engine == ChaosEngineKind::kScheduler) {
    for (std::string& v : CheckFrameAccounting(plan, frame_batches)) {
      report.violations.push_back(std::move(v));
    }
  }
  for (std::string& v : CheckCostConservation(
           network.cost_snapshot(),
           history.Count(net::HistoryEventKind::kSend),
           history.Count(net::HistoryEventKind::kDeliver),
           history.Count(net::HistoryEventKind::kDrop))) {
    report.violations.push_back(std::move(v));
  }
  for (std::string& v : CheckHistory(history.events())) {
    report.violations.push_back(std::move(v));
  }

  report.history_events = history.size();
  report.churn_transitions =
      churn.counters().departures + churn.counters().rejoins;
  report.holder_rebirths = CountHolderRebirths(history.events(),
                                               network.num_peers());
  report.digest =
      ComputeDigest(report.answers, network.cost_snapshot(), history.events());
  network.set_history(nullptr);
  return report;
}

}  // namespace p2paqp::verify
