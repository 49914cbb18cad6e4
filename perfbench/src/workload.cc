#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>

#include "query/query.h"
#include "trace.h"
#include "util/logging.h"

namespace p2paqp::perfbench {

namespace {

using query::AggregateOp;

// Seed streams derived from the workload seed, one per consumer, so no
// consumer's draws shift another's.
enum SeedStream : uint64_t {
  kQueryStream = 1,
  kExecStream,
  kNetworkStream,
  kFaultStream,
  kChurnStream,
};

uint64_t DerivedSeed(uint64_t seed, SeedStream stream, uint64_t index = 0) {
  return util::MixSeed(util::MixSeed(seed ^ (stream * 0xD1B54A32D192ED03ULL)) +
                       index);
}

// The warm-up query and the RNG state it runs in come from this fixed seed,
// not the workload seed, so every run's set-up does the same work.
constexpr uint64_t kWarmupSeed = 20060403;

// Every workload's selectivities are uniform over the paper's range
// (2.5%-40%, Figs. 3 and 5), at its default Delta_req.
constexpr double kSelectivityLo = 0.025;
constexpr double kSelectivityHi = 0.40;
constexpr double kRequiredError = 0.1;

WorkloadSpec PaperSync() {
  WorkloadSpec spec;
  spec.name = "paper_sync";
  spec.why =
      "the paper's Sec. 5 worlds and knobs on the synchronous engine; "
      "cache-resident, so sampling, local execution and planning dominate";
  spec.threads = 1;
  spec.alt_threads = 4;
  spec.worlds = {
      WorldSpec{.kind = TopologyKind::kPowerLaw, .peers = 10000,
                .edges = 100000},
      WorldSpec{.kind = TopologyKind::kGnutella, .peers = 22556,
                .edges = 52321},
  };
  spec.jump = 10;
  spec.burn_in = 50;
  spec.engine.phase1_peers = 80;
  spec.engine.tuples_per_peer = 25;
  spec.engine.cv_repeats = 10;
  // bench/harness.cc's cap: past ~1600 peers a plan stops being sampling.
  spec.engine.max_phase2_peers = 1600;
  spec.ops = {AggregateOp::kCount, AggregateOp::kSum, AggregateOp::kAvg,
              AggregateOp::kMedian};
  spec.fixed_queries = 4000;
  spec.setups = 5;
  return spec;
}

// The scale tier's super-peer engine knobs (bench/scale_world.cc).
void ScaleEngine(WorkloadSpec* spec) {
  spec->async = true;
  spec->walkers = 4;
  spec->jump = 4;
  spec->burn_in = 24;
  spec->engine.phase1_peers = 48;
  spec->engine.tuples_per_peer = 2;
  spec->engine.cv_repeats = 4;
  spec->engine.max_phase2_peers = 1600;
  spec->ops = {AggregateOp::kCount, AggregateOp::kSum};
}

WorkloadSpec ScaleAsync() {
  WorkloadSpec spec;
  spec.name = "scale_async";
  spec.why =
      "1M-peer super-peer world above the L3 cache on the event-driven "
      "engine; CSR decode, peer state and the event core dominate";
  // At 4 threads every query also spawns and joins a 3-thread pool per
  // phase (EventQueue::Reserve runs through util::ParallelFor), and that
  // swung p99 between 5.6 and 14.7 ms with host load; 4 stays covered by
  // the digest replay.
  spec.threads = 1;
  spec.alt_threads = 4;
  spec.worlds = {WorldSpec{.kind = TopologyKind::kSuperPeer,
                           .peers = 1000000,
                           .tuples_per_peer = 2}};
  spec.spill_edges = 262144;
  spec.merge_fan_in = 4;
  ScaleEngine(&spec);
  // 2000 queries left makespan_ms_p99 spreading 10% across seeds.
  spec.fixed_queries = 4000;
  return spec;
}

WorkloadSpec ChurnFaultsAsync() {
  WorkloadSpec spec;
  spec.name = "churn_faults_async";
  spec.why =
      "the event-driven engine down its failure paths: drops, a Pareto "
      "tail, a slow coalition, mid-query churn, full straggler stack";
  spec.threads = 1;
  spec.alt_threads = 4;
  spec.worlds = {WorldSpec{.kind = TopologyKind::kSuperPeer,
                           .peers = 50000,
                           .tuples_per_peer = 2}};
  ScaleEngine(&spec);
  net::StragglerPolicy& straggler = spec.engine.straggler;
  straggler.walk_not_wait = true;
  straggler.health_tracking = true;
  straggler.hedged_replies = true;
  straggler.exponential_backoff = true;
  // Past the free-running makespan's 99th percentile (~45 s simulated): a
  // rare deadline hit exercises the anytime path without pinning
  // makespan_ms_p99 to the deadline.
  spec.engine.deadline_ms = 60000.0;
  net::FaultPlan faults;
  faults.drop_probability = 0.02;
  faults.tail = net::LatencyTail::kPareto;
  faults.tail_scale_ms = 10.0;
  // Shape 2 keeps the tail heavy but its variance finite. At 1.1 one
  // straggling copy in a million can be delayed ~10^6 simulated ms, and the
  // post-answer drain keeps stepping churn epochs until it lands: one such
  // query took 110 s of wall time.
  faults.tail_alpha = 2.0;
  faults.slow_fraction = 0.1;
  faults.slow_factor = 20.0;
  spec.faults = faults;
  net::ChurnParams churn;
  churn.leave_probability = 0.01;
  churn.rejoin_probability = 0.2;
  spec.churn = churn;
  // One epoch per 10 s of simulated time: an epoch is O(peers), and at
  // one per second churn alone cut throughput twentyfold.
  spec.churn_interval_ms = 10000.0;
  spec.sink_pool = 8;
  spec.fixed_queries = 4000;
  // A set-up takes ~50 ms here; more of them steady the median.
  spec.setups = 31;
  return spec;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"paper_sync", "scale_async", "churn_faults_async"};
}

WorkloadSpec FindWorkload(const std::string& name, bool tiny) {
  WorkloadSpec spec;
  if (name == "paper_sync") spec = PaperSync();
  if (name == "scale_async") spec = ScaleAsync();
  if (name == "churn_faults_async") spec = ChurnFaultsAsync();
  if (tiny && !spec.name.empty()) {
    // Edges shrink with the peers, keeping each generator's degree.
    for (WorldSpec& world : spec.worlds) {
      const size_t peers = std::max<size_t>(2000, world.peers / 50);
      world.edges = world.edges * peers / world.peers;
      world.peers = peers;
    }
    spec.spill_edges = spec.spill_edges / 50;
    spec.fixed_queries = 40;
    spec.setups = 2;
  }
  return spec;
}

namespace {

util::ZipfGenerator MakeZipf() {
  auto zipf = util::ZipfGenerator::Make(100, kZipfSkew);
  P2PAQP_CHECK(zipf.ok()) << zipf.status().ToString();
  return std::move(*zipf);
}

void SetEnvKnob(const char* name, size_t value) {
  ::setenv(name, std::to_string(value).c_str(), 1);
}

}  // namespace

StaticOracle::StaticOracle(const bench::World* world) : world_(world) {
  std::map<data::Value, int64_t> counts;
  const net::SimulatedNetwork& network = world->network;
  for (graph::NodeId peer = 0; peer < network.num_peers(); ++peer) {
    if (!network.IsAlive(peer)) continue;
    for (const data::Tuple& tuple : network.peer(peer).database().tuples()) {
      ++counts[tuple.value];
    }
  }
  int64_t below = 0;
  for (const auto& [value, count] : counts) {
    values_.push_back(value);
    tuples_below_.push_back(below);
    below += count;
  }
}

double StaticOracle::NormalizedError(const query::AggregateQuery& query,
                                     double estimate) {
  const auto key = std::make_pair(query.predicate.lo, query.predicate.hi);
  auto truth = truths_.find(key);
  if (truth == truths_.end()) {
    truth = truths_
                .emplace(key, std::make_pair(
                                  world_->network.ExactCount(key.first,
                                                             key.second),
                                  world_->network.ExactSum(key.first,
                                                           key.second)))
                .first;
  }
  const double count = static_cast<double>(truth->second.first);
  const double sum = static_cast<double>(truth->second.second);
  switch (query.op) {
    case AggregateOp::kCount:
      return std::fabs(estimate - count) /
             static_cast<double>(world_->total_tuples);
    case AggregateOp::kSum:
      return std::fabs(estimate - sum) /
             static_cast<double>(world_->total_sum);
    case AggregateOp::kAvg: {
      if (count == 0.0) return std::fabs(estimate);
      const double avg = sum / count;
      return avg == 0.0 ? std::fabs(estimate)
                        : std::fabs(estimate - avg) / std::fabs(avg);
    }
    case AggregateOp::kMedian: {
      // Tuples whose value is strictly below the estimate.
      const size_t first_not_below = static_cast<size_t>(
          std::lower_bound(values_.begin(), values_.end(), estimate,
                           [](data::Value value, double target) {
                             return static_cast<double>(value) < target;
                           }) -
          values_.begin());
      const int64_t below = first_not_below < values_.size()
                                ? tuples_below_[first_not_below]
                                : world_->total_tuples;
      return std::fabs(static_cast<double>(below) /
                           static_cast<double>(world_->total_tuples) -
                       0.5);
    }
    default:
      return bench::NormalizedError(*world_, query, estimate);
  }
}

Instance::Instance(const WorkloadSpec& spec, uint64_t seed, StageTimes* times,
                   double* warmup_s)
    : spec_(spec), seed_(seed), zipf_(MakeZipf()) {
  SetEnvKnob("P2PAQP_BUILD_SPILL_EDGES", spec_.spill_edges);
  SetEnvKnob("P2PAQP_BUILD_MERGE_FAN_IN", spec_.merge_fan_in);
  for (const WorldSpec& world : spec_.worlds) {
    worlds_.push_back(BuildWorld(world, times));
  }

  const Clock::time_point start = Clock::now();
  std::vector<graph::NodeId> pool;
  for (size_t i = 0; i < spec_.sink_pool; ++i) pool.push_back(i);
  auto install_regimes = [&](uint64_t seed) {
    if (spec_.churn.has_value()) {
      net::ChurnParams churn = *spec_.churn;
      churn.pinned = pool;
      *churn_ = net::ChurnModel(std::move(churn),
                                DerivedSeed(seed, kChurnStream));
    }
    for (size_t w = 0; w < worlds_.size(); ++w) {
      net::SimulatedNetwork& network = worlds_[w].network;
      network.rng() = util::Rng(DerivedSeed(seed, kNetworkStream, w));
      if (spec_.faults.has_value()) {
        net::FaultPlan plan = *spec_.faults;
        plan.crash_immune = pool;
        network.InstallFaultPlan(plan, DerivedSeed(seed, kFaultStream, w));
      }
    }
  };
  // Sessions keep a pointer to the churn model; install_regimes reseeds it
  // in place.
  if (spec_.churn.has_value()) {
    churn_ = std::make_unique<net::ChurnModel>(*spec_.churn, 0);
  }
  install_regimes(kWarmupSeed);
  for (size_t w = 0; w < worlds_.size(); ++w) {
    net::SimulatedNetwork& network = worlds_[w].network;
    core::SystemCatalog catalog = worlds_[w].catalog;
    catalog.suggested_jump = spec_.jump;
    catalog.suggested_burn_in = spec_.burn_in;
    catalogs_.push_back(catalog);
    if (spec_.async) {
      core::AsyncParams params;
      params.engine = spec_.engine;
      params.walkers = spec_.walkers;
      params.walk.jump = spec_.jump;
      params.walk.burn_in = spec_.burn_in;
      params.churn = churn_.get();
      params.churn_interval_ms = spec_.churn_interval_ms;
      sessions_.push_back(
          std::make_unique<core::AsyncQuerySession>(&network, catalog, params));
    } else {
      engines_.push_back(std::make_unique<core::TwoPhaseEngine>(
          &network, catalog, spec_.engine));
    }
  }
  QueryOutcome warm = Answer(GenerateWith(kWarmupSeed, 0), nullptr);
  P2PAQP_CHECK(warm.ok) << "warm-up query failed";
  *warmup_s = std::chrono::duration<double>(Clock::now() - start).count();
  install_regimes(seed_);
  if (!churn_) {
    for (const bench::World& world : worlds_) oracles_.emplace_back(&world);
  }
}

size_t Instance::total_peers() const {
  size_t peers = 0;
  for (const bench::World& world : worlds_) peers += world.network.num_peers();
  return peers;
}

size_t Instance::total_edges() const {
  size_t edges = 0;
  for (const bench::World& world : worlds_) {
    edges += world.network.graph().num_edges();
  }
  return edges;
}

GeneratedQuery Instance::Generate(size_t index) const {
  return GenerateWith(seed_, index);
}

GeneratedQuery Instance::GenerateWith(uint64_t seed, size_t index) const {
  util::Rng rng(DerivedSeed(seed, kQueryStream, index));
  GeneratedQuery out;
  out.index = index;
  out.world = rng.UniformIndex(worlds_.size());
  out.query.op = spec_.ops[rng.UniformIndex(spec_.ops.size())];
  // The rank oracle (bench::NormalizedError) measures a median against the
  // whole table, so medians run over the full domain.
  if (out.query.op == AggregateOp::kMedian) {
    out.query.predicate = query::RangePredicate{1, 100};
  } else {
    out.query.predicate = query::PredicateForSelectivity(
        zipf_, 1, rng.UniformDouble(kSelectivityLo, kSelectivityHi));
  }
  out.query.required_error = kRequiredError;
  const size_t candidates = spec_.sink_pool > 0
                                ? spec_.sink_pool
                                : worlds_[out.world].network.num_peers();
  out.sink = static_cast<graph::NodeId>(rng.UniformIndex(candidates));
  out.exec_seed = DerivedSeed(seed, kExecStream, index);
  return out;
}

QueryOutcome Instance::Run(size_t index, Tracer* tracer, bool corrupt,
                           bool reference) {
  QueryOutcome out = Answer(Generate(index), tracer);
  if (!out.ok) return out;
  if (corrupt) out.answer.estimate = std::nan("");

  // The output check: a finite estimate and interval, every charged
  // message resolved (the predicate VerifyCostConservation asserts), and
  // the error against the exact oracle.
  const bench::World& world = worlds_[out.generated.world];
  const query::AggregateQuery& query = out.generated.query;
  const double estimate = out.answer.estimate;
  if (oracles_.empty() || reference) {
    out.reference_error = bench::NormalizedError(world, query, estimate);
  }
  out.error = oracles_.empty()
                  ? out.reference_error
                  : oracles_[out.generated.world].NormalizedError(query,
                                                                  estimate);
  out.checked = std::isfinite(estimate) &&
                std::isfinite(out.answer.ci_half_width_95) &&
                out.answer.ci_half_width_95 >= 0.0 &&
                out.answer.cost.MessagesConserve() &&
                world.network.cost_snapshot().MessagesConserve() &&
                std::isfinite(out.error);
  return out;
}

QueryOutcome Instance::Answer(const GeneratedQuery& generated,
                              Tracer* tracer) {
  bench::World& world = worlds_[generated.world];
  net::SimulatedNetwork& network = world.network;
  QueryOutcome out;
  out.generated = generated;
  util::Rng rng(generated.exec_seed);
  core::TwoPhaseEngine* engine = nullptr;
  if (!spec_.async) {
    engine = engines_[generated.world].get();
    if (tracer != nullptr) {
      if (traced_engines_.empty()) {
        for (size_t w = 0; w < worlds_.size(); ++w) {
          traced_engines_.push_back(tracer->MakeSyncEngine(
              &worlds_[w].network, catalogs_[w], spec_.engine));
        }
      }
      engine = traced_engines_[generated.world].get();
    }
  }

  const Clock::time_point start = Clock::now();
  if (tracer != nullptr) {
    tracer->BeginQuery(generated.index, &network, generated.query,
                       generated.sink);
  }
  if (spec_.async) {
    auto report = sessions_[generated.world]->Execute(generated.query,
                                                      generated.sink, rng);
    if (report.ok()) {
      out.ok = true;
      out.answer = report->answer;
      out.makespan_ms = report->makespan_ms;
      out.events = report->events;
      out.drain_allocs = report->drain_allocs;
    }
  } else {
    auto answer = engine->Execute(generated.query, generated.sink, rng);
    if (answer.ok()) {
      out.ok = true;
      out.answer = *answer;
      out.makespan_ms = answer->cost.latency_ms;
    }
  }
  if (tracer != nullptr) tracer->EndQuery();
  out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

}  // namespace p2paqp::perfbench
