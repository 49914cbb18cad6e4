#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/cross_validation.h"
#include "net/event_sim.h"
#include "query/local_executor.h"
#include "sampling/samplers.h"

namespace p2paqp::perfbench {

namespace {

// Keeps probe results observable so the timed loops cannot be elided.
volatile uint64_t g_probe_sink = 0;

// Each probe repeats its replay until it has timed at least this many
// operations (or run out of passes over a small recording).
constexpr uint64_t kMinOperations = 200000;
constexpr size_t kMaxPasses = 64;

double Nanos(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

double PerOperation(double total, uint64_t operations) {
  return operations == 0 ? 0.0 : total / static_cast<double>(operations);
}

}  // namespace

double ProbeNeighborsNs(const std::vector<WalkRecord>& walks) {
  uint64_t decoded = 0;
  uint64_t sum = 0;
  const Clock::time_point start = Clock::now();
  for (size_t pass = 0; pass < kMaxPasses && decoded < kMinOperations;
       ++pass) {
    for (const WalkRecord& walk : walks) {
      const graph::Graph& graph = walk.network->graph();
      for (const auto& hop : walk.hops) {
        for (graph::NodeId neighbor : graph.neighbors(hop.second)) {
          sum += neighbor;
        }
      }
      decoded += walk.hops.size();
    }
  }
  const double total = Nanos(start);
  g_probe_sink = sum;
  return PerOperation(total, decoded);
}

double ProbeWalkNsPerHop(const WorkloadSpec& spec,
                         const std::vector<WalkRecord>& walks, uint64_t seed) {
  uint64_t hops = 0;
  double total = 0.0;
  for (size_t i = 0; i < walks.size() * kMaxPasses && hops < kMinOperations;
       ++i) {
    const WalkRecord& walk = walks[i % walks.size()];
    sampling::RandomWalkSampler sampler(
        walk.network, sampling::WalkParams{.jump = spec.jump,
                                           .burn_in = spec.burn_in});
    const uint64_t hops_before = walk.network->cost_snapshot().walker_hops;
    util::Rng rng(seed + i);
    const Clock::time_point start = Clock::now();
    auto outcome =
        sampler.SamplePeersResilient(walk.sink, spec.engine.phase1_peers, rng);
    total += Nanos(start);
    hops += walk.network->cost_snapshot().walker_hops - hops_before;
    if (outcome.ok()) g_probe_sink = outcome->visits.size();
  }
  return PerOperation(total, hops);
}

double ProbeLocalExecNs(const WorkloadSpec& spec,
                        const std::vector<WalkRecord>& walks, uint64_t seed) {
  util::Rng rng(seed);
  query::LocalExecScratch scratch;
  const query::SubSamplePolicy policy{.t = spec.engine.tuples_per_peer};
  uint64_t visits = 0;
  double sum = 0.0;
  const Clock::time_point start = Clock::now();
  for (size_t pass = 0; pass < kMaxPasses && visits < kMinOperations;
       ++pass) {
    for (const WalkRecord& walk : walks) {
      for (graph::NodeId peer : walk.repliers) {
        sum += query::ExecuteLocal(walk.network->peer(peer).database(),
                                   walk.query, policy, rng, &scratch)
                   .count_value;
      }
      visits += walk.repliers.size();
    }
  }
  const double total = Nanos(start);
  g_probe_sink = static_cast<uint64_t>(sum);
  return PerOperation(total, visits);
}

double ProbeCrossValidateUs(const WorkloadSpec& spec,
                            const std::vector<WalkRecord>& walks,
                            uint64_t seed) {
  if (walks.empty()) return 0.0;
  util::Rng rng(seed);
  std::vector<core::WeightedObservation> observations;
  query::LocalExecScratch scratch;
  const query::SubSamplePolicy policy{.t = spec.engine.tuples_per_peer};
  const WalkRecord& walk = walks.front();
  const net::SimulatedNetwork& network = *walk.network;
  for (size_t i = 0;
       i < walk.repliers.size() && observations.size() < spec.engine.phase1_peers;
       ++i) {
    const graph::NodeId peer = walk.repliers[i];
    query::LocalAggregate local = query::ExecuteLocal(
        network.peer(peer).database(), walk.query, policy, rng, &scratch);
    observations.push_back(
        {local.ValueFor(walk.query.op),
         static_cast<double>(network.graph().degree(peer))});
  }
  if (observations.size() < 2) return 0.0;
  const double total_weight = 2.0 * network.graph().num_edges();
  constexpr uint64_t kCalls = 2000;
  double sum = 0.0;
  const Clock::time_point start = Clock::now();
  for (uint64_t call = 0; call < kCalls; ++call) {
    sum += core::CrossValidate(observations, total_weight,
                               spec.engine.cv_repeats, rng)
               .cv_error;
  }
  const double total = Nanos(start);
  g_probe_sink = static_cast<uint64_t>(sum);
  return PerOperation(total, kCalls) / 1000.0;
}

namespace {

// Walkers as batched step events and replies as closure events, each
// rescheduling itself an exponential hop latency later until the budget
// of events is spent: the event mix of one query's drain.
class EventProbe : public net::StepHandler {
 public:
  EventProbe(net::EventQueue* events, uint64_t budget, uint64_t seed)
      : events_(events), budget_(budget), rng_(seed) {}

  void RunSteps(const uint32_t* args, size_t n) override {
    for (size_t i = 0; i < n; ++i) {
      if (scheduled_ >= budget_) return;
      ++scheduled_;
      events_->ScheduleStepAfter(Delay(), this, args[i]);
    }
  }

  void Reply() {
    if (scheduled_ >= budget_) return;
    ++scheduled_;
    events_->ScheduleAfter(Delay(), [this]() { Reply(); });
  }

 private:
  // The network's default hop latency: 40 ms base plus exponential jitter
  // with a 20 ms mean.
  double Delay() {
    return 40.0 - 20.0 * std::log(rng_.UniformDouble(1e-12, 1.0));
  }

  net::EventQueue* events_;
  uint64_t budget_;
  uint64_t scheduled_ = 0;
  util::Rng rng_;
};

}  // namespace

double ProbeEventNs(const WorkloadSpec& spec, uint64_t seed) {
  constexpr uint64_t kEvents = 1000000;
  net::EventQueue events;
  EventProbe probe(&events, kEvents, seed);
  for (uint32_t walker = 0; walker < spec.walkers; ++walker) {
    events.ScheduleStepAfter(0.0, &probe, walker);
  }
  for (size_t reply = 0; reply < spec.engine.phase1_peers; ++reply) {
    probe.Reply();
  }
  const Clock::time_point start = Clock::now();
  events.RunUntilEmpty();
  return PerOperation(Nanos(start), events.executed());
}

double ProbeSendNs(const std::vector<WalkRecord>& walks) {
  uint64_t sends = 0;
  uint64_t delivered = 0;
  const Clock::time_point start = Clock::now();
  for (size_t pass = 0; pass < kMaxPasses && sends < kMinOperations; ++pass) {
    for (const WalkRecord& walk : walks) {
      for (const auto& hop : walk.hops) {
        delivered += walk.network
                         ->SendAlongEdge(net::MessageType::kWalker, hop.first,
                                         hop.second)
                         .ok();
      }
      sends += walk.hops.size();
    }
  }
  const double total = Nanos(start);
  g_probe_sink = delivered;
  return PerOperation(total, sends);
}

double ProbeChurnStepMs(const net::SimulatedNetwork& network,
                        const WorkloadSpec& spec, uint64_t seed) {
  net::SimulatedNetwork clone = network.Clone(seed);
  net::ChurnModel churn(spec.churn.value_or(net::ChurnParams{}), seed);
  constexpr size_t kSteps = 5;
  std::vector<double> step_ms;
  for (size_t step = 0; step < kSteps; ++step) {
    const Clock::time_point start = Clock::now();
    g_probe_sink = churn.Step(clone);
    step_ms.push_back(Nanos(start) / 1e6);
  }
  std::sort(step_ms.begin(), step_ms.end());
  return step_ms[kSteps / 2];
}

}  // namespace p2paqp::perfbench
