#include "core/histogram_estimator.h"

#include <algorithm>
#include <cmath>

namespace p2paqp::core {

namespace {

// One visited peer's shipped sample with its Horvitz-Thompson weight.
struct PeerHistogramSample {
  std::vector<data::Value> values;
  double tuple_weight = 0.0;  // (local/processed) / stationary_weight.
};

util::Result<std::vector<PeerHistogramSample>> CollectSamples(
    TwoPhaseEngine& engine, const HistogramRequest& request,
    graph::NodeId sink, size_t count, util::Rng& rng) {
  // Ride the COUNT machinery for the walk + local visit accounting.
  query::AggregateQuery query;
  query.op = query::AggregateOp::kCount;
  query.predicate = {request.lo, request.hi};
  auto observations = engine.CollectObservations(query, sink, count, rng);
  if (!observations.ok()) return observations.status();
  net::SimulatedNetwork* network = engine.network();
  std::vector<PeerHistogramSample> samples;
  samples.reserve(observations->size());
  for (const PeerObservation& obs : *observations) {
    PeerHistogramSample sample;
    if (obs.aggregate.processed_tuples == 0 || obs.stationary_weight <= 0.0) {
      samples.push_back(std::move(sample));
      continue;
    }
    data::Table rows = network->peer(obs.peer).database().Sample(
        engine.params().tuples_per_peer, rng);
    sample.values.reserve(rows.size());
    for (const data::Tuple& t : rows) sample.values.push_back(t.value);
    double scale = static_cast<double>(obs.aggregate.local_tuples) /
                   static_cast<double>(sample.values.empty()
                                           ? 1
                                           : sample.values.size());
    sample.tuple_weight = scale / obs.stationary_weight;
    // Raw values back to the sink: 4 bytes each.
    util::Status sent = network->SendDirect(
        net::MessageType::kSampleReply, obs.peer, sink,
        static_cast<uint32_t>(4 * sample.values.size()));
    // A reply lost to faults contributes an empty (zero-weight) sample.
    if (!sent.ok()) sample = PeerHistogramSample{};
    samples.push_back(std::move(sample));
  }
  return samples;
}

// Horvitz-Thompson weighted histogram over samples[begin, end): tuple v
// from peer s contributes (scale(s) / w(s)) * (W / m) so each bucket count
// estimates that bucket's global tuple count (W = total stationary weight,
// m = peers in this slice).
util::Histogram BuildHistogram(const HistogramRequest& request,
                               const std::vector<PeerHistogramSample>& samples,
                               size_t begin, size_t end, double total_weight) {
  auto histogram =
      util::Histogram::Make(request.lo, request.hi, request.num_buckets);
  P2PAQP_CHECK(histogram.ok());
  end = std::min(end, samples.size());
  if (begin >= end) return std::move(*histogram);
  double normalizer = total_weight / static_cast<double>(end - begin);
  for (size_t i = begin; i < end; ++i) {
    for (data::Value v : samples[i].values) {
      histogram->Add(v, samples[i].tuple_weight * normalizer);
    }
  }
  return std::move(*histogram);
}

}  // namespace

util::Result<HistogramAnswer> EstimateHistogramTwoPhase(
    TwoPhaseEngine& engine, const HistogramRequest& request,
    graph::NodeId sink, util::Rng& rng) {
  if (request.required_l1 <= 0.0) {
    return util::Status::InvalidArgument("required L1 must be positive");
  }
  if (request.hi < request.lo || request.num_buckets == 0) {
    return util::Status::InvalidArgument("bad bucketization");
  }
  net::SimulatedNetwork* network = engine.network();
  net::CostSnapshot before = network->cost_snapshot();

  auto phase1 = CollectSamples(engine, request, sink,
                               engine.params().phase1_peers, rng);
  if (!phase1.ok()) return phase1.status();
  size_t m = phase1->size();
  if (m < 4) {
    return util::Status::Unavailable("too few peers for histogram");
  }

  // Cross-validation: L1 distance between random half-sample histograms,
  // averaged in square over the usual repeated halvings.
  std::vector<size_t> order(m);
  for (size_t i = 0; i < m; ++i) order[i] = i;
  size_t half = m / 2;
  double squared_sum = 0.0;
  std::vector<PeerHistogramSample> shuffled(m);
  for (size_t r = 0; r < engine.params().cv_repeats; ++r) {
    rng.Shuffle(order);
    for (size_t i = 0; i < m; ++i) shuffled[i] = (*phase1)[order[i]];
    util::Histogram h1 =
        BuildHistogram(request, shuffled, 0, half, engine.total_weight());
    util::Histogram h2 = BuildHistogram(request, shuffled, half, 2 * half,
                                        engine.total_weight());
    double l1 = h1.NormalizedL1Distance(h2);
    squared_sum += l1 * l1;
  }
  double cv_l1 =
      std::sqrt(squared_sum / static_cast<double>(engine.params().cv_repeats));

  size_t phase2_peers = PhaseTwoSampleSize(
      m, cv_l1, request.required_l1, kMinPhase2Peers,
      MaxPhase2Peers(engine.params(), network->num_peers()));

  auto phase2 = CollectSamples(engine, request, sink, phase2_peers, rng);
  if (!phase2.ok()) return phase2.status();

  std::vector<PeerHistogramSample> final_set = *phase2;
  if (engine.params().include_phase1_observations || final_set.empty()) {
    final_set.insert(final_set.end(), phase1->begin(), phase1->end());
  }

  HistogramAnswer answer{
      BuildHistogram(request, final_set, 0, final_set.size(),
                     engine.total_weight()),
      cv_l1,
      m,
      phase2->size(),
      0,
      net::CostDelta(network->cost_snapshot(), before)};
  answer.sample_tuples = answer.cost.tuples_sampled;
  return answer;
}

}  // namespace p2paqp::core
