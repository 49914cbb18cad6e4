#include "core/median.h"

#include <algorithm>
#include <cmath>

#include "util/statistics.h"

namespace p2paqp::core {

double WeightedQuantileOfMedians(const std::vector<double>& values,
                                 const std::vector<double>& weights,
                                 double phi) {
  return util::WeightedQuantile(values, weights, phi);
}

double WeightedRankFraction(const std::vector<double>& values,
                            const std::vector<double>& weights, double x) {
  P2PAQP_CHECK_EQ(values.size(), weights.size());
  double below = 0.0;
  double total = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    P2PAQP_CHECK_GE(weights[i], 0.0);
    total += weights[i];
    if (values[i] < x) below += weights[i];
  }
  P2PAQP_CHECK_GT(total, 0.0);
  return below / total;
}

namespace {

// Per-peer median + selection weight, filtered to peers that processed at
// least one tuple (an empty peer has no local median).
struct MedianSample {
  std::vector<double> medians;
  // Rank mass represented per peer: local_tuples / prob(s), up to a
  // constant factor. The paper's Sec. 5.6 uses 1/prob(s) — identical when
  // all peers hold the same number of tuples (its experimental setup) —
  // but the tuple-count factor keeps the weighted median correct for
  // "horizontal partitions of varying sizes" (Sec. 1).
  std::vector<double> weights;
};

MedianSample ExtractMedians(const std::vector<PeerObservation>& observations) {
  MedianSample sample;
  for (const PeerObservation& obs : observations) {
    if (obs.aggregate.processed_tuples == 0 || obs.stationary_weight <= 0.0) {
      continue;
    }
    sample.medians.push_back(obs.aggregate.local_median);
    sample.weights.push_back(
        static_cast<double>(obs.aggregate.local_tuples) /
        obs.stationary_weight);
  }
  return sample;
}

}  // namespace

util::Result<ApproximateAnswer> EstimateQuantileTwoPhase(
    TwoPhaseEngine& engine, const query::AggregateQuery& query,
    graph::NodeId sink, util::Rng& rng) {
  P2PAQP_CHECK(query.op == query::AggregateOp::kMedian ||
               query.op == query::AggregateOp::kQuantile);
  double phi =
      query.op == query::AggregateOp::kQuantile ? query.quantile_phi : 0.5;
  if (phi <= 0.0 || phi >= 1.0) {
    return util::Status::InvalidArgument("quantile phi must be in (0,1)");
  }
  net::SimulatedNetwork* network = engine.network();
  net::CostSnapshot before = network->cost_snapshot();

  // ---- Phase I (steps 1-2): m peers ship their local medians. ----
  auto phase1 = engine.CollectObservations(query, sink,
                                           engine.params().phase1_peers, rng);
  if (!phase1.ok()) return phase1.status();

  // ---- Steps 3-5: cross-validate the weighted rank. ----
  // Randomly split the medians into two groups; medg1 is group 1's weighted
  // phi-quantile; c is how far medg1's weighted rank inside group 2 deviates
  // from phi — a rank-space cross-validation error in [0, 1].
  MedianSample all = ExtractMedians(*phase1);
  if (all.medians.size() < 4) {
    return util::Status::Unavailable(
        "phase I produced too few non-empty peers for median estimation");
  }
  size_t m = all.medians.size();
  size_t half = m / 2;
  std::vector<size_t> order(m);
  for (size_t i = 0; i < m; ++i) order[i] = i;
  double squared_sum = 0.0;
  for (size_t r = 0; r < engine.params().cv_repeats; ++r) {
    rng.Shuffle(order);
    std::vector<double> v1, w1, v2, w2;
    for (size_t i = 0; i < half; ++i) {
      v1.push_back(all.medians[order[i]]);
      w1.push_back(all.weights[order[i]]);
    }
    for (size_t i = half; i < 2 * half; ++i) {
      v2.push_back(all.medians[order[i]]);
      w2.push_back(all.weights[order[i]]);
    }
    double medg1 = util::WeightedQuantile(v1, w1, phi);
    double medg2 = util::WeightedQuantile(v2, w2, phi);
    // Rank discrepancy between group-2's own quantile and group-1's
    // quantile, both measured in group 2's weighted rank space.
    double c = WeightedRankFraction(v2, w2, medg1) -
               WeightedRankFraction(v2, w2, medg2);
    squared_sum += c * c;
  }
  double cv_rank_error =
      std::sqrt(squared_sum / static_cast<double>(engine.params().cv_repeats));

  // ---- Step 6: size phase II. Rank error and required_error share the
  // [0,1] scale, so the COUNT sizing rule carries over. ----
  size_t phase2_peers = PhaseTwoSampleSize(
      m, cv_rank_error, query.required_error, kMinPhase2Peers,
      MaxPhase2Peers(engine.params(), network->num_peers()));

  // ---- Step 7: weighted median of the additional peers' medians. ----
  auto phase2 = engine.CollectObservations(query, sink, phase2_peers, rng);
  if (!phase2.ok()) return phase2.status();
  MedianSample final_sample = ExtractMedians(*phase2);
  if (engine.params().include_phase1_observations ||
      final_sample.medians.empty()) {
    final_sample.medians.insert(final_sample.medians.end(),
                                all.medians.begin(), all.medians.end());
    final_sample.weights.insert(final_sample.weights.end(),
                                all.weights.begin(), all.weights.end());
  }

  ApproximateAnswer answer;
  answer.estimate =
      util::WeightedQuantile(final_sample.medians, final_sample.weights, phi);
  answer.cv_error_relative = cv_rank_error;
  answer.phase1_peers = phase1->size();
  answer.phase2_peers = phase2->size();
  answer.cost = net::CostDelta(network->cost_snapshot(), before);
  answer.sample_tuples = answer.cost.tuples_sampled;
  return answer;
}

}  // namespace p2paqp::core
