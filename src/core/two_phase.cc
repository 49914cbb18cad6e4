#include "core/two_phase.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "core/distinct.h"
#include "core/median.h"
#include "core/reply_path.h"
#include "util/statistics.h"

namespace p2paqp::core {

namespace {

constexpr double kZ95 = 1.959963984540054;

// Horvitz-Thompson estimate of SUM/COUNT (the AVG ratio) over a slice of
// observations.
double RatioEstimate(const std::vector<PeerObservation>& observations,
                     double total_weight) {
  std::vector<WeightedObservation> counts;
  std::vector<WeightedObservation> sums;
  counts.reserve(observations.size());
  sums.reserve(observations.size());
  for (const PeerObservation& obs : observations) {
    counts.push_back({obs.aggregate.count_value, obs.stationary_weight});
    sums.push_back({obs.aggregate.sum_value, obs.stationary_weight});
  }
  double count = HorvitzThompson(counts, total_weight);
  if (count == 0.0) return 0.0;
  return HorvitzThompson(sums, total_weight) / count;
}

// Cross-validation for the AVG ratio (the linear CrossValidate in
// cross_validation.h does not apply to a ratio of two estimators).
CrossValidationResult CrossValidateRatio(
    const std::vector<PeerObservation>& observations, double total_weight,
    size_t repeats, util::Rng& rng) {
  P2PAQP_CHECK_GE(observations.size(), 2u);
  CrossValidationResult result;
  result.estimate = RatioEstimate(observations, total_weight);
  size_t m = observations.size();
  size_t half = m / 2;
  std::vector<size_t> order(m);
  for (size_t i = 0; i < m; ++i) order[i] = i;
  double squared_sum = 0.0;
  for (size_t r = 0; r < repeats; ++r) {
    rng.Shuffle(order);
    std::vector<PeerObservation> g1;
    std::vector<PeerObservation> g2;
    g1.reserve(half);
    g2.reserve(half);
    for (size_t i = 0; i < half; ++i) g1.push_back(observations[order[i]]);
    for (size_t i = half; i < 2 * half; ++i) {
      g2.push_back(observations[order[i]]);
    }
    double y1 = RatioEstimate(g1, total_weight);
    double y2 = RatioEstimate(g2, total_weight);
    squared_sum += (y1 - y2) * (y1 - y2);
  }
  result.cv_error = std::sqrt(squared_sum / static_cast<double>(repeats));
  result.cv_error_relative =
      result.estimate == 0.0 ? 0.0
                             : result.cv_error / std::fabs(result.estimate);
  return result;
}

std::vector<WeightedObservation> ToWeighted(
    const std::vector<PeerObservation>& observations, query::AggregateOp op) {
  std::vector<WeightedObservation> weighted;
  weighted.reserve(observations.size());
  for (const PeerObservation& obs : observations) {
    weighted.push_back({obs.aggregate.ValueFor(op), obs.stationary_weight});
  }
  return weighted;
}

// Horvitz-Thompson estimate of the total aggregate over the database:
// total tuple count for COUNT/AVG, all-tuples sum for SUM. Used only for
// error normalization.
double EstimateTotal(const std::vector<PeerObservation>& observations,
                     query::AggregateOp op, double total_weight) {
  std::vector<WeightedObservation> totals;
  totals.reserve(observations.size());
  for (const PeerObservation& obs : observations) {
    double value = op == query::AggregateOp::kSum
                       ? obs.aggregate.total_sum_value
                       : static_cast<double>(obs.aggregate.local_tuples);
    totals.push_back({value, obs.stationary_weight});
  }
  return HorvitzThompson(totals, total_weight);
}

}  // namespace

size_t AuditObservationDegrees(net::SimulatedNetwork* network,
                               const RobustnessPolicy& policy,
                               graph::NodeId sink,
                               std::vector<PeerObservation>* observations,
                               util::Rng& rng) {
  if (policy.degree_audit_probes == 0 || observations->empty()) return 0;
  const net::AdversaryInjector* adversary = network->adversary();
  // Audit each distinct peer once, at its claimed degree.
  std::vector<std::pair<graph::NodeId, uint32_t>> audited;
  for (const PeerObservation& obs : *observations) {
    bool seen = false;
    for (const auto& entry : audited) {
      if (entry.first == obs.peer) {
        seen = true;
        break;
      }
    }
    if (!seen) audited.emplace_back(obs.peer, obs.degree);
  }
  std::vector<graph::NodeId> suspected;
  // One decode per audited peer, reused across its probes: NeighborRange's
  // operator[] re-decodes the varint list from the front on every call,
  // which made this nested probe loop quadratic in degree.
  std::vector<graph::NodeId> real;
  for (const auto& [peer, claimed] : audited) {
    if (claimed == 0) continue;
    network->graph().CopyNeighbors(peer, &real);
    size_t confirms = 0;
    size_t denials = 0;
    for (size_t probe = 0; probe < policy.degree_audit_probes; ++probe) {
      // One uniformly-chosen slot of the claimed adjacency list. Slots
      // beyond the real degree are fabricated: the claimed address resolves
      // to an arbitrary peer that is not actually adjacent.
      size_t slot = rng.UniformIndex(claimed);
      bool genuine = slot < real.size();
      graph::NodeId target =
          genuine ? real[slot]
                  : static_cast<graph::NodeId>(
                        rng.UniformIndex(network->num_peers()));
      if (target == peer || !network->IsAlive(target)) continue;
      // Probe + attestation each cross the Internet once and can be lost to
      // the installed fault plan; a lost round is inconclusive.
      if (!network->SendDirect(net::MessageType::kAuditProbe, sink, target)
               .ok()) {
        continue;
      }
      if (!network->SendDirect(net::MessageType::kAuditReply, target, sink)
               .ok()) {
        continue;
      }
      // A real neighbor attests truthfully (the adjacency exists); a
      // non-neighbor denies unless it colludes with the audited peer.
      bool colludes = adversary != nullptr && adversary->IsAdversarial(peer) &&
                      adversary->IsAdversarial(target);
      if (genuine || network->graph().HasEdge(peer, target) || colludes) {
        ++confirms;
      } else {
        ++denials;
      }
    }
    size_t delivered = confirms + denials;
    if (delivered > 0 &&
        static_cast<double>(denials) >
            policy.degree_audit_denial_threshold *
                static_cast<double>(delivered)) {
      suspected.push_back(peer);
    }
  }
  if (suspected.empty()) return 0;
  auto is_suspected = [&suspected](graph::NodeId peer) {
    return std::find(suspected.begin(), suspected.end(), peer) !=
           suspected.end();
  };
  observations->erase(
      std::remove_if(observations->begin(), observations->end(),
                     [&is_suspected](const PeerObservation& obs) {
                       return is_suspected(obs.peer);
                     }),
      observations->end());
  return suspected.size();
}

std::string ApproximateAnswer::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "estimate=%.2f (+/-%.2f @95%%) cv_rel=%.4f m=%zu m'=%zu "
                "sample_tuples=%llu | %s",
                estimate, ci_half_width_95, cv_error_relative, phase1_peers,
                phase2_peers,
                static_cast<unsigned long long>(sample_tuples),
                cost.ToString().c_str());
  std::string out = buf;
  if (degraded) {
    char extra[128];
    std::snprintf(extra, sizeof(extra),
                  " | DEGRADED lost=%zu restarts=%zu achieved_err=%.4f",
                  observations_lost, walk_restarts, achieved_error);
    out += extra;
  }
  if (suspected_peers > 0 || trimmed_mass > 0.0 || duplicate_replies > 0) {
    char extra[128];
    std::snprintf(extra, sizeof(extra),
                  " | AUDIT suspected=%zu trimmed_mass=%.3f dupes=%zu",
                  suspected_peers, trimmed_mass, duplicate_replies);
    out += extra;
  }
  if (deadline_hit || hedges_sent > 0 || stragglers_skipped > 0) {
    char extra[128];
    std::snprintf(extra, sizeof(extra),
                  " | STRAGGLER deadline_hit=%d hedges=%zu skips=%zu",
                  deadline_hit ? 1 : 0, hedges_sent, stragglers_skipped);
    out += extra;
  }
  return out;
}

TwoPhaseEngine::TwoPhaseEngine(net::SimulatedNetwork* network,
                               const SystemCatalog& catalog,
                               const EngineParams& params)
    : network_(network),
      catalog_(catalog),
      params_(params),
      sampler_(std::make_unique<sampling::RandomWalkSampler>(
          network,
          sampling::WalkParams{.jump = std::max<size_t>(1,
                                                        catalog.suggested_jump),
                               .burn_in = catalog.suggested_burn_in,
                               .variant = sampling::WalkVariant::kSimple,
                               .max_hops = 0,
                               .straggler = &params_.straggler,
                               .health = &health_})),
      total_weight_(catalog.total_degree_weight()) {
  P2PAQP_CHECK(network_ != nullptr);
  P2PAQP_CHECK_GE(params_.phase1_peers, 2u);
}

TwoPhaseEngine::TwoPhaseEngine(net::SimulatedNetwork* network,
                               const SystemCatalog& catalog,
                               const EngineParams& params,
                               std::unique_ptr<sampling::PeerSampler> sampler,
                               double total_weight)
    : network_(network),
      catalog_(catalog),
      params_(params),
      sampler_(std::move(sampler)),
      total_weight_(total_weight) {
  P2PAQP_CHECK(network_ != nullptr);
  P2PAQP_CHECK(sampler_ != nullptr);
  P2PAQP_CHECK_GT(total_weight_, 0.0);
  P2PAQP_CHECK_GE(params_.phase1_peers, 2u);
}

util::Result<std::vector<PeerObservation>>
TwoPhaseEngine::CollectObservations(const query::AggregateQuery& query,
                                    graph::NodeId sink, size_t count,
                                    util::Rng& rng, CollectionStats* stats) {
  const net::StragglerPolicy& sp = params_.straggler;
  const PlanContext ctx{network_, params_, sink, total_weight_};
  auto sampled = sampler_->SamplePeersResilient(sink, count, rng);
  if (!sampled.ok()) return sampled.status();
  std::vector<PeerObservation> observations;
  observations.reserve(sampled->visits.size());
  CollectionStats round;
  round.requested = count;
  round.walk_restarts = sampled->restarts;
  round.straggler_skips = sampled->straggler_skips;
  ReplyDedup dedup;
  dedup.Open(network_, sink, sampled->visits.size());
  for (size_t seq = 0; seq < sampled->visits.size(); ++seq) {
    const sampling::PeerVisit& visit = sampled->visits[seq];
    // The selected peer may have departed between selection and local
    // execution (mid-query churn): its observation is simply lost.
    if (!network_->IsAlive(visit.peer)) continue;
    PeerObservation obs{.peer = visit.peer,
                        .degree = visit.degree,
                        .stationary_weight =
                            sampler_->StationaryWeight(visit.peer),
                        .aggregate = {},
                        .selection_seq = seq};
    const size_t replays =
        ObservePeer(ctx, query, cache_, rng, &scratch_, &obs).replays;
    auto send_copy = [&] {
      return network_
          ->SendDirect(net::MessageType::kAggregateReply, visit.peer, sink)
          .ok();
    };
    // The ledger sums each attempt's latency as it goes; health is scored
    // per attempt against the peer's expected reply time.
    const bool delivered = TransmitReply(
        ctx, visit.peer, /*batch=*/1, rng, &round.reply_retransmits,
        [&](double /*wait_ms*/) {
          const bool ok = send_copy();
          if (sp.health_tracking) {
            health_.Record(visit.peer,
                           0.5 * network_->NominalHopLatencyMs() +
                               network_->ExpectedPeerTailDelayMs(visit.peer),
                           ok);
          }
          return ok;
        });
    // Hedged duplicate toward predictably tardy peers: the sink's hedge
    // timer (kHedgeDelayFactor x the nominal reply time) elapses before a
    // straggler's reply can arrive, so it asks for one duplicate copy.
    bool hedge_delivered = false;
    if (sp.hedged_replies && network_->IsAlive(visit.peer) &&
        network_->IsAlive(sink) &&
        network_->ExpectedPeerTailDelayMs(visit.peer) >
            net::kHedgeDelayFactor * network_->NominalHopLatencyMs()) {
      ++round.hedges;
      hedge_delivered = send_copy();
      // The hedge pair is recorded only when some copy survives: a pair
      // where primary, retries and hedge were all lost in transit never
      // resolves to an accepted observation, which is loss, not a
      // dedup-accounting violation.
      if (delivered || hedge_delivered) dedup.RecordHedge(visit.peer, seq);
    }
    // The sink resolves the copies in arrival order on the sequential
    // ledger: primary, hedge, then each replayed copy an adversarial peer
    // pushes (same tag, so only the first delivered copy counts).
    if (delivered && dedup.Arrive(obs)) observations.push_back(obs);
    if (hedge_delivered && dedup.Arrive(obs)) observations.push_back(obs);
    for (size_t replay = 0; replay < replays; ++replay) {
      if (send_copy() && dedup.Arrive(obs)) observations.push_back(obs);
    }
  }
  round.duplicate_replies = dedup.duplicates();
  util::Status closed = CloseRound(params_, observations.size(), &round);
  if (stats != nullptr) *stats = round;
  if (!closed.ok()) return closed;
  return observations;
}

size_t MaxPhase2Peers(const EngineParams& params, size_t num_peers) {
  return params.max_phase2_peers == 0 ? num_peers : params.max_phase2_peers;
}

PhaseTwoPlan PlanPhaseTwo(const PlanContext& ctx,
                          const query::AggregateQuery& query,
                          const std::vector<PeerObservation>& phase1,
                          util::Rng& rng) {
  const EngineParams& params = ctx.params;
  const bool is_avg = query.op == query::AggregateOp::kAvg;
  CrossValidationResult cv =
      is_avg ? CrossValidateRatio(phase1, ctx.total_weight, params.cv_repeats,
                                  rng)
             : CrossValidate(ToWeighted(phase1, query.op), ctx.total_weight,
                             params.cv_repeats, rng);

  // The paper normalizes errors to [0,1] against the *total* aggregate
  // (N for COUNT; Sec. 3.4: dividing the variance by N^2 yields the squared
  // relative-count error). Estimate that total from the same phase-I
  // sample: every reply already carries the peer's tuple count and scaled
  // all-tuples sum.
  PhaseTwoPlan plan;
  plan.estimated_total = EstimateTotal(phase1, query.op, ctx.total_weight);
  if (is_avg || plan.estimated_total <= 0.0 ||
      params.normalization == ErrorNormalization::kQueryAnswer) {
    // AVG never scales with selectivity; kQueryAnswer opts COUNT/SUM into
    // the same answer-relative guarantee.
    plan.estimated_total = std::fabs(cv.estimate);
  }
  plan.cv_normalized =
      plan.estimated_total == 0.0 ? 0.0 : cv.cv_error / plan.estimated_total;
  // Sized from the observations that actually arrived (== phase1_peers on
  // the fault-free path): the cross-validation error was measured on those.
  plan.phase2_peers = PhaseTwoSampleSize(
      phase1.size(), plan.cv_normalized, query.required_error,
      kMinPhase2Peers, MaxPhase2Peers(params, ctx.network->num_peers()));
  return plan;
}

util::Result<ApproximateAnswer> AssembleAnswer(const PlanContext& ctx,
                                               query::AggregateOp op,
                                               const PhaseTwoPlan& plan,
                                               const CollectedPhase& phase1,
                                               const CollectedPhase& phase2,
                                               util::Rng& rng) {
  const TwoPhaseEngine::CollectionStats& s1 = phase1.stats;
  const TwoPhaseEngine::CollectionStats& s2 = phase2.stats;
  const bool anytime = s1.deadline_hit || s2.deadline_hit;
  std::vector<PeerObservation> final_set;
  if (ctx.params.include_phase1_observations || anytime) {
    // An anytime answer uses every observation that reached the sink.
    final_set = phase1.observations;
    final_set.insert(final_set.end(), phase2.observations.begin(),
                     phase2.observations.end());
  } else {
    final_set = phase2.observations;
  }

  // ---- Byzantine defenses (RobustnessPolicy). ----
  const RobustnessPolicy& policy = ctx.params.robustness;
  size_t suspected =
      AuditObservationDegrees(ctx.network, policy, ctx.sink, &final_set, rng);
  if (final_set.empty() && !anytime) {
    return util::Status::Unavailable(
        "degree audit rejected every observation");
  }

  ApproximateAnswer answer;
  answer.suspected_peers = suspected;
  if (final_set.empty()) {
    // Deadline fired before a single observation survived: the anytime
    // answer is a zero estimate with maximal degradation, never an error.
  } else if (op == query::AggregateOp::kAvg) {
    // The ratio path is not robustified (known gap, see docs/ALGORITHM.md):
    // it still benefits from the audit and dedup above. Its variability is
    // already folded into the CV error; the variance is left 0.
    answer.estimate = RatioEstimate(final_set, ctx.total_weight);
  } else {
    auto weighted = ToWeighted(final_set, op);
    if (policy.enabled()) {
      RobustEstimate robust =
          RobustHorvitzThompson(weighted, ctx.total_weight, policy);
      answer.estimate = robust.estimate;
      answer.variance = robust.variance;
      answer.trimmed_mass = robust.trimmed_mass;
    } else {
      answer.estimate = HorvitzThompson(weighted, ctx.total_weight);
      answer.variance = HorvitzThompsonVariance(weighted, ctx.total_weight);
    }
  }
  // ---- Degradation accounting. ----
  answer.observations_lost = s1.lost + s2.lost;
  answer.walk_restarts = s1.walk_restarts + s2.walk_restarts;
  answer.duplicate_replies = s1.duplicate_replies + s2.duplicate_replies;
  answer.deadline_hit = anytime;
  answer.hedges_sent = s1.hedges + s2.hedges;
  answer.stragglers_skipped = s1.straggler_skips + s2.straggler_skips;
  answer.degraded = answer.observations_lost > 0 || suspected > 0 ||
                    answer.trimmed_mass > 0.0 || anytime;
  double inflation = 1.0;
  if (answer.observations_lost > 0) {
    // The HT reweighting over the survivors is unbiased when loss is
    // independent of the data, but a crashed peer's contribution vanishes
    // *with* its data; widen the interval by the root of the loss ratio to
    // acknowledge that the loss mechanism may not be random.
    size_t requested = s1.requested + s2.requested;
    size_t arrived = s1.delivered + s2.delivered;
    inflation = std::sqrt(static_cast<double>(requested) /
                          static_cast<double>(std::max<size_t>(arrived, 1)));
  }
  // Every observation the defenses discarded or clamped is information the
  // CI no longer reflects; widen by the root of the surviving fraction,
  // mirroring the loss widening above.
  double discarded = std::min(answer.trimmed_mass, 0.9);
  if (discarded > 0.0) inflation *= std::sqrt(1.0 / (1.0 - discarded));
  answer.ci_half_width_95 = kZ95 * std::sqrt(answer.variance) * inflation;
  answer.estimated_total = plan.estimated_total;
  answer.cv_error_relative = plan.cv_normalized;
  answer.phase1_peers = phase1.observations.size();
  answer.phase2_peers = phase2.observations.size();
  // The error bound actually achieved, on required_error's scale.
  double denom = plan.estimated_total > 0.0 ? plan.estimated_total
                                            : std::fabs(answer.estimate);
  answer.achieved_error =
      denom > 0.0 ? answer.ci_half_width_95 / denom : 0.0;
  if (anytime && final_set.size() < 2) {
    // No usable spread: an anytime answer built from 0-1 observations has
    // no defensible CI, so report total relative error instead of a
    // spuriously perfect one.
    answer.achieved_error = 1.0;
  }
  return answer;
}

util::Result<ApproximateAnswer> RunTwoPhasePlan(
    const PlanContext& ctx, const query::AggregateQuery& query,
    double deadline_ms, util::Rng& rng, const CollectFn& collect) {
  net::CostSnapshot before = ctx.network->cost_snapshot();

  // ---- Phase I: sniff the network. ----
  CollectedPhase phase1;
  auto got1 = collect(ctx.params.phase1_peers, deadline_ms, &phase1.stats);
  if (!got1.ok()) return got1.status();
  phase1.observations = std::move(*got1);

  CollectedPhase phase2;
  PhaseTwoPlan plan;
  if (phase1.observations.size() >= 2) {
    // ---- Plan: size phase II from the cross-validation error. ----
    plan = PlanPhaseTwo(ctx, query, phase1.observations, rng);
    // ---- Phase II: execute the plan. ----
    if (phase1.stats.elapsed_ms >= deadline_ms) {
      // Phase I consumed the whole deadline: phase II never launches and
      // its entire request counts as lost.
      phase2.stats.requested = plan.phase2_peers;
      phase2.stats.lost = plan.phase2_peers;
      phase2.stats.deadline_hit = true;
    } else {
      // Phase II inherits whatever deadline budget phase I left over.
      const double remaining = std::isfinite(deadline_ms)
                                   ? deadline_ms - phase1.stats.elapsed_ms
                                   : deadline_ms;
      auto got2 = collect(plan.phase2_peers, remaining, &phase2.stats);
      if (!got2.ok()) return got2.status();
      phase2.observations = std::move(*got2);
    }
  } else if (!phase1.stats.deadline_hit) {
    return util::Status::Unavailable(
        "phase I delivered too few observations to cross-validate");
  }
  // (Fewer than 2 phase-I observations under a deadline: answer anytime
  // from whatever phase I scraped together.)

  auto answer = AssembleAnswer(ctx, query.op, plan, phase1, phase2, rng);
  if (answer.ok()) {
    answer->cost = net::CostDelta(ctx.network->cost_snapshot(), before);
    answer->sample_tuples = answer->cost.tuples_sampled;
  }
  return answer;
}

util::Result<ApproximateAnswer> TwoPhaseEngine::Execute(
    const query::AggregateQuery& query, graph::NodeId sink, util::Rng& rng) {
  if (sink >= network_->num_peers() || !network_->IsAlive(sink)) {
    return util::Status::FailedPrecondition("sink peer is not live");
  }
  switch (query.op) {
    case query::AggregateOp::kCount:
    case query::AggregateOp::kSum:
    case query::AggregateOp::kAvg:
      if (params_.straggler.health_tracking) {
        health_.Reset(network_->num_peers());
      }
      // The sequential ledger charges latency as it goes, so the plan runs
      // without a deadline (EngineParams::deadline_ms is an event-clock
      // bound).
      return RunTwoPhasePlan(
          PlanContext{network_, params_, sink, total_weight_}, query,
          std::numeric_limits<double>::infinity(), rng,
          [&](size_t count, double /*deadline_ms*/, CollectionStats* stats) {
            return CollectObservations(query, sink, count, rng, stats);
          });
    case query::AggregateOp::kMedian:
    case query::AggregateOp::kQuantile:
      return EstimateQuantileTwoPhase(*this, query, sink, rng);
    case query::AggregateOp::kDistinct:
      return EstimateDistinctTwoPhase(*this, query, sink, rng);
  }
  return util::Status::InvalidArgument("unknown aggregate operator");
}

}  // namespace p2paqp::core
