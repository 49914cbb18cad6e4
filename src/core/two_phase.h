// The paper's primary contribution: the adaptive two-phase sampling engine
// for approximate aggregation queries over an unstructured P2P network
// (Sec. 4).
//
// Phase I walks the overlay, collecting scaled local aggregates and degrees
// from m peers; the sink cross-validates the half-sample estimates to gauge
// how badly the data is clustered, sizes phase II accordingly, re-walks, and
// returns the Horvitz-Thompson estimate with the requested error bound met
// with high probability.
#ifndef P2PAQP_CORE_TWO_PHASE_H_
#define P2PAQP_CORE_TWO_PHASE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/cross_validation.h"
#include "core/estimator.h"
#include "core/robust_estimator.h"
#include "net/health.h"
#include "net/network.h"
#include "query/local_executor.h"
#include "query/query.h"
#include "sampling/samplers.h"
#include "util/rng.h"
#include "util/status.h"

namespace p2paqp::core {

// Lower clamp on the phase-II peer count m'.
inline constexpr size_t kMinPhase2Peers = 4;

// What the required error (and the cross-validation error driving phase-II
// sizing) is measured relative to.
enum class ErrorNormalization {
  // |err| / total aggregate (N for COUNT): the paper's Sec. 3.4 derivation
  // ("divide the variance by N^2 ... the relative count aggregate") and its
  // [0,1]-normalized figures. Low-selectivity queries get loose absolute
  // targets.
  kTotalAggregate = 0,
  // |err| / query answer: a constant *relative* guarantee regardless of
  // selectivity; low-selectivity queries get proportionally tight absolute
  // targets (and bigger phase-II plans).
  kQueryAnswer,
};

struct EngineParams {
  // m: peers selected in phase I (the paper derives it from the initial
  // sample size r_orig as m = r_orig / t).
  size_t phase1_peers = 80;
  ErrorNormalization normalization = ErrorNormalization::kTotalAggregate;
  // t: sub-sampling budget per visited peer (0 = scan everything).
  uint64_t tuples_per_peer = 25;
  // How peers draw the t tuples: independent uniform tuples, or whole disk
  // blocks (cheaper local I/O; the intra-block correlation surfaces in the
  // cross-validation and is paid for with extra peers — Sec. 4).
  query::SubSampleMode subsample_mode = query::SubSampleMode::kUniformTuples;
  size_t block_size = 8;
  // Random halvings averaged by the cross-validation step.
  size_t cv_repeats = 10;
  // Upper clamp on the phase-II peer count m' (the lower one is
  // kMinPhase2Peers).
  size_t max_phase2_peers = 0;  // 0 = number of peers in the network.
  // If true, phase-I observations join the final estimate (cheaper but the
  // paper's plan uses phase II only; kept as an ablation switch).
  bool include_phase1_observations = false;
  // --- Fault tolerance ----------------------------------------------------
  // Extra send attempts for a (y(p), deg(p)) reply lost in transit before
  // the sink gives the observation up. Crashed peers cannot retransmit; a
  // fault-free network never retransmits.
  size_t reply_retransmits = 2;
  // Hard-fail a collection that delivers fewer than this fraction of the
  // requested observations; above it the engine degrades gracefully
  // (estimate reweighted over the survivors, CI widened, `degraded` set).
  double min_observation_quorum = 0.25;
  // --- Byzantine tolerance ------------------------------------------------
  // Sink-side defenses against lying peers (robust_estimator.h). The
  // all-default policy keeps the original estimation path bit-identical.
  RobustnessPolicy robustness;
  // --- Straggler resilience (net/health.h) --------------------------------
  // Walk-Not-Wait stepping, hedged replies, retransmit backoff and the
  // health circuit breaker. All-default = off: legacy behavior and RNG
  // streams, bit for bit.
  net::StragglerPolicy straggler;
  // Deadline on the simulated event clock (async engine only; 0 = none).
  // When it fires mid-query, the engine stops launching work and returns an
  // anytime answer: the current estimate over whatever replies arrived by
  // the deadline, quorum bypassed, CI widened through the PR 1
  // degraded-answer path, `deadline_hit` set.
  double deadline_ms = 0.0;
};

// Pluggable peer-side result cache enabling the hybrid pre-computation
// extension (core/hybrid.h). Not owned by the engine.
class LocalResultCache {
 public:
  virtual ~LocalResultCache() = default;
  // Returns true and fills `out` when `peer` holds a fresh cached result
  // for this query.
  virtual bool Lookup(graph::NodeId peer, const query::AggregateQuery& query,
                      query::LocalAggregate* out) = 0;
  virtual void Store(graph::NodeId peer, const query::AggregateQuery& query,
                     const query::LocalAggregate& aggregate) = 0;
};

struct ApproximateAnswer {
  double estimate = 0.0;
  // Estimated Var[y''] and the derived 95% normal confidence half-width.
  double variance = 0.0;
  double ci_half_width_95 = 0.0;
  // Estimated total aggregate over the whole database (N for COUNT, the
  // all-tuples sum for SUM): errors are normalized against this, matching
  // the paper's [0,1] error scale (Sec. 3.4 / Sec. 5.5).
  double estimated_total = 0.0;
  // Normalized cross-validation error measured in phase I (cv / total).
  double cv_error_relative = 0.0;
  size_t phase1_peers = 0;
  size_t phase2_peers = 0;
  // Tuples drawn into the sample across both phases — the paper's latency
  // surrogate ("sample size" in Figs. 4-16).
  uint64_t sample_tuples = 0;
  // Full cost vector attributed to this query.
  net::CostSnapshot cost;

  // --- Degradation report (message loss / mid-query churn) ----------------
  // True when requested observations were lost to faults or churn. The
  // estimate is then the Horvitz-Thompson reweighting over the replies that
  // arrived (each divided by its own selection probability, so the
  // estimator stays unbiased under selection-independent loss) and
  // ci_half_width_95 is widened by sqrt(requested / arrived).
  bool degraded = false;
  // Observations requested but never delivered, across both phases.
  size_t observations_lost = 0;
  // Walker tokens the sink had to re-issue (crashed holders, strands).
  size_t walk_restarts = 0;
  // The error bound actually achieved: the (possibly widened) 95% CI
  // half-width normalized like required_error. 0 when not computed.
  double achieved_error = 0.0;

  // --- Audit report (Byzantine defenses, RobustnessPolicy) ----------------
  // Peers whose claimed degree failed the neighbor-attestation audit; their
  // observations were discarded before estimation.
  size_t suspected_peers = 0;
  // Fraction of final observations screened, trimmed, or clamped by the
  // robust estimator (0 on the plain path).
  double trimmed_mass = 0.0;
  // Duplicate (replayed) replies the sink discarded before the quorum count.
  size_t duplicate_replies = 0;

  // --- Straggler report (StragglerPolicy / EngineParams.deadline_ms) ------
  // True when the deadline fired before collection finished: the answer is
  // the anytime estimate over the replies that beat the deadline.
  bool deadline_hit = false;
  // Hedged duplicate replies the sink requested from slow peers.
  size_t hedges_sent = 0;
  // Walk-Not-Wait forks plus breaker skips across both phases.
  size_t stragglers_skipped = 0;

  std::string ToString() const;
};

// Everything phase I ships to the sink for one selected peer.
struct PeerObservation {
  graph::NodeId peer = graph::kInvalidNode;
  uint32_t degree = 0;
  double stationary_weight = 0.0;
  query::LocalAggregate aggregate;
  // Position of this selection within its collection round. Replies are
  // tagged (query_id, peer, phase, selection_seq) on the wire; the sink
  // dedupes on the full tag, so a replayed copy (same seq) is dropped while
  // a legitimate with-replacement reselection (fresh seq) is kept.
  size_t selection_seq = 0;
};

// Degree cross-validation: for each distinct peer in `observations`, the
// sink probes `policy.degree_audit_probes` uniformly-chosen slots of the
// claimed adjacency list. A genuine slot resolves to a real neighbor, which
// attests; a fabricated slot (degree inflation) resolves to a random peer
// that denies unless it colludes. Probes and attestations ride SendDirect,
// so the installed FaultPlan can lose them — a lost round is inconclusive
// and votes for neither side. Peers whose delivered denials exceed
// policy.degree_audit_denial_threshold are removed from `observations`;
// returns how many peers were removed. Draws from `rng` only when the
// policy requests probes.
size_t AuditObservationDegrees(net::SimulatedNetwork* network,
                               const RobustnessPolicy& policy,
                               graph::NodeId sink,
                               std::vector<PeerObservation>* observations,
                               util::Rng& rng);

class TwoPhaseEngine {
 public:
  // Uses the paper's sampler: a jump-`catalog.suggested_jump` random walk.
  TwoPhaseEngine(net::SimulatedNetwork* network, const SystemCatalog& catalog,
                 const EngineParams& params);

  // Custom sampler (baselines, biased walks, oracle). `total_weight` is the
  // normalizer turning the sampler's stationary weights into probabilities
  // (2|E| for degree weights, M for uniform weights).
  TwoPhaseEngine(net::SimulatedNetwork* network, const SystemCatalog& catalog,
                 const EngineParams& params,
                 std::unique_ptr<sampling::PeerSampler> sampler,
                 double total_weight);

  // Answers COUNT / SUM / AVG / MEDIAN / QUANTILE / DISTINCT queries with
  // the adaptive two-phase plan. The error target is query.required_error.
  util::Result<ApproximateAnswer> Execute(const query::AggregateQuery& query,
                                          graph::NodeId sink, util::Rng& rng);

  // Per-collection fault-recovery accounting.
  struct CollectionStats {
    size_t requested = 0;
    size_t delivered = 0;
    size_t lost = 0;  // requested - delivered.
    size_t reply_retransmits = 0;
    size_t walk_restarts = 0;
    // Replayed/duplicate replies the sink dropped (never quorum-counted).
    size_t duplicate_replies = 0;
    // Hedged duplicates issued to predicted-slow peers.
    size_t hedges = 0;
    // Walk-Not-Wait forks + breaker skips during sampling.
    size_t straggler_skips = 0;
    // The collection was cut short by EngineParams.deadline_ms.
    bool deadline_hit = false;
    // Event-clock time the round took (0 on the sequential ledger, whose
    // latency is charged to the cost tracker instead).
    double elapsed_ms = 0.0;
  };

  // Visits `count` peers via the engine's sampler and returns their shipped
  // observations over the shared reply path (core/reply_path.h): lost
  // walker tokens are re-issued by the sampler, lost replies retransmitted,
  // and residual losses reported through `stats`. Hard-fails below
  // params().min_observation_quorum or on a dead sink. Exposed for the
  // median/distinct paths and for tests.
  util::Result<std::vector<PeerObservation>> CollectObservations(
      const query::AggregateQuery& query, graph::NodeId sink, size_t count,
      util::Rng& rng, CollectionStats* stats = nullptr);

  // Hybrid extension hook; pass nullptr to disable. Not owned.
  void set_cache(LocalResultCache* cache) { cache_ = cache; }

  double total_weight() const { return total_weight_; }
  const EngineParams& params() const { return params_; }
  const SystemCatalog& catalog() const { return catalog_; }
  net::SimulatedNetwork* network() { return network_; }

 private:
  net::SimulatedNetwork* network_;
  SystemCatalog catalog_;
  EngineParams params_;
  // Reply-latency/failure scoreboard feeding the walk's circuit breaker.
  // Declared before sampler_ so the default sampler's WalkParams can point
  // at it. Reset per Execute() when health tracking is on.
  net::PeerHealthBoard health_;
  std::unique_ptr<sampling::PeerSampler> sampler_;
  double total_weight_;
  LocalResultCache* cache_ = nullptr;
  // Local-scan working storage reused across selections.
  query::LocalExecScratch scratch_;
};

// ---- The sink-side plan (Sec. 4), shared by every executor. ----
//
// The synchronous engine, the event-driven session and the multi-query
// scheduler differ in how a collection round reaches peers and in how they
// account time; everything the sink does between and after the rounds is
// written once, here.

// Where a plan runs.
struct PlanContext {
  net::SimulatedNetwork* network;
  const EngineParams& params;
  graph::NodeId sink;
  // Normalizer turning the sampler's stationary weights into probabilities.
  double total_weight;
};

// One finished collection round as the sink saw it.
struct CollectedPhase {
  std::vector<PeerObservation> observations;
  TwoPhaseEngine::CollectionStats stats;
};

// The phase-II plan derived from the phase-I sample.
struct PhaseTwoPlan {
  // Error normalizer: the estimated total aggregate (N for COUNT, the
  // all-tuples sum for SUM), or |estimate| for AVG, kQueryAnswer and a
  // non-positive total.
  double estimated_total = 0.0;
  // Cross-validation error divided by estimated_total.
  double cv_normalized = 0.0;
  // m' = (m/2)(CVError/Delta_req)^2, clamped to
  // [kMinPhase2Peers, MaxPhase2Peers].
  size_t phase2_peers = 0;
};

// Upper clamp on m': EngineParams::max_phase2_peers, or the network size.
size_t MaxPhase2Peers(const EngineParams& params, size_t num_peers);

// Cross-validates the phase-I sample (the ratio form for AVG), normalizes
// the CV error and sizes phase II. Needs at least 2 observations.
PhaseTwoPlan PlanPhaseTwo(const PlanContext& ctx,
                          const query::AggregateQuery& query,
                          const std::vector<PeerObservation>& phase1,
                          util::Rng& rng);

// The answer epilogue: picks the final set (phase II, plus phase I when
// include_phase1_observations is set or a deadline cut the query short),
// audits degrees, runs the plain or robust Horvitz-Thompson estimator (the
// ratio for AVG), widens the CI for loss and trimming, and fills the
// degradation, audit and straggler reports. Leaves `cost` and
// `sample_tuples` to the caller.
util::Result<ApproximateAnswer> AssembleAnswer(const PlanContext& ctx,
                                               query::AggregateOp op,
                                               const PhaseTwoPlan& plan,
                                               const CollectedPhase& phase1,
                                               const CollectedPhase& phase2,
                                               util::Rng& rng);

// One collection round of `count` selections with `deadline_ms` of deadline
// budget left (+inf = none). Fills `stats`, including elapsed_ms and
// deadline_hit when the executor runs on an event clock.
using CollectFn = std::function<util::Result<std::vector<PeerObservation>>(
    size_t count, double deadline_ms, TwoPhaseEngine::CollectionStats* stats)>;

// The whole plan: phase I, PlanPhaseTwo, phase II (skipped when phase I used
// up the deadline), AssembleAnswer. A deadline-cut phase I with fewer than 2
// observations answers anytime instead of failing. `cost` is the ledger
// delta across the call.
util::Result<ApproximateAnswer> RunTwoPhasePlan(
    const PlanContext& ctx, const query::AggregateQuery& query,
    double deadline_ms, util::Rng& rng, const CollectFn& collect);

}  // namespace p2paqp::core

#endif  // P2PAQP_CORE_TWO_PHASE_H_
