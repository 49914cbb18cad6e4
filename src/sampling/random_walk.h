// Markov-chain random walk over the live overlay (Sec. 3.3 / Sec. 4 Phase I).
//
// The walker message moves one uniformly chosen live neighbor per hop;
// every `jump`-th visited peer is *selected* into the sample and the peers in
// between are passed over, which decorrelates consecutive selections. An
// optional burn-in prefix lets the walk approach the stationary distribution
// before the first selection.
#ifndef P2PAQP_SAMPLING_RANDOM_WALK_H_
#define P2PAQP_SAMPLING_RANDOM_WALK_H_

#include <cstdint>
#include <vector>

#include "net/health.h"
#include "net/network.h"
#include "util/rng.h"
#include "util/status.h"

namespace p2paqp::sampling {

enum class WalkVariant {
  // Uniform over live neighbors; stationary prob(p) = deg(p)/2|E|.
  kSimple = 0,
  // Stays put with probability 1/2 (aperiodicity guard); same stationary
  // distribution, lazy steps cost no network traffic.
  kLazy,
  // Metropolis-Hastings degree correction; *uniform* stationary
  // distribution. Used by the ablation benchmarks.
  kMetropolisHastings,
};

const char* WalkVariantToString(WalkVariant variant);

struct WalkParams {
  // Hops between consecutive selections (the paper's jump size j >= 1;
  // j = 1 selects every peer on the path, the paper's "DFS"/j=0 baseline).
  size_t jump = 10;
  // Hops taken before the first selection so the walk forgets the sink.
  size_t burn_in = 0;
  WalkVariant variant = WalkVariant::kSimple;
  // Abort guard: the walk fails after this many hops without completing
  // (0 = automatic, see AutoMaxHops). Lazy self-loops and in-place
  // retransmissions count as hops; sink-issued restarts do not.
  size_t max_hops = 0;
  // How many times the sink may re-issue a lost walker token (the holder
  // crashed or stranded with no live route) before giving up
  // (0 = automatic, see AutoMaxRestarts).
  size_t max_restarts = 0;
  // Number of queries the walker token multiplexes (core::QueryScheduler).
  // One hop still moves one token; > 1 widens the kWalker payload to carry
  // that many query bodies behind a single shared header. 1 = the paper's
  // per-query walker, bit-identical to the pre-batching transport.
  uint32_t batch = 1;
  // Straggler-resilience wiring (non-owning; both may be null = off; active
  // for the kSimple variant only). With walk_not_wait, a non-selection-due
  // hop whose chosen neighbor draws a tardy transit (tail delay above the
  // hop budget) is abandoned after waiting out the budget; with
  // health_tracking, hops toward breaker-tripped peers are abandoned
  // immediately. A fork is a *lazy self-loop* — the holder keeps the token
  // and redraws next step — which preserves detailed balance for the
  // degree-stationary distribution, and selection-due hops never fork (the
  // tardy peer stays exactly as selectable as its degree says), so
  // Horvitz-Thompson weights stay unbiased.
  const net::StragglerPolicy* straggler = nullptr;
  net::PeerHealthBoard* health = nullptr;
};

// Overflow-safe automatic hop budget: ~100x the nominal walk length, doubled
// for the lazy and Metropolis-Hastings variants whose self-loops burn hops
// without progress. Saturates at SIZE_MAX instead of wrapping for large
// num_selections * jump.
size_t AutoMaxHops(const WalkParams& params, size_t num_selections);

// Automatic walker-restart budget: 2 * num_selections + 16 (saturating).
size_t AutoMaxRestarts(size_t num_selections);

// One selected peer. `degree` is the live degree observed at selection time,
// from which the sink reconstructs prob(p) in the stationary distribution.
struct PeerVisit {
  graph::NodeId peer = graph::kInvalidNode;
  uint32_t degree = 0;
};

// Recovery work spent by one collection.
struct WalkStats {
  // Chain transitions taken, including lazy/rejected self-loops and failed
  // hop attempts that were retried in place.
  size_t hops = 0;
  // Times the sink re-issued a lost walker token.
  size_t restarts = 0;
  // Walk-Not-Wait forks and breaker skips (each a lazy self-loop hop).
  size_t straggler_skips = 0;
};

// Result of a fault-tolerant collection: possibly fewer selections than
// requested, plus the recovery work that was spent getting them.
struct WalkOutcome {
  std::vector<PeerVisit> visits;
  WalkStats stats;
  // True when a budget ran out (or the route died) before all selections
  // were gathered; `truncation` then says why.
  bool truncated = false;
  util::Status truncation;
};

class RandomWalk {
 public:
  // `network` must outlive the walk.
  RandomWalk(net::SimulatedNetwork* network, const WalkParams& params);

  // Runs the walker from `sink` until `num_selections` peers are selected.
  // Selection is with replacement (the same peer may appear repeatedly),
  // matching the paper's statistical model. Walker-hop messages are charged
  // to the network's cost tracker. Fails with FailedPrecondition if the sink
  // is dead, Unavailable if the walk strands (no live neighbors anywhere),
  // or OutOfRange if max_hops is exhausted.
  util::Result<std::vector<PeerVisit>> Collect(graph::NodeId sink,
                                               size_t num_selections,
                                               util::Rng& rng);

  // Fault-tolerant collection. A hop lost in transit (lossy transport) is
  // retried in place by its sender; a lost walker *token* (the holder
  // crashed, or stranded with no live neighbors) is re-issued by the sink
  // with a fresh burn-in, so recovered strands still select from the
  // stationary distribution. Fails hard only when the sink itself is dead
  // or isolated before anything was collected; budget exhaustion returns
  // what was collected with `truncated` set.
  util::Result<WalkOutcome> CollectResilient(graph::NodeId sink,
                                             size_t num_selections,
                                             util::Rng& rng);

  // Stationary weight of `node` under this walk's variant; selections are
  // distributed proportionally to this (degree for simple/lazy, constant
  // for Metropolis-Hastings). Estimators divide by it.
  double StationaryWeight(graph::NodeId node) const;

  const WalkParams& params() const { return params_; }

 private:
  // One walker transition from `current`; returns the next peer (may equal
  // `current` for lazy/rejected/forked steps). Charges message costs for
  // real hops. When `allow_skip`, a tardy/tripped choice is abandoned as a
  // lazy self-loop (`*skipped` set; no traffic, counters stay put).
  util::Result<graph::NodeId> Step(graph::NodeId current, util::Rng& rng,
                                   bool allow_skip, bool* skipped);

  net::SimulatedNetwork* network_;
  WalkParams params_;
  // Scratch for ForwardingSet, reused across every Step of every
  // collection: filled only while an adversary plan is installed, and its
  // capacity plateaus at the walk's maximum live degree, so the synchronous
  // hop loop stops allocating once warm.
  std::vector<graph::NodeId> neighbor_scratch_;
};

}  // namespace p2paqp::sampling

#endif  // P2PAQP_SAMPLING_RANDOM_WALK_H_
