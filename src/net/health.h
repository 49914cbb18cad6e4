// Per-peer health scoreboard and the straggler-resilience policy knobs.
//
// The scoreboard is an EWMA latency + failure-rate tracker fed by the
// engines as replies resolve; a pure-function circuit breaker on top of it
// lets neighbor selection route around peers that have proven themselves
// tardy or flaky. Skipped peers stay *selectable* (a skip is a lazy
// self-loop that preserves the walk's stationary distribution, and
// selection-due hops are never breaker-skipped), so Horvitz-Thompson
// weights stay unbiased — the board only steers which transit edges the
// walk is willing to wait on.
//
// Everything here is flat arrays + scalars: EnsureCapacity() is called in
// the engines' reserve-before-drain block, after which Record()/Tripped()
// are allocation-free inside the event loop (the zero-allocation gate
// covers them).
#ifndef P2PAQP_NET_HEALTH_H_
#define P2PAQP_NET_HEALTH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace p2paqp::net {

// The straggler-resilience switches in one struct so EngineParams carries a
// single field. Default-constructed = everything off: engines behave (and
// draw RNG) exactly as before this subsystem existed. The tuning behind
// each switch is fixed by the constants below.
struct StragglerPolicy {
  // Walk-Not-Wait: a walker whose next hop would take longer than the
  // adaptive budget (kHopBudgetFactor x the observed hop EWMA) gives up on
  // the transit after the budget elapses instead of blocking. A fork is a
  // lazy self-loop (stationary-distribution preserving), and the tardy peer
  // is still selected in absentia on selection-due hops.
  bool walk_not_wait = false;
  // Hedged replies: when a primary reply's modelled delay exceeds
  // kHedgeDelayFactor x the reply-latency EWMA (the adaptive "slowest
  // decile" cut), the sink sends one hedged duplicate; (peer,
  // selection_seq) dedup absorbs double deliveries.
  bool hedged_replies = false;
  // Retransmit backoff: a fixed sink-side wait charged to the ledger per
  // retry (0 keeps the PR 1 behavior of charging nothing), or exponential
  // backoff from kBackoffBaseMs with seed-derived +/-kBackoffJitter.
  double retransmit_timeout_ms = 0.0;
  bool exponential_backoff = false;
  // Health scoreboard feeding the circuit breaker.
  bool health_tracking = false;
};

// Walk-Not-Wait hop budget: this multiple of the hop-transit EWMA (the
// synchronous walk, which observes no transits, uses the nominal hop)...
inline constexpr double kHopBudgetFactor = 4.0;
// ...never below this many nominal hops, so a lucky streak of fast hops
// cannot shrink the budget into hair-trigger territory.
inline constexpr double kHopBudgetFloorHops = 2.0;
// Hedge timer, as a multiple of the reply-latency EWMA.
inline constexpr double kHedgeDelayFactor = 3.0;
// Exponential backoff: first retry waits kBackoffBaseMs, each later one
// doubles, every wait jittered by +/-kBackoffJitter.
inline constexpr double kBackoffBaseMs = 120.0;
inline constexpr double kBackoffJitter = 0.25;
// Smoothing weight of every straggler EWMA (health board, hop and reply
// budgets).
inline constexpr double kHealthEwmaAlpha = 0.2;
// The breaker trips once a peer has kBreakerMinSamples observations and
// either its failure EWMA reaches kBreakerFailureThreshold or its latency
// EWMA reaches kBreakerLatencyFactor x the global latency EWMA.
inline constexpr size_t kBreakerMinSamples = 4;
inline constexpr double kBreakerFailureThreshold = 0.6;
inline constexpr double kBreakerLatencyFactor = 8.0;

// Sink-side wait before retry `attempt` (1-based) under `policy`: the fixed
// timer, or jittered exponential backoff drawn from `rng`. Consumes RNG only
// under exponential backoff, so legacy query streams replay bit-identically
// under legacy policies.
double RetryBackoffMs(const StragglerPolicy& policy, size_t attempt,
                      util::Rng& rng);

// EWMA latency + failure scoreboard over the peers a query has touched.
class PeerHealthBoard {
 public:
  // Grows the flat per-peer arrays (allocation happens HERE, outside the
  // drain) and clears all statistics.
  void Reset(size_t num_peers);

  // Folds one resolved reply/hop into the peer's EWMAs. Failures update the
  // failure rate only (there is no meaningful latency for a lost message).
  void Record(graph::NodeId peer, double latency_ms, bool ok);

  double LatencyEwma(graph::NodeId peer) const { return latency_[peer]; }
  double FailureEwma(graph::NodeId peer) const { return failure_[peer]; }
  uint32_t Samples(graph::NodeId peer) const { return samples_[peer]; }
  double GlobalLatencyEwma() const { return global_latency_; }

  // Circuit breaker: pure function of the recorded statistics.
  bool Tripped(graph::NodeId peer) const;

  // Number of touched peers currently past the breaker (telemetry; O(touched)).
  size_t TrippedCount() const;
  size_t TouchedPeers() const { return touched_.size(); }

  bool empty() const { return latency_.empty(); }

 private:
  std::vector<float> latency_;
  std::vector<float> failure_;
  std::vector<uint32_t> samples_;
  std::vector<graph::NodeId> touched_;
  double global_latency_ = 0.0;
  uint64_t global_samples_ = 0;
};

}  // namespace p2paqp::net

#endif  // P2PAQP_NET_HEALTH_H_
