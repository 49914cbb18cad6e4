// The per-selection reply protocol, written once for the three executors of
// the two-phase plan (TwoPhaseEngine, AsyncQuerySession, QueryScheduler).
//
// Every selected peer ships (y(p), deg(p)) straight back to the sink over
// direct IP (Sec. 3.2). Between the peer's scan and the sink's quorum count
// each executor runs the same four steps: ObservePeer, TransmitReply,
// ReplyDedup, CloseRound. What stays with each executor is timing policy:
// whether to hedge, how peer health is scored, and (on the event clock)
// when each copy arrives.
#ifndef P2PAQP_CORE_REPLY_PATH_H_
#define P2PAQP_CORE_REPLY_PATH_H_

#include <cstdint>
#include <vector>

#include "core/two_phase.h"

namespace p2paqp::core {

struct ObservedPeer {
  // Duplicate copies an adversarial peer pushes at the sink on top of its
  // reply (AdversaryInjector::OnReply).
  size_t replays = 0;
  // Local-scan time, CPU-speed scaled; 0 when the cache answered.
  double scan_ms = 0.0;
};

// Step 1. Fills obs->aggregate for the selection `obs` names (peer, degree,
// weight and seq set by the caller): from `cache` when one is set and
// fresh, otherwise a local scan charged to the ledger and stored in
// `cache`. Then applies an installed adversary's tampering: a misreported
// degree (the stationary weight the sink divides by follows the lie) and
// corrupted aggregates.
ObservedPeer ObservePeer(const PlanContext& ctx,
                         const query::AggregateQuery& query,
                         LocalResultCache* cache, util::Rng& rng,
                         query::LocalExecScratch* scratch,
                         PeerObservation* obs);

// TransmitReply's bookkeeping before re-send `attempt` (1-based): the
// sink-side wait under the straggler policy, charged to the ledger, and a
// kTimeout + kRetransmit history pair of `batch` width. Returns the wait.
double BeginRetransmit(const PlanContext& ctx, graph::NodeId peer,
                       size_t attempt, uint32_t batch, util::Rng& rng);

// Step 2. Sends one reply copy from `peer` with `send_copy(wait_ms)`, which
// returns whether the copy was delivered. A lost copy is re-sent after a
// sink-side timeout, up to params.reply_retransmits times, while both
// endpoints are alive. Each retry is added to *retries and passes its
// backoff wait to `send_copy` (the first send waits 0). Returns whether any
// copy was delivered.
template <typename SendCopy>
bool TransmitReply(const PlanContext& ctx, graph::NodeId peer, uint32_t batch,
                   util::Rng& rng, size_t* retries, SendCopy&& send_copy) {
  for (size_t attempt = 0;; ++attempt) {
    double wait_ms = 0.0;
    if (attempt > 0) {
      ++*retries;
      wait_ms = BeginRetransmit(ctx, peer, attempt, batch, rng);
    }
    if (send_copy(wait_ms)) return true;
    if (attempt == ctx.params.reply_retransmits ||
        !ctx.network->IsAlive(peer) || !ctx.network->IsAlive(ctx.sink)) {
      return false;
    }
  }
}

// Step 3. The sink's reply dedup for one collection round. Replies are
// tagged (round, peer, selection_seq); a seq is issued to exactly one peer
// per round and tampering never rewrites reply identity, so the tag
// collapses to the seq alone — one flag byte per selection. A replayed or
// hedged copy of a selection already seen is dropped before the quorum
// count; a with-replacement reselection carries a fresh seq and is kept.
class ReplyDedup {
 public:
  // Starts a round of `selections` seqs toward `sink`, reusing the flags'
  // storage; draws the round's tag namespace from the attached history.
  void Open(net::SimulatedNetwork* network, graph::NodeId sink,
            size_t selections);

  bool seen(size_t seq) const { return seen_[seq] != 0; }
  uint64_t Tag(graph::NodeId peer, size_t seq) const {
    return net::DedupTag(round_, peer, seq);
  }

  // One copy of `reply` reaching the sink: the first copy of a selection is
  // accepted (kDedupAccept, true), every later one dropped (kDedupDrop,
  // counted in duplicates(), false).
  bool Arrive(const PeerObservation& reply);

  // The sink's hedge timer fired for `peer`'s selection `seq`: the
  // kHedgeDue + kHedge pair, tagged like the copies the hedge races.
  void RecordHedge(graph::NodeId peer, size_t seq) const;

  size_t duplicates() const { return duplicates_; }

 private:
  std::vector<uint8_t> seen_;
  net::HistoryRecorder* history_ = nullptr;
  graph::NodeId sink_ = graph::kInvalidNode;
  uint64_t round_ = 0;
  size_t duplicates_ = 0;
};

// Step 4. Closes a round that delivered `delivered` of stats->requested
// observations: fills stats->delivered and stats->lost, and fails
// Unavailable below params.min_observation_quorum of the request — unless
// the deadline cut the round short (stats->deadline_hit), when the plan
// answers anytime instead.
util::Status CloseRound(const EngineParams& params, size_t delivered,
                        TwoPhaseEngine::CollectionStats* stats);

}  // namespace p2paqp::core

#endif  // P2PAQP_CORE_REPLY_PATH_H_
