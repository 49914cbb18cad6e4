#include "core/reply_path.h"

#include <cmath>
#include <string>

#include "net/health.h"
#include "util/bug_injection.h"

namespace p2paqp::core {

ObservedPeer ObservePeer(const PlanContext& ctx,
                         const query::AggregateQuery& query,
                         LocalResultCache* cache, util::Rng& rng,
                         query::LocalExecScratch* scratch,
                         PeerObservation* obs) {
  net::SimulatedNetwork* network = ctx.network;
  ObservedPeer observed;
  if (cache != nullptr && cache->Lookup(obs->peer, query, &obs->aggregate)) {
    // The visit happened (walker hop costs are already charged) but the
    // peer answers from its cache: no local scan.
    network->cost().RecordPeerVisit();
  } else {
    obs->aggregate = query::ExecuteLocal(
        network->peer(obs->peer).database(), query,
        query::SubSamplePolicy{.t = ctx.params.tuples_per_peer,
                               .mode = ctx.params.subsample_mode,
                               .block_size = ctx.params.block_size},
        rng, scratch);
    observed.scan_ms = network->RecordLocalExecution(
        obs->peer, obs->aggregate.processed_tuples,
        obs->aggregate.processed_tuples);
    if (cache != nullptr) cache->Store(obs->peer, query, obs->aggregate);
  }
  // An adversarial peer lies in the reply it is about to send.
  net::AdversaryInjector* adversary = network->adversary();
  if (adversary == nullptr || !adversary->IsAdversarial(obs->peer)) {
    return observed;
  }
  const uint32_t claimed = adversary->ClaimedDegree(obs->peer, obs->degree);
  if (claimed != obs->degree && obs->degree > 0) {
    // The stationary weight the sink divides by follows the lie: the sink
    // only knows what the reply claims.
    obs->stationary_weight *= static_cast<double>(claimed) /
                              static_cast<double>(obs->degree);
    obs->degree = claimed;
  }
  const net::ReplyTampering tampering = adversary->OnReply(obs->peer);
  if (tampering.value_scale != 1.0) {
    obs->aggregate.count_value *= tampering.value_scale;
    obs->aggregate.sum_value *= tampering.value_scale;
    obs->aggregate.total_sum_value *= tampering.value_scale;
  }
  observed.replays = tampering.replays;
  return observed;
}

double BeginRetransmit(const PlanContext& ctx, graph::NodeId peer,
                       size_t attempt, uint32_t batch, util::Rng& rng) {
  // The retry leaves at its actual schedule time: the sink-side wait (fixed
  // timer or jittered exponential backoff) lands in the ledger before the
  // re-send is charged, so the latency a backoff plan reports is the
  // latency the query actually spent waiting.
  const double wait_ms =
      net::RetryBackoffMs(ctx.params.straggler, attempt, rng);
  if (wait_ms > 0.0) ctx.network->cost().RecordLatency(wait_ms);
  // The sink's reply timer fires before it asks for the re-send. A batched
  // reply is lost (and re-sent) whole: one pair per wire message.
  if (net::HistoryRecorder* history = ctx.network->history()) {
    history->Record(net::HistoryEventKind::kTimeout,
                    net::MessageType::kAggregateReply, peer, ctx.sink, batch);
    history->Record(net::HistoryEventKind::kRetransmit,
                    net::MessageType::kAggregateReply, peer, ctx.sink, batch);
  }
  return wait_ms;
}

void ReplyDedup::Open(net::SimulatedNetwork* network, graph::NodeId sink,
                      size_t selections) {
  seen_.assign(selections, 0);
  history_ = network->history();
  sink_ = sink;
  round_ = history_ != nullptr ? history_->NextRound() : 0;
  duplicates_ = 0;
}

bool ReplyDedup::Arrive(const PeerObservation& reply) {
  P2PAQP_DCHECK(reply.selection_seq < seen_.size());
  const bool duplicate = seen_[reply.selection_seq] != 0;
  seen_[reply.selection_seq] = 1;
  // Injected bug: the sink forgets it has seen this tag and counts the copy
  // as a fresh observation.
  const bool drop =
      duplicate && !util::BugArmed(util::InjectedBug::kDisableReplyDedup);
  if (drop) ++duplicates_;
  if (history_ != nullptr) {
    history_->Record(drop ? net::HistoryEventKind::kDedupDrop
                          : net::HistoryEventKind::kDedupAccept,
                     net::MessageType::kAggregateReply, reply.peer, sink_, 1,
                     Tag(reply.peer, reply.selection_seq));
  }
  return !drop;
}

void ReplyDedup::RecordHedge(graph::NodeId peer, size_t seq) const {
  if (history_ == nullptr) return;
  history_->Record(net::HistoryEventKind::kHedgeDue,
                   net::MessageType::kAggregateReply, peer, sink_);
  history_->Record(net::HistoryEventKind::kHedge,
                   net::MessageType::kAggregateReply, peer, sink_, 1,
                   Tag(peer, seq));
}

util::Status CloseRound(const EngineParams& params, size_t delivered,
                        TwoPhaseEngine::CollectionStats* stats) {
  stats->delivered = delivered;
  stats->lost = stats->requested - delivered;
  const auto quorum = static_cast<size_t>(std::ceil(
      params.min_observation_quorum * static_cast<double>(stats->requested)));
  if (delivered < quorum && !stats->deadline_hit &&
      !util::BugArmed(util::InjectedBug::kSkipQuorumCheck)) {
    return util::Status::Unavailable(
        "observation quorum not met: " + std::to_string(delivered) + "/" +
        std::to_string(stats->requested) + " delivered");
  }
  return util::Status::Ok();
}

}  // namespace p2paqp::core
