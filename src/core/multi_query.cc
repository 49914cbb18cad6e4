#include "core/multi_query.h"

#include <algorithm>
#include <utility>

#include "core/reply_path.h"
#include "query/local_executor.h"
#include "util/bug_injection.h"

namespace p2paqp::core {

struct QueryScheduler::QueryState {
  const query::AggregateQuery* query = nullptr;
  CollectedPhase phase1;
  CollectedPhase phase2;
  PhaseTwoPlan plan;
  bool failed = false;
  util::Status failure = util::Status::Ok();

  void Fail(util::Status why) {
    failed = true;
    failure = std::move(why);
  }
};

QueryScheduler::QueryScheduler(net::SimulatedNetwork* network,
                               const SystemCatalog& catalog,
                               const SchedulerParams& params,
                               FreshnessCache* cache)
    : network_(network),
      catalog_(catalog),
      params_(params),
      cache_(cache),
      total_weight_(catalog.total_degree_weight()) {
  P2PAQP_CHECK(network_ != nullptr);
  P2PAQP_CHECK(cache_ != nullptr);
  P2PAQP_CHECK_GT(total_weight_, 0.0);
  P2PAQP_CHECK_GE(params_.engine.phase1_peers, 2u);
}

void QueryScheduler::BeginBatchFrame(SampleFrameStats* stats) {
  if (!frame_.selections.empty() &&
      cache_->epoch() - frame_.epoch > params_.frame_ttl_epochs) {
    // Expired: a frame this old may misrepresent the live overlay. Rebuild
    // whole rather than mixing selection vintages.
    frame_.selections.clear();
    ++stats->rebuilds;
    ++lifetime_frame_.rebuilds;
    if (net::HistoryRecorder* history = network_->history()) {
      history->Record(net::HistoryEventKind::kExpire,
                      net::MessageType::kSampleRequest, graph::kInvalidNode,
                      graph::kInvalidNode);
    }
  }
  batch_carry_ = frame_.selections.size();
}

util::Status QueryScheduler::EnsureFrame(size_t needed, graph::NodeId sink,
                                         uint32_t batch, util::Rng& rng,
                                         SampleFrameStats* stats) {
  if (frame_.selections.empty()) frame_.epoch = cache_->epoch();
  size_t have = frame_.selections.size();
  // Hits are carried-over selections only; `stats` accumulates across the
  // batch's phases, so count the carry prefix [0, min(carry, needed)) once.
  size_t usable_carry = std::min(batch_carry_, needed);
  if (usable_carry > stats->frame_hits) {
    size_t new_hits = usable_carry - stats->frame_hits;
    stats->frame_hits += new_hits;
    lifetime_frame_.frame_hits += new_hits;
    if (util::BugArmed(util::InjectedBug::kDoubleCountFrameHits)) {
      // Injected bug: the carry prefix is credited again on top of the
      // first count, so hits can exceed the selections actually carried.
      stats->frame_hits += new_hits;
      lifetime_frame_.frame_hits += new_hits;
    }
  }
  stats->frame_epoch = frame_.epoch;
  lifetime_frame_.frame_epoch = frame_.epoch;
  if (have >= needed) return util::Status::Ok();

  // Incremental top-up: walk only the missing selections. The walk restarts
  // at the sink with a fresh burn-in, so appended selections are stationary
  // like the originals.
  sampling::WalkParams walk_params = params_.walk;
  walk_params.batch = params_.batch_walkers ? batch : 1;
  sampling::RandomWalk walk(network_, walk_params);
  auto outcome = walk.CollectResilient(sink, needed - have, rng);
  if (!outcome.ok()) return outcome.status();
  for (const sampling::PeerVisit& visit : outcome->visits) {
    frame_.selections.push_back(visit);
  }
  size_t appended = outcome->visits.size();
  stats->frame_misses += appended;
  lifetime_frame_.frame_misses += appended;
  // Truncation (budget exhaustion) leaves a short frame; the per-query
  // quorum checks downstream decide whether that is fatal.
  return util::Status::Ok();
}

void QueryScheduler::CollectRange(std::vector<QueryState>& states,
                                  size_t first, size_t last,
                                  const PlanContext& ctx, bool phase2,
                                  util::Rng& rng) {
  std::vector<size_t> active;
  std::vector<PeerObservation> pending;
  query::LocalExecScratch scratch;
  for (size_t idx = first; idx < last && idx < frame_.selections.size();
       ++idx) {
    const sampling::PeerVisit& visit = frame_.selections[idx];
    size_t offset = idx - first;
    active.clear();
    for (size_t q = 0; q < states.size(); ++q) {
      if (states[q].failed) continue;
      if (phase2 && offset >= states[q].plan.phase2_peers) continue;
      active.push_back(q);
    }
    if (active.empty()) break;  // Offsets only grow; nobody needs the rest.
    // A frame peer may have departed since selection (or between batches):
    // every query multiplexed on this visit loses the observation.
    if (!network_->IsAlive(visit.peer)) continue;
    const auto batch_width = static_cast<uint32_t>(active.size());
    // Per-query local execution, answered from the shared FreshnessCache
    // when the (peer, query-signature) pair was computed recently. Degree/
    // value lies follow the batched reply exactly as they follow the
    // per-query one; replayed duplicates are dropped by the sink's
    // (query, peer, seq) tag dedup and only waste adversary bandwidth, so
    // they are not modeled on this path.
    pending.clear();
    for (size_t q : active) {
      // Weight under which the peer entered the frame; reused selections
      // keep their selection-time degree so prob(p) matches the draw.
      PeerObservation obs{.peer = visit.peer,
                          .degree = visit.degree,
                          .stationary_weight =
                              static_cast<double>(visit.degree),
                          .aggregate = {},
                          .selection_seq = idx};
      ObservePeer(ctx, *states[q].query, cache_, rng, &scratch, &obs);
      pending.push_back(obs);
    }
    // One batched reply carries every multiplexed query's (y(p), deg(p))
    // body behind a single shared header. Lost in transit = lost for all of
    // them; retransmitted after a sink-side timeout like the engine's.
    size_t retries = 0;
    const bool delivered = TransmitReply(
        ctx, visit.peer, batch_width, rng, &retries, [&](double /*wait_ms*/) {
          return network_
              ->SendDirect(net::MessageType::kAggregateReply, visit.peer,
                           ctx.sink, /*extra_payload_bytes=*/0, batch_width)
              .ok();
        });
    for (size_t i = 0; i < active.size(); ++i) {
      CollectedPhase& phase =
          phase2 ? states[active[i]].phase2 : states[active[i]].phase1;
      phase.stats.reply_retransmits += retries;
      if (delivered) phase.observations.push_back(pending[i]);
    }
  }
}

BatchResult QueryScheduler::ExecuteBatch(
    const std::vector<query::AggregateQuery>& queries, graph::NodeId sink,
    util::Rng& rng) {
  BatchResult result;
  result.answers.reserve(queries.size());
  net::CostSnapshot before = network_->cost_snapshot();
  if (!params_.reuse_frame) InvalidateFrame();
  BeginBatchFrame(&result.frame);

  std::vector<QueryState> states(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    states[q].query = &queries[q];
    if (queries[q].op != query::AggregateOp::kCount &&
        queries[q].op != query::AggregateOp::kSum) {
      states[q].Fail(util::Status::InvalidArgument(
          "scheduler batches support COUNT and SUM only"));
    }
  }
  bool sink_ok =
      sink < network_->num_peers() && network_->IsAlive(sink);
  if (!sink_ok) {
    for (QueryState& state : states) {
      if (!state.failed) {
        state.Fail(util::Status::FailedPrecondition("sink peer is not live"));
      }
    }
  }

  const PlanContext ctx{network_, params_.engine, sink, total_weight_};
  const size_t m = params_.engine.phase1_peers;
  size_t live = 0;
  for (const QueryState& state : states) live += state.failed ? 0 : 1;

  if (live > 0) {
    // ---- Phase I over the shared frame prefix [0, m). ----
    util::Status framed = EnsureFrame(m, sink, static_cast<uint32_t>(live),
                                      rng, &result.frame);
    if (!framed.ok()) {
      for (QueryState& state : states) {
        if (!state.failed) state.Fail(framed);
      }
    } else {
      for (QueryState& state : states) {
        if (!state.failed) state.phase1.stats.requested = m;
      }
      CollectRange(states, 0, m, ctx, /*phase2=*/false, rng);
      for (QueryState& state : states) {
        if (state.failed) continue;
        util::Status closed =
            CloseRound(params_.engine, state.phase1.observations.size(),
                       &state.phase1.stats);
        if (!closed.ok()) {
          state.Fail(std::move(closed));
        } else if (state.phase1.stats.delivered < 2) {
          state.Fail(util::Status::Unavailable(
              "phase I delivered too few observations to cross-validate"));
        }
      }
    }
  }

  // ---- Per-query cross-validation sizing (paper Sec. 3.4). ----
  size_t widest_plan = 0;
  for (QueryState& state : states) {
    if (state.failed) continue;
    state.plan =
        PlanPhaseTwo(ctx, *state.query, state.phase1.observations, rng);
    widest_plan = std::max(widest_plan, state.plan.phase2_peers);
  }

  if (widest_plan > 0) {
    // ---- Phase II over frame slots [m, m + widest_plan): one shared
    // top-up sized by the largest plan; each query consumes its prefix. ----
    size_t live2 = 0;
    for (const QueryState& state : states) live2 += state.failed ? 0 : 1;
    util::Status framed =
        EnsureFrame(m + widest_plan, sink, static_cast<uint32_t>(live2), rng,
                    &result.frame);
    if (!framed.ok()) {
      for (QueryState& state : states) {
        if (!state.failed) state.Fail(framed);
      }
    } else {
      for (QueryState& state : states) {
        if (!state.failed) {
          state.phase2.stats.requested = state.plan.phase2_peers;
        }
      }
      CollectRange(states, m, m + widest_plan, ctx, /*phase2=*/true, rng);
      for (QueryState& state : states) {
        if (state.failed) continue;
        util::Status closed =
            CloseRound(params_.engine, state.phase2.observations.size(),
                       &state.phase2.stats);
        if (!closed.ok()) state.Fail(std::move(closed));
      }
    }
  }
  // ---- Per-query answers. Per-query cost stays zero: the batched
  // walk/reply work is shared and indivisible, so BatchResult::cost
  // carries the whole batch. ----
  for (QueryState& state : states) {
    if (state.failed) {
      result.answers.emplace_back(state.failure);
      continue;
    }
    result.answers.push_back(AssembleAnswer(ctx, state.query->op, state.plan,
                                            state.phase1, state.phase2, rng));
  }

  result.cost = net::CostDelta(network_->cost_snapshot(), before);
  return result;
}

}  // namespace p2paqp::core
