#include "core/async_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "util/alloc_guard.h"

namespace p2paqp::core {

namespace {

// Winsorized EWMA step feeding the adaptive budgets: a single straggler
// observation must not drag the budget up to straggler scale, so a sample
// is clamped to 8x the running mean before folding in. The first sample
// seeds the mean.
void FoldWinsorized(double* mean, size_t* samples, double x) {
  const double clamped = *samples > 0 && x > 8.0 * *mean ? 8.0 * *mean : x;
  *mean = *samples == 0 ? clamped
                        : (1.0 - net::kHealthEwmaAlpha) * *mean +
                              net::kHealthEwmaAlpha * clamped;
  ++*samples;
}

// One in-flight phase. Stack-local to RunPhase: every queued event resolves
// before RunPhase returns (the queue drains inside it), so events reference
// the runtime and the session buffers by raw pointer/handle — no shared_ptr
// webs, no per-event closure state beyond 16 bytes.
//
// Walker hops are *step events* (net::StepHandler): the queue stores just
// (this, walker_index) and hands every simultaneous pending hop to RunSteps
// in one batch, which iterates the SoA walker arrays with a two-deep
// software-prefetch pipeline over the compressed CSR. Replies park their
// payload in the session's SlotArena and schedule a 16-byte
// (runtime, handle) closure — the steady-state path performs no heap
// allocation (AllocGuard-measured by RunPhase, gated by tools/bench_gate.py).
class PhaseRuntime final : public net::StepHandler {
 public:
  PhaseRuntime(const PlanContext& ctx, const AsyncParams& params,
               net::EventQueue& events, const query::AggregateQuery& query,
               size_t count, util::Rng& rng, AsyncHotBuffers& buffers,
               std::vector<PeerObservation>& observations,
               TwoPhaseEngine::CollectionStats& stats, double deadline_ms)
      : network_(ctx.network),
        params_(params),
        ctx_(ctx),
        events_(events),
        query_(query),
        sink_(ctx.sink),
        rng_(rng),
        history_(ctx.network->history()),
        buf_(buffers),
        observations_(observations),
        stats_(stats),
        deadline_(deadline_ms),
        hops_left_(100 * (params.walk.burn_in * params.walkers +
                          count * params.walk.jump) +
                   1000),
        restarts_left_(sampling::AutoMaxRestarts(count)) {}

  // Launches up to `walkers` tokens with near-even selection shares.
  void Launch(size_t count) {
    size_t remaining = count;
    for (size_t w = 0; w < params_.walkers && remaining > 0; ++w) {
      size_t share = remaining / (params_.walkers - w);
      if (share == 0) continue;
      remaining -= share;
      buf_.walker_current.push_back(sink_);
      buf_.walker_burn_left.push_back(params_.walk.burn_in);
      buf_.walker_since_selection.push_back(0);
      buf_.walker_remaining.push_back(share);
      buf_.walker_incarnation.push_back(network_->peer(sink_).incarnation());
      ++active_walkers_;
      events_.ScheduleStepAfter(
          network_->DrawHopLatency(), this,
          static_cast<uint32_t>(buf_.walker_current.size() - 1));
    }
  }

  // Mid-query churn stop condition: walkers still holding a token plus
  // replies racing back to the sink.
  bool InFlight() const {
    return active_walkers_ > 0 || pending_replies_ > 0;
  }

  // Batched walker-step kernel. A walker has at most one pending hop, so
  // every arg in a batch is a distinct walker and the prefetched
  // walker_current entries are stable across the loop: pull walker i+2's
  // offset-table line and walker i+1's varint block while decoding walker
  // i's neighbors.
  void RunSteps(const uint32_t* args, size_t n) override {
    const graph::Graph& graph = network_->graph();
    for (size_t i = 0; i < n; ++i) {
      if (i + 2 < n) graph.PrefetchOffset(buf_.walker_current[args[i + 2]]);
      if (i + 1 < n) {
        graph.PrefetchNeighbors(buf_.walker_current[args[i + 1]]);
      }
      StepWalker(args[i]);
    }
  }

  // When the sink last learned something it needed: the latest accepted
  // reply or final walker termination. The queue keeps draining past this
  // instant (losing hedge copies, deduped replays), but that drain is
  // bookkeeping, not waiting — the phase's wall clock stops here.
  double done_ms = 0.0;

 private:
  // One walker hop arriving at a new peer. On the straggler-free default
  // policy: identical draws, costs, history records and fault semantics as
  // the closure-per-hop implementation this replaced — only the state
  // layout (SoA indexed by `w`) changed. DrawPeerTailDelay consumes no
  // draws without a tail regime, so legacy replay digests are untouched.
  void StepWalker(uint32_t w) {
    if (events_.now() >= deadline_) {
      // Anytime semantics: no new walker work at or past the deadline.
      // In-flight replies drain on their own (and are dropped on arrival).
      stats_.deadline_hit = true;
      WalkerDone();
      return;
    }
    if (hops_left_ == 0) {
      // Hop budget exhausted: the token expires and its remaining
      // selections are lost (the quorum check decides the phase's fate).
      WalkerDone();
      return;
    }
    --hops_left_;
    const graph::NodeId holder = buf_.walker_current[w];
    const net::ForwardingView neighbors =
        network_->ForwardingSet(holder, &buf_.neighbors);
    bool token_lost =
        !network_->IsAlive(holder) ||
        network_->peer(holder).incarnation() != buf_.walker_incarnation[w] ||
        neighbors.empty();
    if (!token_lost) {
      const net::StragglerPolicy& sp = params_.engine.straggler;
      graph::NodeId next = neighbors[rng_.UniformIndex(neighbors.size())];
      const bool selection_due =
          buf_.walker_burn_left[w] == 0 &&
          buf_.walker_since_selection[w] + 1 >= params_.walk.jump;
      // Circuit breaker: a tripped neighbor is not worth sending the token
      // to — fork immediately, for free. Selection-due hops are exempt (the
      // tripped peer's probability of being *selected* must stay exactly
      // proportional to its degree), as are hops with no untripped
      // alternative (a walk boxed in by bad peers must still make progress).
      if (sp.health_tracking && !selection_due && neighbors.size() > 1 &&
          buf_.health.Tripped(next) &&
          HasUntrippedAlternative(neighbors, next)) {
        ForkPastStraggler(w, holder, next, /*token_sent=*/false,
                          /*transit_ms=*/0.0, /*wait_ms=*/0.0,
                          /*selection_due=*/false);
        return;
      }
      if (sp.walk_not_wait) {
        // Walk-Not-Wait: draw the hop's full transit (wire delay plus the
        // neighbor's straggler tail) up front. Past the adaptive budget the
        // token is still sent — on a selection-due hop the tardy peer is
        // selected *in absentia*, preserving selection probabilities — but
        // the walk refuses to wait: it forks from the holder once the
        // budget elapses.
        const double tail_ms = network_->DrawPeerTailDelay(next, rng_);
        const double transit = network_->DrawHopLatency() + tail_ms;
        const double budget = HopBudgetMs();
        FoldWinsorized(&hop_ewma_, &hop_samples_, transit);
        if (transit > budget && neighbors.size() > 1) {
          ForkPastStraggler(w, holder, next, /*token_sent=*/true, transit,
                            /*wait_ms=*/budget, selection_due);
          return;
        }
        util::Status sent =
            network_->SendAlongEdge(net::MessageType::kWalker, holder, next);
        if (sent.ok()) {
          if (sp.health_tracking) buf_.health.Record(next, transit, true);
          AdvanceWalker(w, next, tail_ms);
          if (buf_.walker_remaining[w] > 0) {
            events_.ScheduleStepAfter(transit, this, w);
          } else {
            WalkerDone();  // All selections gathered.
          }
          return;
        }
        if (sp.health_tracking) buf_.health.Record(next, 0.0, false);
        if (network_->IsAlive(holder) && network_->AliveDegree(holder) > 0) {
          events_.ScheduleStepAfter(network_->DrawHopLatency(), this, w);
          return;
        }
        token_lost = true;
      } else {
        util::Status sent =
            network_->SendAlongEdge(net::MessageType::kWalker, holder, next);
        if (sent.ok()) {
          // The synchronous ledger summed this hop's latency; the event
          // clock is authoritative here, so draw the event delay
          // independently. The neighbor's straggler tail (0 draws without a
          // tail regime) delays both its reply and the next hop.
          const double tail_ms = network_->DrawPeerTailDelay(next, rng_);
          AdvanceWalker(w, next, tail_ms);
          if (buf_.walker_remaining[w] > 0) {
            const double transit = network_->DrawHopLatency() + tail_ms;
            if (sp.health_tracking) {
              buf_.health.Record(next, transit, true);
              FoldWinsorized(&hop_ewma_, &hop_samples_, transit);
            }
            events_.ScheduleStepAfter(transit, this, w);
          } else {
            WalkerDone();  // All selections gathered.
          }
          return;
        }
        if (sp.health_tracking) buf_.health.Record(next, 0.0, false);
        // The hop was lost in transit (drop, or the chosen neighbor crashed
        // on receipt). A live holder with a live route still has the token:
        // link-level retransmit after a timeout.
        if (network_->IsAlive(holder) && network_->AliveDegree(holder) > 0) {
          events_.ScheduleStepAfter(network_->DrawHopLatency(), this, w);
          return;
        }
        token_lost = true;
      }
    }
    // The token is gone: its holder crashed or stranded with no live
    // route. The sink re-issues it with a *fresh burn-in* — a token
    // restarted at the sink is no longer stationary-distributed.
    if (!network_->IsAlive(sink_) || network_->AliveDegree(sink_) == 0 ||
        restarts_left_ == 0) {
      WalkerDone();  // Unrecoverable: selections lost.
      return;
    }
    --restarts_left_;
    ++stats_.walk_restarts;
    buf_.walker_current[w] = sink_;
    buf_.walker_incarnation[w] = network_->peer(sink_).incarnation();
    buf_.walker_burn_left[w] = params_.walk.burn_in;
    buf_.walker_since_selection[w] = 0;
    events_.ScheduleStepAfter(network_->DrawHopLatency(), this, w);
  }

  // Successful hop bookkeeping shared by the legacy and Walk-Not-Wait
  // branches: advance the token, consume burn-in, select when due.
  // `reply_extra_ms` folds the token's tardy inbound transit into the
  // reply's departure (a slow peer cannot scan before the token arrives).
  void AdvanceWalker(uint32_t w, graph::NodeId next, double reply_extra_ms) {
    buf_.walker_current[w] = next;
    buf_.walker_incarnation[w] = network_->peer(next).incarnation();
    if (buf_.walker_burn_left[w] > 0) {
      --buf_.walker_burn_left[w];
    } else if (++buf_.walker_since_selection[w] >= params_.walk.jump) {
      buf_.walker_since_selection[w] = 0;
      --buf_.walker_remaining[w];
      SelectPeer(next, reply_extra_ms);
    }
  }

  // Walk-Not-Wait fork: give up on a tardy (token_sent) or breaker-tripped
  // (!token_sent) neighbor. With token_sent the token genuinely goes out —
  // charged like any hop, and when the hop was selection-due the tardy peer
  // is selected *in absentia* (its scan and reply proceed with the tardy
  // transit folded in), so selection probabilities are exactly those of the
  // unforked walk. The walk itself treats the fork as a *lazy self-loop*:
  // the walker stays at the holder, waits out `wait_ms`, and redraws — no
  // burn-in reset, no counter reset. Self-loops preserve detailed balance
  // for the degree-stationary distribution, so forking never conditions
  // the trajectory on having avoided slow peers (a re-burn-in here would:
  // the restarted chain mixes under the forked kernel and warps the holder
  // distribution toward slow-free neighborhoods). Breaker skips send
  // nothing and wait for nothing; they only fire on non-selection-due hops.
  void ForkPastStraggler(uint32_t w, graph::NodeId holder, graph::NodeId next,
                         bool token_sent, double transit_ms, double wait_ms,
                         bool selection_due) {
    ++stats_.straggler_skips;
    if (history_ != nullptr) {
      history_->Record(net::HistoryEventKind::kStragglerSkip,
                       net::MessageType::kWalker, holder, next);
    }
    if (token_sent) {
      util::Status sent =
          network_->SendAlongEdge(net::MessageType::kWalker, holder, next);
      if (params_.engine.straggler.health_tracking) {
        buf_.health.Record(next, transit_ms, sent.ok());
      }
      if (sent.ok() && selection_due) {
        buf_.walker_since_selection[w] = 0;
        --buf_.walker_remaining[w];
        SelectPeer(next, transit_ms);
      }
    }
    if (buf_.walker_remaining[w] == 0) {
      WalkerDone();
      return;
    }
    events_.ScheduleStepAfter(wait_ms, this, w);
  }

  bool HasUntrippedAlternative(const net::ForwardingView& neighbors,
                               graph::NodeId skip) const {
    for (graph::NodeId n : neighbors) {
      if (n != skip && !buf_.health.Tripped(n)) return true;
    }
    return false;
  }

  // One walker token retired (selections gathered, expired, or lost). The
  // last termination stamps the phase clock: a token that died with
  // selections outstanding is the moment the sink's walk gave up on them.
  void WalkerDone() {
    if (--active_walkers_ == 0 && events_.now() > done_ms) {
      done_ms = events_.now();
    }
  }

  // Adaptive Walk-Not-Wait hop budget: a multiple of the EWMA hop transit,
  // floored so a quiet network cannot shrink it below ~2 nominal hops.
  // Infinite until a few hops have been observed (never fork blind).
  double HopBudgetMs() const {
    if (hop_samples_ < 3) return std::numeric_limits<double>::infinity();
    double budget = net::kHopBudgetFactor * hop_ewma_;
    double floor = net::kHopBudgetFloorHops * network_->NominalHopLatencyMs();
    return budget < floor ? floor : budget;
  }

  // Sink-side hedge timer: a reply slower than this multiple of the EWMA
  // reply latency gets one duplicate. Infinite until warmed up.
  double HedgeDueMs() const {
    if (reply_samples_ < 3) return std::numeric_limits<double>::infinity();
    double due = net::kHedgeDelayFactor * reply_ewma_;
    double floor = network_->NominalHopLatencyMs();
    return due < floor ? floor : due;
  }

  // One selected peer: scan locally (scan-time delay), then the reply races
  // back to the sink over direct IP (the transit SendDirect draws). A reply
  // lost to faults is retransmitted after a sink-side timeout (each attempt
  // adds its own wire delay, plus the policy's backoff wait when one is
  // configured); a crashed endpoint cannot retry and the observation is
  // lost. `extra_reply_delay_ms` is the tardy inbound token transit: the
  // peer cannot scan before the token reaches it.
  void SelectPeer(graph::NodeId peer, double extra_reply_delay_ms = 0.0) {
    const uint32_t degree = network_->AliveDegree(peer);
    PeerObservation obs{.peer = peer,
                        .degree = degree,
                        .stationary_weight = static_cast<double>(degree),
                        .aggregate = {},
                        .selection_seq = selections_++};
    const ObservedPeer observed =
        ObservePeer(ctx_, query_, /*cache=*/nullptr, rng_, &buf_.exec, &obs);
    // One reply copy on the wire: the transit SendDirect drew is added to
    // `*arrival_ms`, delivered or not.
    auto send_copy = [this, peer](double* arrival_ms) {
      double transit_ms = 0.0;
      const bool ok = network_
                          ->SendDirect(net::MessageType::kAggregateReply, peer,
                                       sink_, /*extra_payload_bytes=*/0,
                                       /*batch=*/1, &transit_ms)
                          .ok();
      *arrival_ms += transit_ms;
      return ok;
    };
    const net::StragglerPolicy& sp = params_.engine.straggler;
    double delay = observed.scan_ms + extra_reply_delay_ms;
    const bool delivered = TransmitReply(
        ctx_, peer, /*batch=*/1, rng_, &stats_.reply_retransmits,
        [&](double wait_ms) {
          // The retry leaves at its actual (jittered) schedule time: the
          // backoff wait lands in the copy's arrival delay too.
          delay += wait_ms;
          return send_copy(&delay);
        });
    if (sp.health_tracking) buf_.health.Record(peer, delay, delivered);
    if (delivered) {
      FoldWinsorized(&reply_ewma_, &reply_samples_, delay);
      DeliverReply(obs, delay);
      // Hedged retransmit: the sink's hedge timer fires before a straggling
      // primary can arrive, so one duplicate copy goes out; whichever copy
      // arrives first is accepted, the other is absorbed by the
      // (peer, selection_seq) dedup. Duplicating the *same* observation is
      // bias-free — only the delivery race changes.
      if (sp.hedged_replies) {
        const double hedge_due = HedgeDueMs();
        if (delay > hedge_due) {
          ++stats_.hedges;
          buf_.dedup.RecordHedge(peer, obs.selection_seq);
          // The duplicate is served from the peer's already-computed scan:
          // it departs when the hedge timer fires, no second scan charge.
          double hedge_delay = hedge_due;
          if (send_copy(&hedge_delay)) {
            DeliverReply(obs, hedge_delay);
          }
        }
      }
    }
    // Replayed copies each cross the wire independently. A copy that
    // arrives after the original is deduped; if the original was lost, the
    // first surviving copy is accepted (indistinguishable from a
    // retransmit).
    for (size_t replay = 0; replay < observed.replays; ++replay) {
      if (!network_->IsAlive(peer) || !network_->IsAlive(sink_)) break;
      double copy_delay = delay;
      if (!send_copy(&copy_delay)) continue;
      DeliverReply(obs, copy_delay);
    }
  }

  // One reply copy racing to the sink. The payload parks in the session's
  // arena; the queued closure is (this, handle) — 16 bytes, inline in the
  // event slot, no allocation.
  void DeliverReply(const PeerObservation& obs, double arrival_delay) {
    ++pending_replies_;
    net::ArenaHandle handle = buf_.reply_arena.Acquire();
    buf_.reply_arena.at(handle) = obs;
    PhaseRuntime* self = this;
    events_.ScheduleAfter(arrival_delay,
                          [self, handle]() { self->ReplyArrived(handle); });
  }

  // Sink-side arrival: a copy later than the deadline is lost; otherwise
  // the round's dedup table keeps only the first copy of a selection.
  void ReplyArrived(net::ArenaHandle handle) {
    const PeerObservation reply = buf_.reply_arena.at(handle);
    buf_.reply_arena.Release(handle);
    --pending_replies_;
    if (events_.now() > deadline_) {
      // The sink answered at the deadline; this copy is late and counts as
      // lost (a reply arriving *exactly at* the deadline is still taken).
      // The expire record resolves the tag for the history checker's
      // hedge-accounting rule. Only a copy the sink still *needed* latches
      // the deadline flag — a losing hedge duplicate straggling in after
      // its primary was accepted curtailed nothing.
      if (!buf_.dedup.seen(reply.selection_seq)) stats_.deadline_hit = true;
      if (history_ != nullptr) {
        history_->Record(net::HistoryEventKind::kExpire,
                         net::MessageType::kAggregateReply, reply.peer, sink_,
                         1, buf_.dedup.Tag(reply.peer, reply.selection_seq));
      }
      return;
    }
    if (!buf_.dedup.Arrive(reply)) return;
    observations_.push_back(reply);  // Reply reached the sink.
    if (events_.now() > done_ms) done_ms = events_.now();
  }

  net::SimulatedNetwork* network_;
  const AsyncParams& params_;
  const PlanContext ctx_;
  net::EventQueue& events_;
  const query::AggregateQuery& query_;
  const graph::NodeId sink_;
  util::Rng& rng_;
  net::HistoryRecorder* history_;
  AsyncHotBuffers& buf_;
  std::vector<PeerObservation>& observations_;
  // The round's counters. deadline_hit latches once the event clock reaches
  // the deadline: walker steps stop scheduling new work and later replies
  // are discarded, so the queue drains naturally instead of being truncated
  // (the ledger and the reply arena still balance).
  TwoPhaseEngine::CollectionStats& stats_;
  const double deadline_;  // Absolute event-clock instant; +inf = none.
  size_t hops_left_;       // Global hop budget across all walkers.
  size_t restarts_left_;   // Global token-restart budget.
  size_t active_walkers_ = 0;
  size_t pending_replies_ = 0;
  size_t selections_ = 0;
  // Adaptive-budget state (Walk-Not-Wait and hedging), warmed by the first
  // few observed transits/replies of the query itself.
  double hop_ewma_ = 0.0;
  size_t hop_samples_ = 0;
  double reply_ewma_ = 0.0;
  size_t reply_samples_ = 0;
};

}  // namespace

AsyncQuerySession::AsyncQuerySession(net::SimulatedNetwork* network,
                                     const SystemCatalog& catalog,
                                     const AsyncParams& params)
    : network_(network), catalog_(catalog), params_(params) {
  P2PAQP_CHECK(network_ != nullptr);
  P2PAQP_CHECK_GE(params_.walkers, 1u);
  P2PAQP_CHECK_GE(params_.walk.jump, 1u);
  P2PAQP_CHECK(params_.walk.variant == sampling::WalkVariant::kSimple)
      << "async session supports the simple walk only";
}

util::Result<std::vector<PeerObservation>> AsyncQuerySession::RunPhase(
    net::EventQueue& events, const query::AggregateQuery& query,
    graph::NodeId sink, size_t count, util::Rng& rng,
    TwoPhaseEngine::CollectionStats* stats, uint64_t* drain_allocs,
    double deadline_ms) {
  // The queue's clock is monotone across phases (a fresh phase starts where
  // the previous drain ended), so the phase-relative deadline budget is
  // rebased to an absolute instant here and all phase timing is measured
  // from `phase_start`.
  const double phase_start = events.now();
  const double deadline_abs = std::isfinite(deadline_ms)
                                  ? phase_start + deadline_ms
                                  : deadline_ms;

  // Pre-size everything the drain touches, so the event loop below — the
  // steady-state window AllocGuard measures — does not grow a buffer even
  // on a cold session. Observations stay a fresh per-phase vector (the
  // caller moves it out); selections never exceed `count`, so reserving
  // here keeps the arrival-side push_backs allocation-free.
  std::vector<PeerObservation> observations;
  observations.reserve(count);
  buffers_.dedup.Open(network_, sink, count);
  buffers_.neighbors.reserve(network_->graph().max_degree());
  buffers_.walker_current.clear();
  buffers_.walker_burn_left.clear();
  buffers_.walker_since_selection.clear();
  buffers_.walker_remaining.clear();
  buffers_.walker_incarnation.clear();
  buffers_.walker_current.reserve(params_.walkers);
  buffers_.walker_burn_left.reserve(params_.walkers);
  buffers_.walker_since_selection.reserve(params_.walkers);
  buffers_.walker_remaining.reserve(params_.walkers);
  buffers_.walker_incarnation.reserve(params_.walkers);
  // Pending set: one hop event per walker plus the replies in flight (the
  // adversary's replayed copies can push past it; that growth is amortized
  // and absent from the gated fault-free configs). Hedging doubles the
  // worst-case in-flight copies, so its slots are reserved *before* the
  // drain too — the zero-allocation gate covers straggler runs.
  const size_t reply_slots =
      params_.engine.straggler.hedged_replies ? count * 2 : count;
  buffers_.reply_arena.Reserve(reply_slots + 16);
  events.Reserve(params_.walkers + reply_slots + 16);

  *stats = TwoPhaseEngine::CollectionStats{};
  stats->requested = count;
  PhaseRuntime runtime(
      PlanContext{network_, params_.engine, sink,
                  catalog_.total_degree_weight()},
      params_, events, query, count, rng, buffers_, observations, *stats,
      deadline_abs);
  runtime.Launch(count);

  // Mid-query churn rides the same event clock, stepping while the phase
  // still has in-flight work.
  if (params_.churn != nullptr && params_.churn_interval_ms > 0.0) {
    PhaseRuntime* rt = &runtime;
    params_.churn->RunOnEventQueue(events, network_, params_.churn_interval_ms,
                                   [rt]() { return rt->InFlight(); });
  }

  util::AllocGuard alloc_guard;
  events.RunUntilEmpty();
  if (drain_allocs != nullptr) *drain_allocs += alloc_guard.allocations();

  stats->duplicate_replies = buffers_.dedup.duplicates();
  // A deadline-curtailed phase answers exactly when its budget runs out;
  // otherwise the clock stops at the last needed arrival, not at the
  // post-answer drain of losing duplicate copies.
  stats->elapsed_ms = stats->deadline_hit
                          ? deadline_ms
                          : std::max(runtime.done_ms, phase_start) - phase_start;
  // A deadline-curtailed phase waives the quorum: the caller returns an
  // anytime answer with a widened CI instead of failing the query.
  util::Status closed = CloseRound(params_.engine, observations.size(), stats);
  if (!closed.ok()) return closed;
  return observations;
}

util::Result<AsyncQueryReport> AsyncQuerySession::Execute(
    const query::AggregateQuery& query, graph::NodeId sink, util::Rng& rng) {
  if (query.op != query::AggregateOp::kCount &&
      query.op != query::AggregateOp::kSum) {
    return util::Status::InvalidArgument(
        "async session supports COUNT and SUM");
  }
  if (sink >= network_->num_peers() || !network_->IsAlive(sink)) {
    return util::Status::FailedPrecondition("sink peer is not live");
  }
  net::EventQueue events;
  uint64_t drain_allocs = 0;
  const double deadline =
      params_.engine.deadline_ms > 0.0
          ? params_.engine.deadline_ms
          : std::numeric_limits<double>::infinity();
  if (params_.engine.straggler.health_tracking) {
    // Reset allocates (flat per-peer arrays), so it happens here — per
    // query, before any phase drains — keeping Record()/Tripped() free
    // inside the measured event loops. Phase II inherits phase I's scores.
    buffers_.health.Reset(network_->num_peers());
  }

  // Per-phase event-clock time; a phase the deadline skipped stays 0.
  double phase_elapsed[2] = {0.0, 0.0};
  size_t phase = 0;
  auto answer = RunTwoPhasePlan(
      PlanContext{network_, params_.engine, sink,
                  catalog_.total_degree_weight()},
      query, deadline, rng,
      [&](size_t count, double deadline_ms,
          TwoPhaseEngine::CollectionStats* stats) {
        auto got = RunPhase(events, query, sink, count, rng, stats,
                            &drain_allocs, deadline_ms);
        phase_elapsed[phase++] = stats->elapsed_ms;
        return got;
      });
  if (!answer.ok()) return answer.status();

  AsyncQueryReport report;
  report.answer = std::move(*answer);
  // The event clock, not the sequential sum, is the real latency — measured
  // per phase up to the last arrival the sink needed. Losing hedge copies
  // and deduped replays drain after the answer is ready (keeping the arena
  // and ledger balanced) without counting as waiting, and an anytime answer
  // is produced *at* the deadline.
  const double total_elapsed = phase_elapsed[0] + phase_elapsed[1];
  const double end_ms = report.answer.deadline_hit
                            ? std::min(total_elapsed, deadline)
                            : total_elapsed;
  report.answer.cost.latency_ms = end_ms;
  report.makespan_ms = end_ms;
  report.phase1_done_ms = std::min(phase_elapsed[0], end_ms);
  report.events = events.executed();
  report.drain_allocs = drain_allocs;
  return report;
}

}  // namespace p2paqp::core
