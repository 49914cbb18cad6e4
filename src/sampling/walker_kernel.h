// The walker's hop transition (Sec. 3.3 / Sec. 4 Phase I), written once:
// self-loops, circuit breaker, Walk-Not-Wait (DESIGN.md, "Straggler
// semantics"), retransmit, sink re-issue and the hop and restart budgets.
// Executors only decide how to wait for each WalkerAction: RandomWalk
// charges the ledger, core::AsyncQuerySession schedules a step event.
// Header-inline so the event loop's batched step inlines it.
#ifndef P2PAQP_SAMPLING_WALKER_KERNEL_H_
#define P2PAQP_SAMPLING_WALKER_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/health.h"
#include "net/network.h"
#include "sampling/random_walk.h"
#include "util/rng.h"

namespace p2paqp::sampling {

struct WalkerState {
  graph::NodeId holder = graph::kInvalidNode;
  // Incarnation of `holder` when it received the token; a mismatch at hop
  // time means the holder died and rejoined in between.
  uint64_t incarnation = 0;
  size_t burn_left = 0;
  size_t since_selection = 0;
  size_t remaining = 0;  // Selections the token still owes.
};

enum class WalkerAction : uint8_t {
  kForward,     // The token moved to `peer` (== holder on a self-loop).
  kSelect,      // ...and `peer` was selected.
  kFork,        // The holder keeps the token and redraws after `wait_ms`.
  kRetransmit,  // The hop was lost in transit; the holder retries.
  kRestart,     // The token was lost; the sink re-issued it.
  kDone,        // The token retired with selections outstanding.
};

// Why a kDone token retired: a spent budget, or a dead or stranded sink.
enum class WalkerEnd : uint8_t { kHops, kRestarts, kSinkDown, kSinkStranded };

struct WalkerStep {
  WalkerAction action = WalkerAction::kDone;
  WalkerEnd end = WalkerEnd::kHops;
  bool selected = false;  // kSelect, or a kFork's in-absentia selection.
  graph::NodeId peer = graph::kInvalidNode;
  // Walk-Not-Wait only: the drawn transit (wire delay + straggler tail).
  double transit_ms = 0.0;
  double tail_ms = 0.0;
  double wait_ms = 0.0;  // kFork only.
};

class WalkerKernel {
 public:
  // One round: `walkers` tokens from `sink` owing `num_selections` share
  // one hop and one restart budget. `straggler` and `health` may be null
  // (off; simple walk only); `scratch` backs an adversary's view.
  WalkerKernel(net::SimulatedNetwork* network, const WalkParams& params,
               const net::StragglerPolicy* straggler,
               net::PeerHealthBoard* health, graph::NodeId sink,
               size_t num_selections, size_t walkers,
               std::vector<graph::NodeId>* scratch)
      : network_(network),
        params_(params),
        sink_(sink),
        scratch_(scratch),
        history_(network->history()),
        max_hops_(params.max_hops != 0
                      ? params.max_hops
                      : AutoMaxHops(params, num_selections, walkers)),
        max_restarts_(params.max_restarts != 0
                          ? params.max_restarts
                          : AutoMaxRestarts(num_selections)) {
    if (params.variant == WalkVariant::kSimple && straggler != nullptr) {
      walk_not_wait_ = straggler->walk_not_wait;
      if (straggler->health_tracking) health_ = health;
    }
  }

  // A fresh token at the sink owing `selections`.
  WalkerState Launch(size_t selections) const {
    return WalkerState{.holder = sink_,
                       .incarnation = network_->peer(sink_).incarnation(),
                       .burn_left = params_.burn_in,
                       .since_selection = 0,
                       .remaining = selections};
  }

  // One transition of `w`. Every call spends one hop of the budget, the
  // call that finds the token lost included.
  WalkerStep Step(WalkerState& w, util::Rng& rng) {
    if (stats_.hops >= max_hops_) return Done(WalkerEnd::kHops);
    ++stats_.hops;
    const graph::NodeId holder = w.holder;
    if (!network_->IsAlive(holder) ||
        network_->peer(holder).incarnation() != w.incarnation) {
      return LoseToken(w);
    }
    if (params_.variant == WalkVariant::kLazy && rng.Bernoulli(0.5)) {
      return Advance(w, holder);  // Lazy self-loop: no traffic.
    }
    // One uniform draw over the forwarding set, hijacked or not, so
    // adversary-free runs consume the same stream.
    const net::ForwardingView view = network_->ForwardingSet(holder, scratch_);
    if (view.empty()) return LoseToken(w);
    const graph::NodeId next = view[rng.UniformIndex(view.size())];
    const bool selection_due =
        w.burn_left == 0 && w.since_selection + 1 >= params_.jump;
    // Circuit breaker: fork away from a tripped neighbour, for free, unless
    // the hop is selection-due (selection stays proportional to degree) or
    // no untripped alternative exists (a boxed-in walk must progress).
    if (health_ != nullptr && !selection_due && view.size() > 1 &&
        health_->Tripped(next)) {
      for (graph::NodeId alternative : view) {
        if (alternative == next || health_->Tripped(alternative)) continue;
        return Fork(w, holder, next, /*token_sent=*/false,
                    /*transit_ms=*/0.0, /*wait_ms=*/0.0,
                    /*selection_due=*/false);
      }
    }
    double tail_ms = 0.0;
    double transit_ms = 0.0;
    if (walk_not_wait_) {
      // Walk-Not-Wait: draw the whole transit up front; fork past the
      // budget (a multiple of the hop-transit EWMA, floored at ~2 nominal
      // hops, infinite until a few hops were seen).
      tail_ms = network_->DrawPeerTailDelay(next, rng);
      transit_ms = network_->DrawHopLatency() + tail_ms;
      double budget = std::numeric_limits<double>::infinity();
      if (hop_samples_ >= 3) {
        budget = std::max(
            net::kHopBudgetFactor * hop_ewma_,
            net::kHopBudgetFloorHops * network_->NominalHopLatencyMs());
      }
      net::FoldWinsorized(&hop_ewma_, &hop_samples_, transit_ms);
      if (transit_ms > budget && view.size() > 1) {
        return Fork(w, holder, next, /*token_sent=*/true, transit_ms,
                    /*wait_ms=*/budget, selection_due);
      }
    }
    if (params_.variant == WalkVariant::kMetropolisHastings) {
      // Accept with min(1, deg(u)/deg(v)); rejection = stay (no traffic).
      const double du = network_->AliveDegree(holder);
      const double dv = network_->AliveDegree(next);
      if (dv > du && !rng.Bernoulli(du / dv)) return Advance(w, holder);
    }
    if (!Send(holder, next)) {
      ScoreHop(next, 0.0, /*ok=*/false);
      // A live holder with a live route still has the token: the hop was
      // lost in transit (a drop, or the neighbour crashed on receipt).
      if (network_->IsAlive(holder) && network_->AliveDegree(holder) > 0) {
        return WalkerStep{.action = WalkerAction::kRetransmit, .peer = next};
      }
      return LoseToken(w);
    }
    if (walk_not_wait_) ScoreHop(next, transit_ms, /*ok=*/true);
    WalkerStep step = Advance(w, next);
    step.transit_ms = transit_ms;
    step.tail_ms = tail_ms;
    return step;
  }

  // Scores a hop on the health board when tracking (the event clock times
  // non-Walk-Not-Wait hops itself).
  void ScoreHop(graph::NodeId peer, double transit_ms, bool ok) {
    if (health_ != nullptr) health_->Record(peer, transit_ms, ok);
  }

  bool walk_not_wait() const { return walk_not_wait_; }
  const WalkStats& stats() const { return stats_; }

 private:
  static WalkerStep Done(WalkerEnd end) {
    return WalkerStep{.action = WalkerAction::kDone, .end = end};
  }

  bool Send(graph::NodeId holder, graph::NodeId next) {
    return network_
        ->SendAlongEdge(net::MessageType::kWalker, holder, next,
                        params_.batch)
        .ok();
  }

  // The token reached `peer`: consume burn-in, select when due.
  WalkerStep Advance(WalkerState& w, graph::NodeId peer) {
    w.holder = peer;
    w.incarnation = network_->peer(peer).incarnation();
    WalkerStep step{.action = WalkerAction::kForward, .peer = peer};
    if (w.burn_left > 0) {
      --w.burn_left;
    } else if (++w.since_selection >= params_.jump) {
      w.since_selection = 0;
      --w.remaining;
      step.action = WalkerAction::kSelect;
      step.selected = true;
    }
    return step;
  }

  // Fork past a tardy (token_sent) or tripped neighbour. A tardy token
  // still goes out and a selection-due tardy peer is selected in absentia,
  // so selection probabilities are those of the unforked walk. The walk
  // takes a lazy self-loop with no counter reset: self-loops preserve
  // detailed balance, whereas a re-burn-in would warp the holder
  // distribution toward slow-free neighbourhoods.
  WalkerStep Fork(WalkerState& w, graph::NodeId holder, graph::NodeId next,
                  bool token_sent, double transit_ms, double wait_ms,
                  bool selection_due) {
    ++stats_.straggler_skips;
    if (history_ != nullptr) {
      history_->Record(net::HistoryEventKind::kStragglerSkip,
                       net::MessageType::kWalker, holder, next);
    }
    WalkerStep step{.action = WalkerAction::kFork,
                    .peer = next,
                    .transit_ms = transit_ms,
                    .wait_ms = wait_ms};
    if (token_sent) {
      const bool sent = Send(holder, next);
      ScoreHop(next, transit_ms, sent);
      if (sent && selection_due) {
        w.since_selection = 0;
        --w.remaining;
        step.selected = true;
      }
    }
    return step;
  }

  // The holder crashed or stranded: the sink re-issues the token with a
  // fresh burn-in (a token restarted at the sink is not stationary).
  WalkerStep LoseToken(WalkerState& w) {
    if (!network_->IsAlive(sink_)) return Done(WalkerEnd::kSinkDown);
    if (network_->AliveDegree(sink_) == 0) {
      return Done(WalkerEnd::kSinkStranded);
    }
    if (stats_.restarts >= max_restarts_) {
      return Done(WalkerEnd::kRestarts);
    }
    ++stats_.restarts;
    w = Launch(w.remaining);
    return WalkerStep{.action = WalkerAction::kRestart, .peer = sink_};
  }

  net::SimulatedNetwork* network_;
  const WalkParams& params_;
  const graph::NodeId sink_;
  std::vector<graph::NodeId>* scratch_;
  net::HistoryRecorder* history_;
  const size_t max_hops_;
  const size_t max_restarts_;
  bool walk_not_wait_ = false;
  net::PeerHealthBoard* health_ = nullptr;  // Null unless tracking.
  // Hop-transit EWMA behind the Walk-Not-Wait budget.
  double hop_ewma_ = 0.0;
  size_t hop_samples_ = 0;
  WalkStats stats_;
};

}  // namespace p2paqp::sampling

#endif  // P2PAQP_SAMPLING_WALKER_KERNEL_H_
