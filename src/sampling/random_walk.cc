#include "sampling/random_walk.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace p2paqp::sampling {

namespace {

size_t SaturatingAdd(size_t a, size_t b) {
  return a > SIZE_MAX - b ? SIZE_MAX : a + b;
}

size_t SaturatingMul(size_t a, size_t b) {
  if (a == 0 || b == 0) return 0;
  return a > SIZE_MAX / b ? SIZE_MAX : a * b;
}

}  // namespace

size_t AutoMaxHops(const WalkParams& params, size_t num_selections) {
  size_t nominal = SaturatingAdd(
      params.burn_in, SaturatingMul(num_selections, params.jump));
  if (params.variant != WalkVariant::kSimple) {
    // Lazy self-loops and Metropolis-Hastings rejections burn hops without
    // moving (~half the steps in expectation): double the room so those
    // variants are not starved relative to the simple walk.
    nominal = SaturatingMul(nominal, 2);
  }
  return SaturatingAdd(SaturatingMul(nominal, 100), 1000);
}

size_t AutoMaxRestarts(size_t num_selections) {
  return SaturatingAdd(SaturatingMul(num_selections, 2), 16);
}

const char* WalkVariantToString(WalkVariant variant) {
  switch (variant) {
    case WalkVariant::kSimple:
      return "simple";
    case WalkVariant::kLazy:
      return "lazy";
    case WalkVariant::kMetropolisHastings:
      return "metropolis_hastings";
  }
  return "unknown";
}

RandomWalk::RandomWalk(net::SimulatedNetwork* network,
                       const WalkParams& params)
    : network_(network), params_(params) {
  P2PAQP_CHECK(network_ != nullptr);
  P2PAQP_CHECK_GE(params_.jump, 1u) << "jump must be >= 1";
  P2PAQP_CHECK_GE(params_.batch, 1u) << "batch must be >= 1";
}

double RandomWalk::StationaryWeight(graph::NodeId node) const {
  switch (params_.variant) {
    case WalkVariant::kSimple:
    case WalkVariant::kLazy:
      return static_cast<double>(network_->AliveDegree(node));
    case WalkVariant::kMetropolisHastings:
      return 1.0;
  }
  return 0.0;
}

util::Result<graph::NodeId> RandomWalk::Step(graph::NodeId current,
                                             util::Rng& rng, bool allow_skip,
                                             bool* skipped) {
  if (params_.variant == WalkVariant::kLazy && rng.Bernoulli(0.5)) {
    return current;  // Lazy self-loop: no traffic.
  }
  // One uniform draw over the forwarding set, hijacked or not, so
  // adversary-free runs consume the same stream.
  const net::ForwardingView neighbors =
      network_->ForwardingSet(current, &neighbor_scratch_);
  if (neighbors.empty()) {
    return util::Status::Unavailable("walker stranded: no live neighbors");
  }
  size_t choice = rng.UniformIndex(neighbors.size());
  graph::NodeId next = neighbors[choice];
  if (allow_skip && params_.straggler != nullptr &&
      params_.variant == WalkVariant::kSimple && neighbors.size() > 1) {
    const net::StragglerPolicy& sp = *params_.straggler;
    const bool tripped = sp.health_tracking && params_.health != nullptr &&
                         params_.health->Tripped(next);
    double wait_ms = 0.0;
    bool tardy = false;
    if (!tripped && sp.walk_not_wait) {
      const double budget =
          net::kHopBudgetFactor * network_->NominalHopLatencyMs();
      if (network_->DrawPeerTailDelay(next, rng) > budget) {
        // The holder only learns this transit is tardy by waiting the
        // budget out; breaker skips (known-bad peers) pay nothing.
        tardy = true;
        wait_ms = budget;
      }
    }
    if (tripped || tardy) {
      if (wait_ms > 0.0) network_->cost().RecordLatency(wait_ms);
      if (net::HistoryRecorder* history = network_->history()) {
        history->Record(net::HistoryEventKind::kStragglerSkip,
                        net::MessageType::kWalker, current, next);
      }
      if (skipped != nullptr) *skipped = true;
      // Fork past the straggler as a lazy self-loop: the holder keeps the
      // token and redraws on its next step. Self-loops preserve detailed
      // balance for the degree-stationary distribution, so forking never
      // conditions the trajectory on having avoided slow peers.
      return current;
    }
  }
  if (params_.variant == WalkVariant::kMetropolisHastings) {
    // Accept with min(1, deg(u)/deg(v)); rejection = stay (no traffic).
    double du = network_->AliveDegree(current);
    double dv = network_->AliveDegree(next);
    if (dv > du && !rng.Bernoulli(du / dv)) return current;
  }
  util::Status sent = network_->SendAlongEdge(net::MessageType::kWalker,
                                              current, next, params_.batch);
  if (!sent.ok()) return sent;
  return next;
}

util::Result<WalkOutcome> RandomWalk::CollectResilient(graph::NodeId sink,
                                                       size_t num_selections,
                                                       util::Rng& rng) {
  if (sink >= network_->num_peers() || !network_->IsAlive(sink)) {
    return util::Status::FailedPrecondition("sink peer is not live");
  }
  const size_t max_hops = params_.max_hops != 0
                              ? params_.max_hops
                              : AutoMaxHops(params_, num_selections);
  const size_t max_restarts = params_.max_restarts != 0
                                  ? params_.max_restarts
                                  : AutoMaxRestarts(num_selections);

  WalkOutcome outcome;
  outcome.visits.reserve(num_selections);
  graph::NodeId current = sink;
  size_t since_selection = 0;
  bool warm = params_.burn_in == 0;
  size_t burn_left = params_.burn_in;

  auto truncate = [&outcome](util::Status why) {
    outcome.truncated = true;
    outcome.truncation = std::move(why);
  };

  while (outcome.visits.size() < num_selections) {
    if (outcome.stats.hops >= max_hops) {
      truncate(util::Status::OutOfRange("walk exceeded hop budget"));
      break;
    }
    // Selection-due hops never fork: a tardy peer's probability of being
    // *selected* must stay exactly proportional to its degree.
    const bool selection_due =
        warm && since_selection + 1 >= params_.jump;
    bool skipped = false;
    auto next = Step(current, rng, /*allow_skip=*/!selection_due, &skipped);
    if (!next.ok()) {
      if (!network_->IsAlive(sink)) {
        truncate(util::Status::Unavailable("sink departed mid-walk"));
        break;
      }
      if (network_->IsAlive(current) && network_->AliveDegree(current) > 0) {
        // The holder still has the token and a live route: the hop was lost
        // in transit (dropped message or the chosen neighbor crashed on
        // receipt). Link-level retransmit: try again from the same peer.
        ++outcome.stats.hops;
        continue;
      }
      // The token itself is gone: its holder crashed or has no live
      // neighbor left. Only the sink can recover it — after a timeout it
      // re-issues the walker with a *fresh burn-in*, because a token
      // restarted at the sink is no longer stationary-distributed.
      if (network_->AliveDegree(sink) == 0) {
        truncate(util::Status::Unavailable(
            "walker stranded: sink has no live neighbors"));
        break;
      }
      if (outcome.stats.restarts >= max_restarts) {
        truncate(
            util::Status::Unavailable("walker restart budget exhausted"));
        break;
      }
      ++outcome.stats.restarts;
      current = sink;
      since_selection = 0;
      warm = params_.burn_in == 0;
      burn_left = params_.burn_in;
      continue;
    }
    current = next.value();
    ++outcome.stats.hops;
    if (skipped) {
      // Fork past a straggler: a lazy self-loop, so no counter resets — the
      // chain stays stationary-distributed (see Step).
      ++outcome.stats.straggler_skips;
      continue;
    }
    if (!warm) {
      if (--burn_left == 0) warm = true;
      continue;
    }
    if (++since_selection >= params_.jump) {
      since_selection = 0;
      outcome.visits.push_back(
          PeerVisit{current, network_->AliveDegree(current)});
    }
  }
  return outcome;
}

util::Result<std::vector<PeerVisit>> RandomWalk::Collect(
    graph::NodeId sink, size_t num_selections, util::Rng& rng) {
  auto outcome = CollectResilient(sink, num_selections, rng);
  if (!outcome.ok()) return outcome.status();
  if (outcome->truncated) return outcome->truncation;
  return std::move(outcome->visits);
}

}  // namespace p2paqp::sampling
