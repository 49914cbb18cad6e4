#include "net/churn.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "util/bug_injection.h"

namespace p2paqp::net {

namespace {

// Failures before the next success of a Bernoulli process whose failure
// probability has logarithm `log_stay` (log1p(-p)), capped at `cap`: an
// inverse-CDF draw with P(skip >= k) = (1 - p)^k. log1p keeps a p far below
// machine epsilon from rounding to a zero divisor, and the cap keeps the
// result in range however small p is. p = 1 draws nothing: every id is a
// candidate.
uint64_t GeometricSkip(util::Rng& rng, double log_stay, uint64_t cap) {
  if (std::isinf(log_stay)) return 0;
  const double skip = std::floor(std::log1p(-rng.UniformDouble()) / log_stay);
  return skip < static_cast<double>(cap) ? static_cast<uint64_t>(skip) : cap;
}

}  // namespace

bool ChurnModel::IsPinned(graph::NodeId id) const {
  return std::find(params_.pinned.begin(), params_.pinned.end(), id) !=
         params_.pinned.end();
}

size_t ChurnModel::Step(SimulatedNetwork& network) {
  // Armed bugs are read once per epoch, never per peer.
  const uint64_t stride =
      util::BugArmed(util::InjectedBug::kChurnSkipWithoutStride) ? 0 : 1;
  const bool rejoin_leavers =
      util::BugArmed(util::InjectedBug::kChurnRejoinSameEpoch);
  const double p_leave = std::min(params_.leave_probability, 1.0);
  const bool rejoins = params_.rejoin_probability > 0.0;
  auto snapshot_departed = [&] {
    if (rejoin_candidates_.capacity() < network.num_peers()) {
      rejoin_candidates_.reserve(network.num_peers());
    }
    rejoin_candidates_.assign(network.departed().begin(),
                              network.departed().end());
  };
  ++counters_.epochs;
  size_t changes = 0;
  // Rejoin candidates are the peers down as the epoch starts, so a peer the
  // leave pass takes down cannot also return in this epoch.
  if (rejoins && !rejoin_leavers) snapshot_departed();
  if (p_leave > 0.0) {
    // Each id is a leave candidate independently with probability p_leave:
    // consecutive candidates lie 1 + Geometric(p_leave) ids apart.
    const uint64_t n = network.num_peers();
    const double log_stay = std::log1p(-p_leave);
    for (uint64_t id = GeometricSkip(rng_, log_stay, n); id < n;
         id += stride + GeometricSkip(rng_, log_stay, n - id)) {
      ++counters_.leave_candidates;
      const auto peer = static_cast<graph::NodeId>(id);
      if (!network.IsAlive(peer) || IsPinned(peer)) continue;
      network.SetAlive(peer, false);
      ++counters_.departures;
      ++changes;
    }
  }
  if (rejoins) {
    if (rejoin_leavers) snapshot_departed();
    for (graph::NodeId peer : rejoin_candidates_) {
      if (IsPinned(peer)) continue;
      ++counters_.rejoin_draws;
      if (rng_.Bernoulli(params_.rejoin_probability)) {
        network.SetAlive(peer, true);
        ++counters_.rejoins;
        ++changes;
      }
    }
  }
  return changes;
}

void ChurnModel::RunOnEventQueue(EventQueue& events, SimulatedNetwork* network,
                                 double interval_ms,
                                 std::function<bool()> keep_going) {
  P2PAQP_CHECK(network != nullptr);
  P2PAQP_CHECK_GT(interval_ms, 0.0);
  // Epochs inside the drain then reuse reserved lists.
  network->ReserveDepartures();
  rejoin_candidates_.reserve(network->num_peers());
  // Self-rescheduling tick. The closure holds only a weak self-reference
  // (the strong references live in the queued events), so the chain is
  // freed as soon as keep_going declines to reschedule. keep_going is the
  // termination guarantee: once the query has no in-flight work left, no
  // further epoch is scheduled and the queue can drain.
  auto tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak = tick;
  *tick = [this, &events, network, interval_ms,
           keep_going = std::move(keep_going), weak]() {
    if (!keep_going()) return;
    Step(*network);
    if (auto strong = weak.lock()) {
      events.ScheduleAfter(interval_ms, [strong]() { (*strong)(); });
    }
  };
  events.ScheduleAfter(interval_ms, [tick]() { (*tick)(); });
}

}  // namespace p2paqp::net
