#include "net/health.h"

#include <cmath>

namespace p2paqp::net {

double RetryBackoffMs(const StragglerPolicy& policy, size_t attempt,
                      util::Rng& rng) {
  if (!policy.exponential_backoff) return policy.retransmit_timeout_ms;
  double wait =
      kBackoffBaseMs * std::pow(2.0, static_cast<double>(attempt) - 1.0);
  // Symmetric +/-jitter: deterministic because `rng` is the event-ordered
  // query stream, de-synchronized across queries because it is seeded.
  double u = rng.UniformDouble(0.0, 1.0);
  return wait * (1.0 + kBackoffJitter * (2.0 * u - 1.0));
}

void PeerHealthBoard::Reset(size_t num_peers) {
  latency_.assign(num_peers, 0.0f);
  failure_.assign(num_peers, 0.0f);
  samples_.assign(num_peers, 0);
  touched_.clear();
  touched_.reserve(num_peers);
  global_latency_ = 0.0;
  global_samples_ = 0;
}

void PeerHealthBoard::Record(graph::NodeId peer, double latency_ms, bool ok) {
  if (peer >= latency_.size()) return;
  const double alpha = kHealthEwmaAlpha;
  if (samples_[peer] == 0) touched_.push_back(peer);
  ++samples_[peer];
  if (ok) {
    double lat = latency_[peer];
    // Winsorize against heavy-tailed draws: one Pareto monster should nudge
    // the EWMA, not own it.
    double clamped = lat > 0.0 && latency_ms > 8.0 * lat ? 8.0 * lat
                                                         : latency_ms;
    latency_[peer] = static_cast<float>(
        lat == 0.0 ? clamped : (1.0 - alpha) * lat + alpha * clamped);
    failure_[peer] = static_cast<float>((1.0 - alpha) * failure_[peer]);
    global_latency_ = global_samples_ == 0
                          ? clamped
                          : (1.0 - alpha) * global_latency_ + alpha * clamped;
    ++global_samples_;
  } else {
    failure_[peer] =
        static_cast<float>((1.0 - alpha) * failure_[peer] + alpha);
  }
}

bool PeerHealthBoard::Tripped(graph::NodeId peer) const {
  if (peer >= samples_.size()) return false;
  if (samples_[peer] < kBreakerMinSamples) return false;
  if (failure_[peer] >= kBreakerFailureThreshold) return true;
  if (global_samples_ >= kBreakerMinSamples && global_latency_ > 0.0 &&
      latency_[peer] >= kBreakerLatencyFactor * global_latency_) {
    return true;
  }
  return false;
}

size_t PeerHealthBoard::TrippedCount() const {
  size_t tripped = 0;
  for (graph::NodeId peer : touched_) {
    if (Tripped(peer)) ++tripped;
  }
  return tripped;
}

}  // namespace p2paqp::net
