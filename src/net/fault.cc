#include "net/fault.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace p2paqp::net {

const char* FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kLatencySpike:
      return "latency_spike";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kScheduledCrash:
      return "scheduled_crash";
  }
  return "unknown";
}

bool operator==(const FaultEvent& a, const FaultEvent& b) {
  return a.message_index == b.message_index && a.kind == b.kind &&
         a.message_type == b.message_type && a.from == b.from && a.to == b.to &&
         a.crashed == b.crashed && a.spike_ms == b.spike_ms;
}

FaultInjector::FaultInjector(FaultPlan plan, uint64_t seed, size_t num_peers)
    : plan_(std::move(plan)), rng_(seed) {
  // Scheduled crashes fire in message order regardless of how the caller
  // listed them.
  std::stable_sort(plan_.scheduled_crashes.begin(),
                   plan_.scheduled_crashes.end(),
                   [](const ScheduledCrash& a, const ScheduledCrash& b) {
                     return a.at_message < b.at_message;
                   });
  // One message can bring every scheduled crash plus one drawn crash.
  crashed_.reserve(plan_.scheduled_crashes.size() + 1);
  // Reserved whole here, outside any drain, so no fault allocates.
  trace_.reserve(kTraceCapacity);
  // The slow coalition is drafted once at construction from a salted
  // sub-stream, so membership depends only on (plan, seed, num_peers) — not
  // on message traffic — and Clone()d networks redraw deterministically.
  if (plan_.slow_fraction > 0.0 && num_peers > 0) {
    util::Rng coalition_rng(util::MixSeed(seed ^ 0x510Cull));
    slow_.assign(num_peers, 0);
    for (size_t peer = 0; peer < num_peers; ++peer) {
      if (IsImmune(static_cast<graph::NodeId>(peer))) continue;
      if (coalition_rng.Bernoulli(plan_.slow_fraction)) {
        slow_[peer] = 1;
        ++slow_peers_;
      }
    }
  }
}

bool FaultInjector::IsSlow(graph::NodeId peer) const {
  return peer < slow_.size() && slow_[peer] != 0;
}

double FaultInjector::DrawTailDelay(graph::NodeId responder, util::Rng& rng) {
  double extra = 0.0;
  switch (plan_.tail) {
    case LatencyTail::kNone:
      break;
    case LatencyTail::kPareto: {
      // Inverse-CDF Pareto(x_m = scale, alpha), shifted so the minimum extra
      // delay is 0: the typical message pays nothing, the tail is polynomial.
      double u = rng.UniformDouble(1e-12, 1.0);
      extra = plan_.tail_scale_ms *
              (std::pow(u, -1.0 / plan_.tail_alpha) - 1.0);
      break;
    }
    case LatencyTail::kLognormal: {
      // Box-Muller normal from two uniforms (util::Rng has no normal draw).
      double u1 = rng.UniformDouble(1e-12, 1.0);
      double u2 = rng.UniformDouble(0.0, 1.0);
      double normal = std::sqrt(-2.0 * std::log(u1)) *
                      std::cos(2.0 * 3.14159265358979323846 * u2);
      extra = plan_.tail_scale_ms * std::exp(plan_.tail_sigma * normal);
      break;
    }
  }
  if (IsSlow(responder)) {
    // Coalition members are consistently tardy: every answer is scaled, with
    // a tail_scale_ms floor so the coalition bites even with tail == kNone.
    extra = plan_.slow_factor * (plan_.tail_scale_ms + extra);
  }
  return extra;
}

double FaultInjector::ExpectedTailDelayMs(graph::NodeId responder) const {
  double mean = 0.0;
  switch (plan_.tail) {
    case LatencyTail::kNone:
      break;
    case LatencyTail::kPareto:
      // E[scale * (u^{-1/a} - 1)] = scale / (alpha - 1) for alpha > 1. For
      // alpha <= 1 the mean diverges; report a large-but-finite proxy so
      // callers predicting tardiness still rank peers sensibly.
      mean = plan_.tail_alpha > 1.0
                 ? plan_.tail_scale_ms / (plan_.tail_alpha - 1.0)
                 : plan_.tail_scale_ms * 100.0;
      break;
    case LatencyTail::kLognormal:
      mean = plan_.tail_scale_ms *
             std::exp(0.5 * plan_.tail_sigma * plan_.tail_sigma);
      break;
  }
  if (IsSlow(responder)) {
    mean = plan_.slow_factor * (plan_.tail_scale_ms + mean);
  }
  return mean;
}

bool FaultInjector::IsImmune(graph::NodeId peer) const {
  return std::find(plan_.crash_immune.begin(), plan_.crash_immune.end(),
                   peer) != plan_.crash_immune.end();
}

void FaultInjector::Trace(const FaultEvent& event) {
  if (trace_.size() == kTraceCapacity) return;
  trace_.push_back(event);
}

FaultDecision FaultInjector::OnMessage(MessageType type, graph::NodeId from,
                                       graph::NodeId to,
                                       graph::NodeId crash_candidate) {
  FaultDecision decision;
  crashed_.clear();
  const uint64_t index = messages_seen_++;
  FaultEvent base;
  base.message_index = index;
  base.message_type = type;
  base.from = from;
  base.to = to;

  // Scheduled crashes first (no RNG): everything due at this index fires.
  while (next_scheduled_ < plan_.scheduled_crashes.size() &&
         plan_.scheduled_crashes[next_scheduled_].at_message <= index) {
    const ScheduledCrash& crash = plan_.scheduled_crashes[next_scheduled_++];
    if (crash.peer == graph::kInvalidNode || IsImmune(crash.peer)) continue;
    crashed_.push_back(crash.peer);
    FaultEvent event = base;
    event.kind = FaultKind::kScheduledCrash;
    event.crashed = crash.peer;
    Trace(event);
    ++crashes_;
  }
  // Probabilistic crash of the eligible endpoint: the peer is gone and its
  // in-flight message with it.
  if (plan_.crash_probability > 0.0 &&
      crash_candidate != graph::kInvalidNode && !IsImmune(crash_candidate) &&
      rng_.Bernoulli(plan_.crash_probability)) {
    crashed_.push_back(crash_candidate);
    decision.deliver = false;
    FaultEvent event = base;
    event.kind = FaultKind::kCrash;
    event.crashed = crash_candidate;
    Trace(event);
    ++crashes_;
  }
  if (decision.deliver && plan_.drop_probability > 0.0 &&
      rng_.Bernoulli(plan_.drop_probability)) {
    decision.deliver = false;
    FaultEvent event = base;
    event.kind = FaultKind::kDrop;
    Trace(event);
    ++dropped_;
  }
  if (decision.deliver && plan_.spike_probability > 0.0 &&
      rng_.Bernoulli(plan_.spike_probability)) {
    // Exponential spike with the configured mean.
    double u = rng_.UniformDouble(1e-12, 1.0);
    double spike = -plan_.spike_mean_ms * std::log(u);
    decision.extra_latency_ms = spike;
    FaultEvent event = base;
    event.kind = FaultKind::kLatencySpike;
    event.spike_ms = spike;
    Trace(event);
    ++spikes_;
  }
  // Heavy-tailed straggler delay, drawn last so enabling a tail regime does
  // not perturb the crash/drop/spike sub-streams of an existing plan. The
  // delay attaches to the responding endpoint (the crash candidate: the
  // replier for replies, the receiver for requests); counters only, no trace
  // entries — at per-message volume the trace would dwarf the run.
  if (decision.deliver && plan_.straggler_enabled()) {
    graph::NodeId responder =
        crash_candidate != graph::kInvalidNode ? crash_candidate : to;
    double tail = DrawTailDelay(responder, rng_);
    if (tail > 0.0) {
      decision.extra_latency_ms += tail;
      tail_delay_ms_ += tail;
      ++tail_messages_;
    }
  }
  decision.crashed = crashed_;
  return decision;
}

}  // namespace p2paqp::net
