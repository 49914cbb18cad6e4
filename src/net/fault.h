// Deterministic fault injection for the simulated overlay transport.
//
// Real unstructured overlays lose messages, stall links, and lose whole
// peers mid-query — Sec. 1's peers "depart without notice". A FaultPlan
// describes one fault regime (per-message drop probability, latency-spike
// distribution, probabilistic and scheduled mid-query crashes); the
// FaultInjector turns it into per-message decisions drawn from a dedicated
// seeded RNG stream and records every injected fault in a replayable trace.
//
// An all-zero plan is a strict no-op: SimulatedNetwork never installs an
// injector for it, no extra RNG is drawn anywhere, and fault-free runs stay
// bit-identical with or without this subsystem compiled in the loop.
#ifndef P2PAQP_NET_FAULT_H_
#define P2PAQP_NET_FAULT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "net/message.h"
#include "util/rng.h"

namespace p2paqp::net {

// Crash `peer` when the injector sees the `at_message`-th message (0-based,
// counted over every message the injector filters). The crash is applied
// before that message's own delivery is decided, so a message sent by or to
// the crashing peer is lost.
struct ScheduledCrash {
  uint64_t at_message = 0;
  graph::NodeId peer = graph::kInvalidNode;
};

// Heavy-tailed per-message latency regime: a straggler is a peer that is
// alive and will answer — eventually. Distinct from loss (drops) and from
// the memoryless spike model: the tail distributions below put real mass at
// multi-second delays, which is what makes fixed timeouts into wall-clock
// cliffs and hedging/Walk-Not-Wait worth their message overhead.
enum class LatencyTail {
  kNone = 0,
  // Pareto(x_m = tail_scale_ms, shape = tail_alpha): extra delay
  // tail_scale_ms * (u^{-1/alpha} - 1), so typical messages pay ~0 and the
  // tail is polynomial (alpha <= 2 has infinite variance).
  kPareto,
  // Lognormal with median tail_scale_ms and log-space sigma tail_sigma.
  kLognormal,
};

struct FaultPlan {
  // Per-message probability that the message vanishes in transit (the
  // sender learns nothing; retransmission is the caller's job).
  double drop_probability = 0.0;
  // Per-message probability of a latency spike, and the mean of the
  // exponential extra delay added when one fires.
  double spike_probability = 0.0;
  double spike_mean_ms = 200.0;
  // Per-message probability that the crash-eligible endpoint (the receiver
  // for overlay hops, the replying peer for direct replies) departs without
  // notice, taking the in-flight message down with it.
  double crash_probability = 0.0;
  // Deterministic mid-query departures, on top of the probabilistic ones.
  std::vector<ScheduledCrash> scheduled_crashes;
  // Peers the injector never crashes (typically the query sink).
  std::vector<graph::NodeId> crash_immune;

  // --- Straggler regime ----------------------------------------------------
  // Per-message heavy-tailed extra latency, drawn fresh for every message
  // whose responding endpoint is the peer in question (so a hedged duplicate
  // gets an independent draw — min-of-two is how hedging wins).
  LatencyTail tail = LatencyTail::kNone;
  double tail_scale_ms = 10.0;
  double tail_alpha = 1.1;   // Pareto shape (smaller = heavier).
  double tail_sigma = 1.0;   // Lognormal log-space sigma.
  // Slow coalition: a seed-deterministic fraction of peers that are alive
  // but *consistently* tardy — every message they answer is scaled by
  // slow_factor (plus a tail_scale_ms floor, so a coalition exists even
  // with tail == kNone). crash_immune peers are never drafted.
  double slow_fraction = 0.0;
  double slow_factor = 20.0;

  bool straggler_enabled() const {
    return tail != LatencyTail::kNone ||
           (slow_fraction > 0.0 && slow_factor > 0.0);
  }

  // True when any fault can ever fire. A default-constructed plan injects
  // nothing and is treated as "no injector installed".
  bool enabled() const {
    return drop_probability > 0.0 || spike_probability > 0.0 ||
           crash_probability > 0.0 || !scheduled_crashes.empty() ||
           straggler_enabled();
  }
};

enum class FaultKind {
  kDrop = 0,
  kLatencySpike,
  kCrash,
  kScheduledCrash,
};

const char* FaultKindToString(FaultKind kind);

// One injected fault, as recorded in the trace.
struct FaultEvent {
  uint64_t message_index = 0;  // Which message (0-based) the fault hit.
  FaultKind kind = FaultKind::kDrop;
  MessageType message_type = MessageType::kPing;
  graph::NodeId from = graph::kInvalidNode;
  graph::NodeId to = graph::kInvalidNode;
  // The departed peer for (scheduled) crashes; kInvalidNode otherwise.
  graph::NodeId crashed = graph::kInvalidNode;
  // Extra delay for latency spikes; 0 otherwise.
  double spike_ms = 0.0;
};

bool operator==(const FaultEvent& a, const FaultEvent& b);
inline bool operator!=(const FaultEvent& a, const FaultEvent& b) {
  return !(a == b);
}

// Outcome of filtering one message through the injector. The injector only
// decides; applying `crashed` to peer liveness is the network's job.
struct FaultDecision {
  bool deliver = true;
  double extra_latency_ms = 0.0;
  // Peers that departed while this message was in flight (scheduled crashes
  // due at this index, plus at most one probabilistic crash of the eligible
  // endpoint), in trace order. Points into the injector, which reserved
  // room for every crash one message can bring at construction, so no
  // decision allocates; valid until its next OnMessage.
  std::span<const graph::NodeId> crashed;
};

class FaultInjector {
 public:
  // `num_peers` bounds the slow-coalition draft; 0 (the default, kept for
  // direct-construction tests) means no coalition regardless of the plan.
  FaultInjector(FaultPlan plan, uint64_t seed, size_t num_peers = 0);

  const FaultPlan& plan() const { return plan_; }

  // Decides the fate of one message. `crash_candidate` is the peer that
  // departs if a probabilistic crash fires (graph::kInvalidNode for none).
  // Decisions consume the injector's private RNG in a fixed order
  // (scheduled crashes, crash draw, drop draw, spike draw), so the same
  // plan + seed + message sequence replays to an identical trace.
  FaultDecision OnMessage(MessageType type, graph::NodeId from,
                          graph::NodeId to, graph::NodeId crash_candidate);

  uint64_t messages_seen() const { return messages_seen_; }
  uint64_t dropped() const { return dropped_; }
  uint64_t crashes() const { return crashes_; }
  uint64_t spikes() const { return spikes_; }
  uint64_t tail_messages() const { return tail_messages_; }
  double tail_delay_ms() const { return tail_delay_ms_; }
  size_t slow_peers() const { return slow_peers_; }

  // True when `peer` was drafted into the slow coalition at construction.
  bool IsSlow(graph::NodeId peer) const;

  // One straggler-delay draw for a message answered by `responder`, from the
  // *caller's* RNG — for engine-side transit modelling (Walk-Not-Wait) where
  // the draw must live on the event-deterministic query stream, not the
  // injector's transport stream. Consumes RNG only when plan().tail != kNone
  // (the coalition scaling is deterministic), so legacy streams are
  // untouched under legacy plans.
  double DrawTailDelay(graph::NodeId responder, util::Rng& rng);

  // Deterministic expectation of DrawTailDelay for `responder` — lets the
  // synchronous engine rank predictably-tardy peers without spending draws.
  double ExpectedTailDelayMs(graph::NodeId responder) const;

  // The first kTraceCapacity injected faults, in injection order. Later
  // faults still count above but are not traced, so a long lossy run
  // neither grows the trace without bound nor allocates in a drain: the
  // constructor reserves the whole capacity.
  static constexpr size_t kTraceCapacity = 4096;
  const std::vector<FaultEvent>& trace() const { return trace_; }

 private:
  bool IsImmune(graph::NodeId peer) const;
  void Trace(const FaultEvent& event);

  FaultPlan plan_;
  util::Rng rng_;
  uint64_t messages_seen_ = 0;
  size_t next_scheduled_ = 0;
  uint64_t dropped_ = 0;
  uint64_t crashes_ = 0;
  uint64_t spikes_ = 0;
  uint64_t tail_messages_ = 0;
  double tail_delay_ms_ = 0.0;
  size_t slow_peers_ = 0;
  std::vector<uint8_t> slow_;
  std::vector<FaultEvent> trace_;
  // The current decision's crashed peers (FaultDecision::crashed).
  std::vector<graph::NodeId> crashed_;
};

}  // namespace p2paqp::net

#endif  // P2PAQP_NET_FAULT_H_
