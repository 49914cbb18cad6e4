// In-process simulation of the unstructured P2P overlay.
//
// Owns the topology graph plus one Peer per node, routes typed messages with
// full cost accounting (messages, bytes, hops, simulated latency) and models
// churn through per-peer liveness. All higher layers (random walks, flooding,
// the two-phase engine) speak to the overlay exclusively through this class,
// so every cost the paper discusses in Sec. 3.2 is captured in one place.
#ifndef P2PAQP_NET_NETWORK_H_
#define P2PAQP_NET_NETWORK_H_

#include <cstddef>
#include <iterator>
#include <optional>
#include <vector>

#include "data/local_database.h"
#include "graph/graph.h"
#include "net/adversary.h"
#include "net/cost.h"
#include "net/fault.h"
#include "net/history.h"
#include "net/message.h"
#include "net/peer.h"
#include "net/peer_store.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"

namespace p2paqp::net {

struct NetworkParams {
  // Per-overlay-hop latency: base plus exponential jitter (mean `jitter`).
  double hop_latency_ms = 40.0;
  double hop_latency_jitter_ms = 20.0;
  // Local scan speed used for the CPU-cost component of latency.
  double tuples_scanned_per_ms = 5000.0;
  // Draw peer identities block-parallel from index-derived RNG streams
  // (bit-identical for any P2PAQP_THREADS, but a DIFFERENT stream than the
  // serial default — existing seeded worlds depend on the serial draw
  // order, so only new scale-tier worlds opt in).
  bool parallel_peer_init = false;
};

// The peers a walker token at one holder may be forwarded to, in ascending
// id order: the holder's alive neighbours, narrowed to its colluders when a
// hijacking adversary holds the token. Built by
// SimulatedNetwork::ForwardingSet, in one of three forms:
//   * the holder's CSR list as is, while none of its neighbours is down and
//     no adversary plan is installed — no liveness probe at all, and `[k]`
//     decodes only up to k (graph::NeighborRange);
//   * the same CSR list behind a liveness filter, while some neighbour is
//     down and no adversary plan is installed: the size is the holder's
//     alive degree (an O(1) read), `[k]` decodes only up to the k-th live
//     neighbour, iteration skips the dead, and nothing is written;
//   * otherwise (an adversary plan) a list materialised into the caller's
//     scratch vector, valid until that vector is next reused.
class ForwardingView {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = graph::NodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = const graph::NodeId*;
    using reference = graph::NodeId;

    iterator() = default;

    graph::NodeId operator*() const {
      return listed_ != nullptr ? *listed_ : *csr_;
    }
    iterator& operator++() {
      if (listed_ != nullptr) {
        ++listed_;
      } else {
        ++csr_;
        if (peers_ != nullptr) SkipDead();
      }
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++*this;
      return copy;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.listed_ == b.listed_ && a.csr_ == b.csr_;
    }

   private:
    friend class ForwardingView;
    iterator(graph::NeighborRange::iterator csr, const graph::NodeId* listed,
             const PeerStore* peers)
        : csr_(csr), listed_(listed), peers_(peers) {
      if (peers_ != nullptr) SkipDead();
    }
    // Advances the CSR cursor to the next live neighbour, or to the end.
    void SkipDead() {
      while (csr_ != graph::NeighborRange::iterator() &&
             !(*peers_)[*csr_].alive()) {
        ++csr_;
      }
    }

    graph::NeighborRange::iterator csr_;
    const graph::NodeId* listed_ = nullptr;
    const PeerStore* peers_ = nullptr;  // Set in the filtered form only.
  };

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  graph::NodeId operator[](size_t k) const {
    P2PAQP_DCHECK(k < size_) << k;
    if (listed_ != nullptr) return (*listed_)[k];
    return peers_ == nullptr ? csr_[k] : LiveAt(k);
  }

  iterator begin() const {
    return listed_ != nullptr ? iterator({}, listed_->data(), nullptr)
                              : iterator(csr_.begin(), nullptr, peers_);
  }
  iterator end() const {
    return listed_ != nullptr
               ? iterator({}, listed_->data() + listed_->size(), nullptr)
               : iterator(csr_.end(), nullptr, nullptr);
  }

 private:
  friend class SimulatedNetwork;
  // CSR form; `peers` non-null filters out the neighbours that are down,
  // of which `size` counts the rest.
  ForwardingView(graph::NeighborRange csr, size_t size,
                 const PeerStore* peers)
      : csr_(csr), size_(size), peers_(peers) {}
  explicit ForwardingView(const std::vector<graph::NodeId>* listed)
      : size_(listed->size()), listed_(listed) {}

  // The k-th live neighbour: one decode pass that stops there.
  graph::NodeId LiveAt(size_t k) const {
    for (graph::NodeId v : csr_) {
      if ((*peers_)[v].alive() && k-- == 0) return v;
    }
    P2PAQP_CHECK(false) << "forwarding view outran its live neighbours";
    return graph::kInvalidNode;
  }

  graph::NeighborRange csr_;
  size_t size_ = 0;
  const PeerStore* peers_ = nullptr;
  const std::vector<graph::NodeId>* listed_ = nullptr;
};

class SimulatedNetwork {
 public:
  // `databases` is optional; pass an empty vector for a data-less overlay
  // (databases can be installed later via InstallDatabases).
  static util::Result<SimulatedNetwork> Make(
      graph::Graph graph, std::vector<data::LocalDatabase> databases,
      const NetworkParams& params, uint64_t seed);

  SimulatedNetwork(SimulatedNetwork&&) = default;
  SimulatedNetwork& operator=(SimulatedNetwork&&) = default;

  // Teardown assertion (debug builds): every charged message must have
  // resolved to delivered or dropped — drift here means a fault/retransmit
  // path charged a message without recording its fate. Release builds skip
  // the check; the protocol harness calls VerifyCostConservation() on every
  // generated run regardless of build type.
  ~SimulatedNetwork() {
#ifndef NDEBUG
    if (!peers_.empty()) {
      P2PAQP_DCHECK(cost_.snapshot().MessagesConserve())
          << "message conservation violated at teardown: "
          << cost_.snapshot().ToString();
    }
#endif
  }

  // Aborts unless sends == delivers + drops in the cost ledger.
  void VerifyCostConservation() const {
    P2PAQP_CHECK(cost_.snapshot().MessagesConserve())
        << cost_.snapshot().ToString();
  }

  // Deep copy for parallel replicates: same overlay, peers (identities,
  // liveness, databases) and latency parameters, but a fresh cost tracker
  // and an RNG re-seeded from `seed`, so clones evolve independently of the
  // original and of each other. An installed fault plan is carried over,
  // re-seeded from a value derived from `seed` (its counters and trace
  // start empty). The original is never observable through a clone.
  SimulatedNetwork Clone(uint64_t seed) const;

  const graph::Graph& graph() const { return graph_; }
  size_t num_peers() const { return peers_.size(); }
  size_t num_alive() const { return peers_.size() - departed_.size(); }

  // The peers currently down, each once, in no particular order (a departure
  // appends; a rejoin moves the last entry into the freed place). Kept by
  // SetAlive, so churn, crash faults and loaded worlds all show here, and
  // a churn epoch can visit the departed without scanning every peer.
  const std::vector<graph::NodeId>& departed() const { return departed_; }

  const Peer& peer(graph::NodeId id) const;

  bool IsAlive(graph::NodeId id) const { return peers_[id].alive(); }
  // Marks a peer as departed/re-joined (Gnutella-style churn: connections of
  // a dead peer are simply unusable until it returns). Updates departed()
  // and num_alive() in O(1), and each neighbour's dead-neighbour count in
  // O(degree). The only way liveness changes: ForwardingSet and AliveDegree
  // trust an empty departed() to mean "no peer is down" and the counts to
  // be exact (they are, because the graph is symmetric, simple and
  // immutable). The first departure reserves the departed list for every
  // peer, so no later one allocates; a world where every peer stays up
  // never pays it.
  void SetAlive(graph::NodeId id, bool alive);

  // Neighbors of `id` that are currently alive.
  std::vector<graph::NodeId> AliveNeighbors(graph::NodeId id) const;

  // Scratch-reusing AliveNeighbors: decodes into `out` (cleared first), so
  // per-hop callers reuse one warmed buffer instead of allocating a fresh
  // vector every hop.
  void AliveNeighborsInto(graph::NodeId id,
                          std::vector<graph::NodeId>* out) const;

  // Degree counting only alive neighbors — what a live walker observes.
  // O(1): the CSR degree header, less the peer's dead-neighbour count once
  // any peer is down.
  uint32_t AliveDegree(graph::NodeId id) const {
    const uint32_t degree = graph_.degree(id);
    return departed_.empty() ? degree : degree - peers_[id].dead_neighbors_;
  }

  // Where a walker token at `holder` may go next (see ForwardingView): the
  // CSR list, behind a liveness filter while any of its neighbours is down,
  // when no adversary plan is installed; otherwise AliveNeighborsInto
  // (`scratch`) narrowed by AdversaryInjector::RestrictForwarding. Both
  // walkers draw their next hop as one UniformIndex(size()) over this view.
  ForwardingView ForwardingSet(graph::NodeId holder,
                               std::vector<graph::NodeId>* scratch);

  // Replaces all local databases (index = NodeId).
  util::Status InstallDatabases(std::vector<data::LocalDatabase> databases);

  // --- Message transport -------------------------------------------------
  // One overlay hop between adjacent live peers (walker forwarding).
  // Returns InvalidArgument for non-edges, Unavailable for dead endpoints.
  // `batch` > 1 means the token multiplexes that many per-query payloads
  // behind one shared header: still one message / one hop on the wire, with
  // bytes accounted through the batched-payload assert in net/cost.cc.
  util::Status SendAlongEdge(MessageType type, graph::NodeId from,
                             graph::NodeId to, uint32_t batch = 1);

  // Direct IP transport (no overlay routing): visited peers know the sink's
  // address from the walker and reply straight back (Sec. 3.2).
  // `extra_payload_bytes` rides on top of the type's nominal size; `batch`
  // multiplexes per-query reply bodies behind one header as above. A sent
  // message writes the transit it charged (half-hop draw plus any fault
  // spike), delivered or not, to `*transit_ms` if set.
  util::Status SendDirect(MessageType type, graph::NodeId from,
                          graph::NodeId to, uint32_t extra_payload_bytes = 0,
                          uint32_t batch = 1, double* transit_ms = nullptr);

  // --- Fault injection ----------------------------------------------------
  // Installs a fault regime for subsequent messages, replacing any previous
  // one. A disabled (all-zero) plan uninstalls the injector entirely, so the
  // transport behaves exactly as fault-free — same RNG stream, same costs.
  // Faults draw from a dedicated injector RNG seeded here, never from the
  // network's own stream.
  void InstallFaultPlan(const FaultPlan& plan, uint64_t seed);

  // Installed injector (trace/counter inspection), or nullptr.
  const FaultInjector* fault_injector() const {
    return fault_.has_value() ? &*fault_ : nullptr;
  }

  // --- Byzantine adversaries ----------------------------------------------
  // Installs (or, for a disabled plan, uninstalls) the adversarial peer
  // regime. Mirrors InstallFaultPlan: a disabled plan leaves no injector
  // behind, so honest runs stay bit-identical. The adversarial peer set is
  // drawn here from a dedicated RNG seeded by `seed`; the sink is typically
  // listed in plan.immune by the caller.
  void InstallAdversaryPlan(const AdversaryPlan& plan, uint64_t seed);

  // Installed adversary, or nullptr. Mutable: the injector's tampering hooks
  // advance its private RNG and counters.
  AdversaryInjector* adversary() {
    return adversary_.has_value() ? &*adversary_ : nullptr;
  }
  const AdversaryInjector* adversary() const {
    return adversary_.has_value() ? &*adversary_ : nullptr;
  }

  // Accounts a local scan of `tuples` rows at `peer` (latency scaled by the
  // peer's CPU speed) and marks the peer visited. Returns the scan latency.
  double RecordLocalExecution(graph::NodeId peer, uint64_t tuples_scanned,
                              uint64_t tuples_sampled);

  // --- Latency model (exposed for event-driven execution) ----------------
  // One overlay-hop latency draw (base + jitter). Stateful: advances the
  // network's RNG.
  double DrawHopLatency() { return SampleHopLatency(); }
  // Mean per-hop latency under the configured model (base + jitter mean):
  // the yardstick for adaptive straggler budgets.
  double NominalHopLatencyMs() const {
    return params_.hop_latency_ms + params_.hop_latency_jitter_ms;
  }
  // One straggler-tail draw for a message answered by `responder`, from the
  // caller's RNG (see FaultInjector::DrawTailDelay). 0 and no RNG consumed
  // when no injector or no tail regime is installed.
  double DrawPeerTailDelay(graph::NodeId responder, util::Rng& rng) {
    return fault_.has_value() ? fault_->DrawTailDelay(responder, rng) : 0.0;
  }
  // Deterministic expectation of the above — prediction without draws.
  double ExpectedPeerTailDelayMs(graph::NodeId responder) const {
    return fault_.has_value() ? fault_->ExpectedTailDelayMs(responder) : 0.0;
  }
  // Deterministic local-scan latency for `tuples` rows at `peer` (CPU-speed
  // scaled), matching what RecordLocalExecution charges.
  double LocalScanLatency(graph::NodeId peer, uint64_t tuples) const;

  CostTracker& cost() { return cost_; }
  const CostSnapshot& cost_snapshot() const { return cost_.snapshot(); }
  void ResetCost() { cost_.Reset(); }

  // --- Protocol history (black-box checking) ------------------------------
  // Attaches an external event log; nullptr detaches. Not owned; must
  // outlive the network while attached. The transport appends
  // send/deliver/drop records, SetAlive appends liveness transitions, and
  // higher layers (engines, scheduler) append timeout/retransmit/dedup/
  // expire records through history(). Clones never inherit the recorder (a
  // recorder observes exactly one serial run).
  void set_history(HistoryRecorder* history) { history_ = history; }
  HistoryRecorder* history() { return history_; }

  // --- Ground truth (oracle access for evaluation only) -------------------
  // Block-parallel over the peer store with a serial block-order reduction,
  // so million-peer oracles scale with P2PAQP_THREADS yet stay
  // bit-identical for any thread count.
  int64_t TotalTuples() const;
  int64_t ExactCount(data::Value lo, data::Value hi) const;
  int64_t ExactSum(data::Value lo, data::Value hi) const;
  // Exact median of all tuple values across alive peers.
  double ExactMedian() const;

  // Heap footprint of the world: compressed adjacency + peer state
  // (identities, liveness, local databases). Divided by num_peers() this is
  // the gated bytes_per_peer metric (docs/PERFORMANCE.md).
  size_t MemoryBytes() const {
    return graph_.MemoryBytes() + peers_.MemoryBytes();
  }

  util::Rng& rng() { return rng_; }

 private:
  SimulatedNetwork(graph::Graph graph, PeerStore peers,
                   const NetworkParams& params, util::Rng rng)
      : graph_(std::move(graph)),
        peers_(std::move(peers)),
        params_(params),
        rng_(std::move(rng)) {}

  double SampleHopLatency();

  // Filters one message through the injector and applies crash side effects
  // to peer liveness. A no-op returning "deliver" when no injector is
  // installed.
  FaultDecision ApplyFaults(MessageType type, graph::NodeId from,
                            graph::NodeId to, graph::NodeId crash_candidate);

  // The one transmit body behind SendAlongEdge (`overlay_hop`: the edge
  // must exist, a walker hop is counted, a full hop latency is drawn) and
  // SendDirect (half a hop): validate the endpoints, charge the (possibly
  // batched) message, record kSend, draw the latency, run the fault
  // injector, charge the transit (also written to `*transit_ms` if set) and
  // resolve the outcome in the ledger and the history.
  util::Status Transmit(MessageType type, graph::NodeId from,
                        graph::NodeId to, uint32_t extra_payload_bytes,
                        uint32_t batch, bool overlay_hop, double* transit_ms);

  graph::Graph graph_;
  PeerStore peers_;
  NetworkParams params_;
  std::vector<graph::NodeId> departed_;
  CostTracker cost_;
  util::Rng rng_;
  std::optional<FaultInjector> fault_;
  std::optional<AdversaryInjector> adversary_;
  HistoryRecorder* history_ = nullptr;
};

}  // namespace p2paqp::net

#endif  // P2PAQP_NET_NETWORK_H_
