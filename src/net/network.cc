#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/parallel.h"

namespace p2paqp::net {

namespace {

// Block-parallel regions over the PeerStore use the static partition: lane l
// always owns the same contiguous block range (and, with P2PAQP_PIN_THREADS,
// the same core), so the blocks a lane initializes are the blocks it later
// scans. Results are bit-identical to the dynamic partition — only the
// index -> thread placement changes.
constexpr util::ParallelOptions kStaticBlocks{
    .threads = 0, .partition = util::Partition::kStatic};

// Transport refusals and losses, as util::Status::Static messages: a lossy
// or churning drain refuses and loses messages all the time, and each
// failed send must stay allocation-free like a delivered one.
const std::string kOutOfRange = "endpoint out of range";
const std::string kNoConnection = "no overlay connection";
const std::string kEndpointDeparted = "endpoint departed";
const std::string kCrashedMidQuery = "peer crashed mid-query";
const std::string kDroppedInTransit = "message dropped in transit";

util::Status Unavailable(const std::string& message) {
  return util::Status::Static(util::StatusCode::kUnavailable, message);
}

}  // namespace

util::Result<SimulatedNetwork> SimulatedNetwork::Make(
    graph::Graph graph, std::vector<data::LocalDatabase> databases,
    const NetworkParams& params, uint64_t seed) {
  if (graph.num_nodes() == 0) {
    return util::Status::InvalidArgument("empty overlay");
  }
  if (!databases.empty() && databases.size() != graph.num_nodes()) {
    return util::Status::InvalidArgument(
        "database count must match peer count");
  }
  if (params.hop_latency_ms < 0.0 || params.hop_latency_jitter_ms < 0.0 ||
      params.tuples_scanned_per_ms <= 0.0) {
    return util::Status::InvalidArgument("bad network parameters");
  }
  if (params.parallel_peer_init) {
    // Scale path: every block draws its identities from its own
    // index-derived RNG stream, so construction parallelizes across
    // P2PAQP_THREADS while staying bit-identical for any thread count (the
    // block layout is fixed by the peer count alone). This is a different
    // stream than the serial draw below — only opt in for new worlds.
    // Block storage is deferred to the region: the static lane that owns a
    // block allocates it (InitBlock), so its pages are first-touched — and
    // on NUMA hosts placed — on the node that later scans it.
    PeerStore peers(graph.num_nodes(), PeerStore::DeferBlocks{});
    util::ParallelFor(peers.num_blocks(), [&](size_t b) {
      peers.InitBlock(b);
      util::Rng block_rng = util::TaskRng(seed, b);
      auto& block = peers.block(b);
      auto first = static_cast<graph::NodeId>(peers.block_first(b));
      for (size_t k = 0; k < block.size(); ++k) {
        auto id = static_cast<graph::NodeId>(first + k);
        auto ipv4 = static_cast<uint32_t>(block_rng.Next64());
        auto port = static_cast<uint16_t>(block_rng.UniformInt(1024, 65535));
        block[k] = Peer(id, ipv4, port, RandomCapabilities(block_rng));
        if (!databases.empty()) {
          block[k].set_database(std::move(databases[id]));
        }
      }
    }, kStaticBlocks);
    return SimulatedNetwork(std::move(graph), std::move(peers), params,
                            util::Rng(util::MixSeed(seed ^ 0x5CA1EULL)));
  }
  // Serial path: the per-peer identity draws and the network RNG handoff
  // reproduce the pre-PeerStore stream exactly — seeded regression worlds
  // depend on it.
  PeerStore peers(graph.num_nodes());
  util::Rng rng(seed);
  for (graph::NodeId id = 0; id < peers.size(); ++id) {
    auto ipv4 = static_cast<uint32_t>(rng.Next64());
    auto port = static_cast<uint16_t>(rng.UniformInt(1024, 65535));
    peers[id] = Peer(id, ipv4, port, RandomCapabilities(rng));
    if (!databases.empty()) {
      peers[id].set_database(std::move(databases[id]));
    }
  }
  return SimulatedNetwork(std::move(graph), std::move(peers), params,
                          std::move(rng));
}

SimulatedNetwork SimulatedNetwork::Clone(uint64_t seed) const {
  SimulatedNetwork copy(graph_, peers_, params_, util::Rng(seed));
  if (!departed_.empty()) {
    copy.departed_.reserve(peers_.size());
    copy.departed_.assign(departed_.begin(), departed_.end());
  }
  if (fault_.has_value()) {
    copy.fault_.emplace(fault_->plan(), util::MixSeed(seed ^ 0xFA177ULL),
                        peers_.size());
  }
  if (adversary_.has_value()) {
    copy.adversary_.emplace(adversary_->plan(),
                            util::MixSeed(seed ^ 0xBADBEEULL), peers_.size());
  }
  return copy;
}

const Peer& SimulatedNetwork::peer(graph::NodeId id) const {
  P2PAQP_CHECK(id < peers_.size()) << id;
  return peers_[id];
}

void SimulatedNetwork::SetAlive(graph::NodeId id, bool alive) {
  P2PAQP_CHECK(id < peers_.size()) << id;
  Peer& p = peers_[id];
  if (p.alive() == alive) return;
  p.set_alive(alive);
  if (alive) {
    const graph::NodeId moved = departed_.back();
    departed_[p.departed_slot_] = moved;
    peers_[moved].departed_slot_ = p.departed_slot_;
    departed_.pop_back();
  } else {
    if (departed_.capacity() < peers_.size()) departed_.reserve(peers_.size());
    p.departed_slot_ = static_cast<uint32_t>(departed_.size());
    departed_.push_back(id);
  }
  for (graph::NodeId v : graph_.neighbors(id)) {
    uint32_t& dead = peers_[v].dead_neighbors_;
    dead = alive ? dead - 1 : dead + 1;
  }
  if (history_ != nullptr) {
    history_->Record(
        alive ? HistoryEventKind::kPeerUp : HistoryEventKind::kPeerDown,
        MessageType::kPing, id, id);
  }
}

std::vector<graph::NodeId> SimulatedNetwork::AliveNeighbors(
    graph::NodeId id) const {
  std::vector<graph::NodeId> out;
  AliveNeighborsInto(id, &out);
  return out;
}

void SimulatedNetwork::AliveNeighborsInto(graph::NodeId id,
                                          std::vector<graph::NodeId>* out) const {
  out->clear();
  for (graph::NodeId v : graph_.neighbors(id)) {
    if (peers_[v].alive()) out->push_back(v);
  }
}

ForwardingView SimulatedNetwork::ForwardingSet(
    graph::NodeId holder, std::vector<graph::NodeId>* scratch) {
  if (!adversary_.has_value()) {
    const graph::NeighborRange csr = graph_.neighbors(holder);
    const uint32_t dead =
        departed_.empty() ? 0 : peers_[holder].dead_neighbors_;
    return ForwardingView(csr, csr.size() - dead,
                          dead == 0 ? nullptr : &peers_);
  }
  AliveNeighborsInto(holder, scratch);
  // An adversarial token holder may forward only to colluding neighbors
  // (walk hijack); the walker's uniform draw then picks among colluders.
  adversary_->RestrictForwarding(holder, scratch);
  return ForwardingView(scratch);
}

util::Status SimulatedNetwork::InstallDatabases(
    std::vector<data::LocalDatabase> databases) {
  if (databases.size() != peers_.size()) {
    return util::Status::InvalidArgument(
        "database count must match peer count");
  }
  for (size_t i = 0; i < peers_.size(); ++i) {
    peers_[i].set_database(std::move(databases[i]));
  }
  return util::Status::Ok();
}

double SimulatedNetwork::SampleHopLatency() {
  double jitter = 0.0;
  if (params_.hop_latency_jitter_ms > 0.0) {
    // Exponential jitter with the configured mean.
    double u = rng_.UniformDouble(1e-12, 1.0);
    jitter = -params_.hop_latency_jitter_ms * std::log(u);
  }
  return params_.hop_latency_ms + jitter;
}

void SimulatedNetwork::InstallFaultPlan(const FaultPlan& plan, uint64_t seed) {
  if (!plan.enabled()) {
    fault_.reset();
    return;
  }
  fault_.emplace(plan, seed, peers_.size());
}

void SimulatedNetwork::InstallAdversaryPlan(const AdversaryPlan& plan,
                                            uint64_t seed) {
  if (!plan.enabled()) {
    adversary_.reset();
    return;
  }
  adversary_.emplace(plan, seed, peers_.size());
}

FaultDecision SimulatedNetwork::ApplyFaults(MessageType type,
                                            graph::NodeId from,
                                            graph::NodeId to,
                                            graph::NodeId crash_candidate) {
  if (!fault_.has_value()) return FaultDecision{};
  FaultDecision decision = fault_->OnMessage(type, from, to, crash_candidate);
  for (graph::NodeId peer : decision.crashed) {
    if (peer < peers_.size()) SetAlive(peer, false);
  }
  return decision;
}

namespace {

// The endpoint a probabilistic crash takes down: replies lose their sender
// (the peer departs before its reply escapes), requests lose their receiver
// (the peer departs as the message reaches it).
graph::NodeId CrashCandidate(MessageType type, graph::NodeId from,
                             graph::NodeId to) {
  switch (type) {
    case MessageType::kPong:
    case MessageType::kQueryHit:
    case MessageType::kAggregateReply:
    case MessageType::kSampleReply:
    case MessageType::kAuditReply:
      return from;
    default:
      return to;
  }
}

}  // namespace

util::Status SimulatedNetwork::SendAlongEdge(MessageType type,
                                             graph::NodeId from,
                                             graph::NodeId to, uint32_t batch) {
  return Transmit(type, from, to, /*extra_payload_bytes=*/0, batch,
                  /*overlay_hop=*/true, /*transit_ms=*/nullptr);
}

util::Status SimulatedNetwork::SendDirect(MessageType type,
                                          graph::NodeId from,
                                          graph::NodeId to,
                                          uint32_t extra_payload_bytes,
                                          uint32_t batch, double* transit_ms) {
  return Transmit(type, from, to, extra_payload_bytes, batch,
                  /*overlay_hop=*/false, transit_ms);
}

util::Status SimulatedNetwork::Transmit(MessageType type, graph::NodeId from,
                                        graph::NodeId to,
                                        uint32_t extra_payload_bytes,
                                        uint32_t batch, bool overlay_hop,
                                        double* transit_ms) {
  if (from >= peers_.size() || to >= peers_.size()) {
    return util::Status::Static(util::StatusCode::kInvalidArgument,
                                kOutOfRange);
  }
  if (overlay_hop && !graph_.HasEdge(from, to)) {
    return util::Status::Static(util::StatusCode::kInvalidArgument,
                                kNoConnection);
  }
  if (!peers_[from].alive() || !peers_[to].alive()) {
    return Unavailable(kEndpointDeparted);
  }
  if (overlay_hop) cost_.RecordWalkerHops(1);
  if (batch > 1) {
    // extra_payload_bytes is a per-query rider, so it multiplies with the
    // batch while the header is still shared once.
    cost_.RecordBatchedMessage(
        BatchedPayloadBytes(type, batch) +
            uint64_t{batch} * extra_payload_bytes,
        DefaultPayloadBytes(type) + extra_payload_bytes, batch,
        kGnutellaHeaderBytes);
  } else {
    cost_.RecordMessage(DefaultPayloadBytes(type) + extra_payload_bytes);
  }
  if (history_ != nullptr) {
    history_->Record(HistoryEventKind::kSend, type, from, to, batch);
  }
  // Direct IP replies do not ride the overlay but still cross the Internet
  // once; replies overlap the walk, so only the message cost (not latency on
  // the critical path) is charged beyond a single hop-equivalent.
  double transit = SampleHopLatency() * (overlay_hop ? 1.0 : 0.5);
  const std::string* lost = nullptr;
  if (fault_.has_value()) {
    // The message is on the wire (cost already charged) when faults strike:
    // drops lose it silently, crashes take an endpoint down with it.
    FaultDecision faults = ApplyFaults(type, from, to,
                                       CrashCandidate(type, from, to));
    transit += faults.extra_latency_ms;
    if (!peers_[from].alive() || !peers_[to].alive()) {
      lost = &kCrashedMidQuery;
    } else if (!faults.deliver) {
      lost = &kDroppedInTransit;
    }
  }
  cost_.RecordLatency(transit);
  if (transit_ms != nullptr) *transit_ms = transit;
  // Every charged message resolves, in the ledger and the history alike.
  if (lost == nullptr) {
    cost_.RecordDelivered();
  } else {
    cost_.RecordDropped();
  }
  if (history_ != nullptr) {
    history_->Record(
        lost == nullptr ? HistoryEventKind::kDeliver : HistoryEventKind::kDrop,
        type, from, to, batch);
  }
  return lost == nullptr ? util::Status::Ok() : Unavailable(*lost);
}

double SimulatedNetwork::LocalScanLatency(graph::NodeId peer_id,
                                          uint64_t tuples) const {
  const Peer& p = peer(peer_id);
  double cpu_scale = std::max(0.1, p.capabilities().cpu_ghz);
  return static_cast<double>(tuples) /
         (params_.tuples_scanned_per_ms * cpu_scale);
}

double SimulatedNetwork::RecordLocalExecution(graph::NodeId peer_id,
                                              uint64_t tuples_scanned,
                                              uint64_t tuples_sampled) {
  cost_.RecordPeerVisit();
  cost_.RecordTuplesScanned(tuples_scanned);
  cost_.RecordTuplesSampled(tuples_sampled);
  const double scan_ms = LocalScanLatency(peer_id, tuples_scanned);
  cost_.RecordLatency(scan_ms);
  return scan_ms;
}

int64_t SimulatedNetwork::TotalTuples() const {
  // Per-block partials, reduced serially in block order: exact 64-bit sums,
  // so the result is bit-identical for any thread count.
  auto partials = util::ParallelMap(peers_.num_blocks(), [this](size_t b) {
    int64_t total = 0;
    for (const Peer& p : peers_.block(b)) {
      if (p.alive()) total += static_cast<int64_t>(p.database().size());
    }
    return total;
  }, kStaticBlocks);
  int64_t total = 0;
  for (int64_t partial : partials) total += partial;
  return total;
}

int64_t SimulatedNetwork::ExactCount(data::Value lo, data::Value hi) const {
  auto partials = util::ParallelMap(peers_.num_blocks(), [&](size_t b) {
    int64_t total = 0;
    for (const Peer& p : peers_.block(b)) {
      if (p.alive()) total += p.database().Count(lo, hi);
    }
    return total;
  }, kStaticBlocks);
  int64_t total = 0;
  for (int64_t partial : partials) total += partial;
  return total;
}

int64_t SimulatedNetwork::ExactSum(data::Value lo, data::Value hi) const {
  auto partials = util::ParallelMap(peers_.num_blocks(), [&](size_t b) {
    int64_t total = 0;
    for (const Peer& p : peers_.block(b)) {
      if (p.alive()) total += p.database().Sum(lo, hi);
    }
    return total;
  }, kStaticBlocks);
  int64_t total = 0;
  for (int64_t partial : partials) total += partial;
  return total;
}

double SimulatedNetwork::ExactMedian() const {
  // Collect per block, concatenate in block order (same value order as the
  // old serial scan), then select.
  auto blocks = util::ParallelMap(peers_.num_blocks(), [this](size_t b) {
    std::vector<double> values;
    for (const Peer& p : peers_.block(b)) {
      if (!p.alive()) continue;
      for (const data::Tuple& t : p.database().tuples()) {
        values.push_back(static_cast<double>(t.value));
      }
    }
    return values;
  }, kStaticBlocks);
  std::vector<double> values;
  size_t total = 0;
  for (const auto& block : blocks) total += block.size();
  values.reserve(total);
  for (auto& block : blocks) {
    values.insert(values.end(), block.begin(), block.end());
  }
  P2PAQP_CHECK(!values.empty());
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

}  // namespace p2paqp::net
