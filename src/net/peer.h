// A peer node: identity, capabilities and its horizontal data partition.
#ifndef P2PAQP_NET_PEER_H_
#define P2PAQP_NET_PEER_H_

#include <cstdint>
#include <string>

#include "data/local_database.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace p2paqp::net {

// Hardware/connection envelope from Sec. 3.1 (p_cpu, p_mem, p_disk, p_band,
// p_conn). Purely descriptive in the simulator but kept so cost models can
// scale local processing time by peer speed.
struct PeerCapabilities {
  double cpu_ghz = 1.0;
  uint32_t memory_mb = 256;
  uint32_t disk_gb = 20;
  uint32_t bandwidth_kbps = 768;
  uint16_t max_connections = 8;
};

// Generates plausible heterogeneous capabilities.
PeerCapabilities RandomCapabilities(util::Rng& rng);

class Peer {
 public:
  Peer() = default;
  Peer(graph::NodeId id, uint32_t ipv4, uint16_t port,
       PeerCapabilities capabilities)
      : id_(id), ipv4_(ipv4), port_(port), capabilities_(capabilities) {}

  graph::NodeId id() const { return id_; }
  uint32_t ipv4() const { return ipv4_; }
  uint16_t port() const { return port_; }
  // Dotted-quad "a.b.c.d:port" identity string (IP_p, port_p).
  std::string address() const;

  const PeerCapabilities& capabilities() const { return capabilities_; }

  bool alive() const { return alive_; }
  void set_alive(bool alive) {
    // A rejoin is a fresh session: the peer's previous life ended "without
    // notice" (Sec. 1), so any state another component associates with the
    // old incarnation (an in-flight walker token, a pending reply timer) is
    // gone. Holders compare the incarnation they captured at hand-off
    // against the current one to detect death-and-rebirth between events.
    if (alive && !alive_) ++incarnation_;
    alive_ = alive;
  }
  // How many of this peer's overlay neighbours are down right now.
  uint32_t dead_neighbors() const { return dead_neighbors_; }
  // Number of times this peer has (re)joined; starts at 0 for the first
  // life. Bumped on every dead -> alive transition.
  uint64_t incarnation() const { return incarnation_; }

  const data::LocalDatabase& database() const { return database_; }
  data::LocalDatabase& mutable_database() { return database_; }
  void set_database(data::LocalDatabase database) {
    database_ = std::move(database);
  }

 private:
  friend class SimulatedNetwork;

  graph::NodeId id_ = graph::kInvalidNode;
  uint32_t ipv4_ = 0;
  uint16_t port_ = 0;
  // While departed: this peer's index in SimulatedNetwork's departed list,
  // which that class alone maintains. Sits in the padding before
  // capabilities_, so it costs no bytes per peer.
  uint32_t departed_slot_ = 0;
  PeerCapabilities capabilities_;
  bool alive_ = true;
  // How many of this peer's overlay neighbours are down, kept exact by
  // SimulatedNetwork::SetAlive on every liveness transition. Sits in the
  // padding after alive_, so it costs no bytes per peer either.
  uint32_t dead_neighbors_ = 0;
  uint64_t incarnation_ = 0;
  data::LocalDatabase database_;
};

// The departed slot and the dead-neighbour count live in padding: the
// per-peer footprint (docs/PERFORMANCE.md, bytes_per_peer) must not grow.
static_assert(sizeof(Peer) == 80, "Peer grew past its padded layout");

}  // namespace p2paqp::net

#endif  // P2PAQP_NET_PEER_H_
