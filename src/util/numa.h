// NUMA topology probing and deterministic lane placement.
//
// On a multi-socket host, a static-partition parallel region wants lane l's
// worker pinned to the node that holds the pages lane l first-touched: the
// PeerStore blocks a lane initializes and the CSR pages it warms then stay
// node-local for the lifetime of the world. This header answers exactly two
// questions, both deterministically: which node does lane l of L belong to,
// and which CPU should host it.
//
// Probing order:
//   1. libnuma, when the build found it (P2PAQP_HAVE_LIBNUMA) and
//      numa_available() succeeds;
//   2. sysfs (/sys/devices/system/node/node*/cpulist) on Linux;
//   3. a single synthetic node covering CPUs [0, hardware_concurrency) —
//      the deterministic fallback, also used when the P2PAQP_NUMA knob
//      disables placement.
//
// Placement NEVER changes results. The deterministic parallel layer's
// contract (util/parallel.h) holds with NUMA placement on or off:
// lane -> node -> CPU affects only where a lane executes and which node
// backs the pages it touches first, never what it computes.
//
// Knobs: P2PAQP_NUMA=0 forces the single-node fallback (placement off);
// unset or any other value uses the probed topology. Read once per process
// (the topology is immutable hardware state).
#ifndef P2PAQP_UTIL_NUMA_H_
#define P2PAQP_UTIL_NUMA_H_

#include <cstddef>
#include <vector>

namespace p2paqp::util {

// Immutable snapshot of the host's NUMA layout.
class NumaTopology {
 public:
  // One memory node and the CPUs local to it (sorted ascending).
  struct Node {
    int id = 0;
    std::vector<int> cpus;
  };

  // The probed hardware topology (libnuma -> sysfs -> single-node).
  // Probed once; subsequent calls return the cached snapshot.
  static const NumaTopology& Probed();

  // The topology parallel regions should place against: Probed() when the
  // P2PAQP_NUMA knob allows it, the single-node fallback otherwise.
  static const NumaTopology& Effective();

  // A synthetic single node spanning `num_cpus` CPUs (>= 1). Exposed so
  // tests can exercise placement math without multi-socket hardware.
  static NumaTopology SingleNode(size_t num_cpus);

  // A topology from an explicit node list (CPU-less nodes already dropped).
  // Exposed for tests; the probers use it internally.
  static NumaTopology FromNodes(std::vector<Node> nodes);

  size_t num_nodes() const { return nodes_.size(); }
  bool multi_node() const { return nodes_.size() > 1; }
  const std::vector<Node>& nodes() const { return nodes_; }
  size_t num_cpus() const { return num_cpus_; }

  // Deterministic lane -> node map for a region of `lanes` lanes: lanes
  // split into contiguous per-node groups (node k owns lanes
  // [k*lanes/N, (k+1)*lanes/N)), mirroring how Partition::kStatic splits
  // the index space into contiguous per-lane ranges — so neighboring
  // indices land on one node.
  size_t NodeOfLane(size_t lane, size_t lanes) const;

  // Deterministic CPU for lane l of `lanes`: round-robins the lane's
  // position within its node group across that node's CPU list.
  int CpuOfLane(size_t lane, size_t lanes) const;

 private:
  std::vector<Node> nodes_;
  size_t num_cpus_ = 1;
};

// False iff P2PAQP_NUMA=0 (or the probed topology has a single node, in
// which case placement is a no-op anyway). When false, Effective() is the
// single-node fallback and lane pinning degenerates to lane % num_cpus —
// byte-for-byte the pre-NUMA pinning behavior.
bool NumaPlacementEnabled();

}  // namespace p2paqp::util

#endif  // P2PAQP_UTIL_NUMA_H_
