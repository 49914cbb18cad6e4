// Blocked storage for per-peer state, partitioned for deterministic
// parallelism.
//
// A million-peer overlay cannot afford one contiguous std::vector<Peer>
// resize on every world build, and the deterministic parallel layer
// (util/parallel.h) wants naturally partitioned work. PeerStore keeps peers
// in fixed 64Ki blocks: the block layout depends only on the peer count —
// never on P2PAQP_THREADS — so block-parallel construction and block-wise
// oracle scans (reduced serially in block order) stay bit-identical for any
// thread count, per the parallel layer's contract.
#ifndef P2PAQP_NET_PEER_STORE_H_
#define P2PAQP_NET_PEER_STORE_H_

#include <cstddef>
#include <vector>

#include "net/peer.h"
#include "util/logging.h"

namespace p2paqp::net {

class PeerStore {
 public:
  static constexpr size_t kBlockShift = 16;
  static constexpr size_t kBlockSize = size_t{1} << kBlockShift;

  // Tag for the deferred (first-touch) constructor below.
  struct DeferBlocks {};

  PeerStore() = default;
  explicit PeerStore(size_t n) : size_(n) {
    blocks_.resize((n + kBlockSize - 1) >> kBlockShift);
    for (size_t b = 0; b < blocks_.size(); ++b) InitBlock(b);
  }

  // Deferred layout: the block table exists but no block's Peer storage is
  // allocated yet. The parallel world-build path calls InitBlock(b) from
  // the static lane that owns block b, so on NUMA hosts the first touch of
  // a block's pages happens on the node whose pinned lane will keep
  // scanning it. The block layout (and therefore every result) is
  // identical to the eager constructor — only page placement differs.
  PeerStore(size_t n, DeferBlocks) : size_(n) {
    blocks_.resize((n + kBlockSize - 1) >> kBlockShift);
  }

  // Allocates (and first-touches) block b's Peer storage. Idempotent.
  void InitBlock(size_t b) {
    size_t first = b << kBlockShift;
    blocks_[b].resize(size_ - first < kBlockSize ? size_ - first : kBlockSize);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Peer& operator[](size_t i) {
    P2PAQP_DCHECK(i < size_) << i;
    return blocks_[i >> kBlockShift][i & (kBlockSize - 1)];
  }
  const Peer& operator[](size_t i) const {
    P2PAQP_DCHECK(i < size_) << i;
    return blocks_[i >> kBlockShift][i & (kBlockSize - 1)];
  }

  // Block access for parallel loops; block b covers peer ids
  // [block_first(b), block_first(b) + block(b).size()).
  size_t num_blocks() const { return blocks_.size(); }
  std::vector<Peer>& block(size_t b) { return blocks_[b]; }
  const std::vector<Peer>& block(size_t b) const { return blocks_[b]; }
  size_t block_first(size_t b) const { return b << kBlockShift; }

  // Heap footprint of peer state: the Peer structs themselves plus every
  // local database's tuple storage. Together with Graph::MemoryBytes this
  // is the numerator of the gated bytes_per_peer metric.
  size_t MemoryBytes() const {
    size_t total = blocks_.capacity() * sizeof(std::vector<Peer>);
    for (const auto& block : blocks_) {
      total += block.capacity() * sizeof(Peer);
      for (const Peer& p : block) {
        total += p.database().MemoryBytes();
      }
    }
    return total;
  }

 private:
  size_t size_ = 0;
  std::vector<std::vector<Peer>> blocks_;
};

}  // namespace p2paqp::net

#endif  // P2PAQP_NET_PEER_STORE_H_
