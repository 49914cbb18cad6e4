// Compact undirected graph in delta/varint-compressed CSR form.
//
// Models the unstructured P2P overlay G = (P, E) from Sec. 3.1 of the paper:
// vertices are peers, edges are open connections. The representation is
// immutable once built (see graph/builder.h); topology changes from churn are
// layered on top by net::SimulatedNetwork via liveness masks rather than by
// mutating the graph.
//
// Storage layout (docs/PERFORMANCE.md has the full accounting): one byte
// stream holding, per node, `[varint degree][varint first][varint gap-1]...`
// over the sorted neighbor list, plus a uint32 byte-offset table indexed by
// node. Neighbor ids in a sorted list are strictly increasing, so every gap
// is >= 1; the expected gap is ~num_nodes/degree, i.e. 2-byte varints at
// Gnutella scale and 3-byte at 1M+ peers with uniformly spread ids (less
// for clustered/hierarchical layouts where neighbor ids are nearby). At
// Gnutella-like average degree (~4.7) that is ~12 bytes/node of adjacency +
// 4 of offset, versus 8-byte offsets + 4 bytes per directed edge (~27) for
// the uncompressed CSR it replaced.
#ifndef P2PAQP_GRAPH_GRAPH_H_
#define P2PAQP_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "util/logging.h"

namespace p2paqp::graph {

using NodeId = uint32_t;

// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

namespace varint {

// LEB128. Decodes one value; returns the position one past it. The single
// byte fast path covers every value < 128 — at P2P degrees that is the
// degree byte and almost every gap.
inline const uint8_t* Decode(const uint8_t* p, uint32_t* out) {
  uint32_t byte = *p++;
  if (byte < 0x80) {
    *out = byte;
    return p;
  }
  uint32_t value = byte & 0x7F;
  int shift = 7;
  do {
    byte = *p++;
    value |= (byte & 0x7F) << shift;
    shift += 7;
  } while (byte >= 0x80);
  *out = value;
  return p;
}

inline void Encode(uint32_t value, std::vector<uint8_t>* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

}  // namespace varint

// Lazily-decoded view of one node's neighbor list. Values come back in
// ascending order; the underlying bytes stay compressed, so iteration is a
// running prefix sum over gaps. Forward iteration is the native operation;
// `operator[]` decodes from the front and costs O(i).
class NeighborRange {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = const NodeId*;
    using reference = NodeId;

    iterator() = default;

    NodeId operator*() const { return current_; }

    iterator& operator++() {
      if (--remaining_ > 0) {
        uint32_t gap;
        p_ = varint::Decode(p_, &gap);
        current_ += gap + 1;
      }
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++*this;
      return copy;
    }

    // Positions within one range are uniquely identified by the count of
    // values still to come, which also makes the end sentinel trivial.
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.remaining_ == b.remaining_;
    }

   private:
    friend class NeighborRange;
    iterator(const uint8_t* p, uint32_t remaining)
        : p_(p), remaining_(remaining) {
      if (remaining_ > 0) p_ = varint::Decode(p_, &current_);
    }

    const uint8_t* p_ = nullptr;
    uint32_t remaining_ = 0;
    NodeId current_ = 0;
  };

  NeighborRange() = default;
  NeighborRange(const uint8_t* block, uint32_t degree)
      : block_(block), degree_(degree) {}

  size_t size() const { return degree_; }
  bool empty() const { return degree_ == 0; }

  iterator begin() const { return iterator(block_, degree_); }
  iterator end() const { return iterator(nullptr, 0); }

  NodeId front() const {
    P2PAQP_DCHECK(degree_ > 0);
    return *begin();
  }

  // O(i + 1) decode from the block start; meant for single random probes,
  // not for nested loops — copy into a vector for those (see
  // graph/metrics.cc). Its hot caller is net::ForwardingView::operator[]:
  // at a holder with no dead neighbour every walker hop of both engines
  // draws its next peer here, straight off the CSR bytes.
  NodeId operator[](size_t i) const {
    P2PAQP_DCHECK(i < degree_) << i;
    iterator it = begin();
    for (size_t k = 0; k < i; ++k) ++it;
    return *it;
  }

  // Sorted early-exit membership scan.
  bool contains(NodeId v) const {
    for (NodeId u : *this) {
      if (u >= v) return u == v;
    }
    return false;
  }

 private:
  const uint8_t* block_ = nullptr;  // First-neighbor varint (past degree).
  uint32_t degree_ = 0;
};

// Immutable undirected simple graph (no self edges, no parallel edges).
//
// Storage is accessed exclusively through raw views (`encoded_view_`,
// `offsets_view_`) so the same read path serves two backings:
//   * owned — the vectors below, filled by the constructors / GraphEncoder;
//   * external — a read-only region owned by someone else (an mmap'd world
//     file from io::OpenMappedGraph), kept alive by `backing_` and shared
//     by every copy of the Graph.
// Copies of an owned graph deep-copy the vectors and re-point the views;
// copies of a mapped graph just bump the backing refcount, so cloning a
// 10M-peer world does not duplicate its adjacency.
class Graph {
 public:
  Graph() = default;

  // `adjacency[u]` lists the neighbors of u; must be symmetric and free of
  // self loops / duplicates (GraphBuilder guarantees this). Retained for
  // small hand-built graphs and the legacy A/B builder; large worlds come
  // through the flat-CSR constructor below.
  explicit Graph(std::vector<std::vector<NodeId>> adjacency);

  // Streaming path used by GraphBuilder: `offsets` has num_nodes+1 entries
  // and `flat[offsets[u]..offsets[u+1])` is u's sorted neighbor list.
  Graph(size_t num_nodes, const std::vector<size_t>& offsets,
        const std::vector<NodeId>& flat);

  // Externally backed graph over an already-encoded CSR (the mmap loader).
  // `offsets` must have num_nodes+1 entries and `encoded` must hold
  // offsets[num_nodes] bytes; both must stay valid for as long as `backing`
  // is alive. No validation beyond size checks — io::OpenMappedGraph
  // validates the whole CSR before handing the region over.
  Graph(size_t num_nodes, size_t num_edges, uint32_t min_degree,
        uint32_t max_degree, const uint8_t* encoded, const uint32_t* offsets,
        std::shared_ptr<const void> backing);

  Graph(const Graph& other) { CopyFrom(other); }
  Graph& operator=(const Graph& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Graph(Graph&& other) noexcept { MoveFrom(std::move(other)); }
  Graph& operator=(Graph&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }

  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return num_edges_; }

  // True when the adjacency lives in externally owned (mmap) storage.
  bool is_mapped() const { return backing_ != nullptr; }

  uint32_t degree(NodeId node) const {
    P2PAQP_DCHECK(node < num_nodes_) << node;
    uint32_t deg;
    varint::Decode(encoded_view_ + offsets_view_[node], &deg);
    return deg;
  }

  NeighborRange neighbors(NodeId node) const {
    P2PAQP_DCHECK(node < num_nodes_) << node;
    const uint8_t* p = encoded_view_ + offsets_view_[node];
    uint32_t deg;
    p = varint::Decode(p, &deg);
    return NeighborRange(p, deg);
  }

  // Decodes `node`'s list into `out` (cleared first) for call sites that
  // need repeated random access or reverse iteration.
  void CopyNeighbors(NodeId node, std::vector<NodeId>* out) const;

  // Software-prefetch pair for batched walker stepping. Neighbor decode on a
  // random node is two dependent misses — the offset-table entry, then the
  // varint block it points at — so a batch kernel hides them with a two-deep
  // pipeline: PrefetchOffset(walker i+2's node) and PrefetchNeighbors
  // (walker i+1's node, whose offset the previous iteration pulled in)
  // before decoding walker i. Hints only; never changes results.
  void PrefetchOffset(NodeId node) const {
    P2PAQP_DCHECK(node < num_nodes_) << node;
    __builtin_prefetch(offsets_view_ + node);
  }
  void PrefetchNeighbors(NodeId node) const {
    P2PAQP_DCHECK(node < num_nodes_) << node;
    __builtin_prefetch(encoded_view_ + offsets_view_[node]);
  }

  bool HasEdge(NodeId a, NodeId b) const;

  uint32_t min_degree() const { return min_degree_; }
  uint32_t max_degree() const { return max_degree_; }
  double average_degree() const;

  // Stationary probability of `node` under the simple random walk:
  // deg(node) / 2|E| (Sec. 3.3).
  double StationaryProbability(NodeId node) const;

  // Resident footprint of the adjacency structure (encoded stream + offset
  // table); the numerator of the gated bytes_per_peer metric. For a mapped
  // graph this is the mapped CSR size — the pages a full scan faults in.
  size_t MemoryBytes() const {
    return encoded_size_ +
           (num_nodes_ > 0 ? (num_nodes_ + 1) * sizeof(uint32_t) : 0);
  }

  // Raw CSR views for the io layer (serialization). The encoded stream is
  // offsets()[num_nodes()] bytes long.
  const uint8_t* encoded_bytes() const { return encoded_view_; }
  const uint32_t* offsets() const { return offsets_view_; }

 private:
  friend class GraphEncoder;

  // Appends one sorted list to `encoded_` and records its offset/degree.
  void AppendList(const NodeId* list, uint32_t deg);
  void FinishEncoding();
  // Re-points the views after owned storage changed (copy/finish).
  void RebindViews() {
    if (backing_ == nullptr) {
      encoded_view_ = encoded_.data();
      offsets_view_ = offsets_.data();
      encoded_size_ = encoded_.size();
    }
  }
  void CopyFrom(const Graph& other);
  void MoveFrom(Graph&& other) noexcept;

  size_t num_nodes_ = 0;
  size_t num_edges_ = 0;
  std::vector<uint8_t> encoded_;
  // Byte offsets into encoded_, num_nodes_+1 entries. uint32 keeps the
  // table at 4 bytes/node and caps the stream at 4 GiB — ~50x headroom over
  // a 10M-peer overlay at Gnutella degrees (CHECKed in FinishEncoding).
  std::vector<uint32_t> offsets_;
  // Read views: into the vectors above (owned) or into `backing_` (mapped).
  const uint8_t* encoded_view_ = nullptr;
  const uint32_t* offsets_view_ = nullptr;
  size_t encoded_size_ = 0;
  std::shared_ptr<const void> backing_;
  uint32_t min_degree_ = 0;
  uint32_t max_degree_ = 0;
};

// Incremental Graph construction for callers that stream node lists in id
// order without materializing a flat CSR first — the out-of-core
// GraphBuilder merge feeds each node's sorted neighbor run straight into
// the varint encoder, so peak memory during the final encode is one node's
// scratch list plus the growing encoded stream.
class GraphEncoder {
 public:
  // `expected_bytes` pre-sizes the encoded stream (0 = default growth).
  explicit GraphEncoder(size_t num_nodes, size_t expected_bytes = 0);

  // Appends node `appended()`'s sorted neighbor list. Must be called exactly
  // num_nodes times before Finish.
  void AppendList(const NodeId* list, uint32_t deg);

  size_t appended() const { return appended_; }

  // Seals the graph; `num_edges` is the undirected edge count (the encoder
  // saw each edge twice). The encoder is left empty.
  Graph Finish(size_t num_edges);

 private:
  Graph graph_;
  size_t num_nodes_ = 0;
  size_t appended_ = 0;
};

}  // namespace p2paqp::graph

#endif  // P2PAQP_GRAPH_GRAPH_H_
