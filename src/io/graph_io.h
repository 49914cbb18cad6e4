// Persisted compressed-CSR graphs: build once, mmap forever.
//
// A 10M-peer overlay takes minutes of generator + external-merge work to
// construct but its final delta/varint CSR is ~150 MB of flat bytes. This
// file format stores exactly those bytes, so benches and tests can map a
// built world read-only in microseconds instead of re-generating it — and N
// processes mapping the same file share one page-cache copy.
//
// Little-endian binary layout (asserted at compile time in the .cc):
//
//   magic "P2PG" | u32 version | u64 num_nodes | u64 num_edges
//   u32 min_degree | u32 max_degree | u64 encoded_bytes
//   (num_nodes + 1) * u32            byte offsets into the encoded stream
//   encoded_bytes * u8               delta/varint adjacency stream
//
// The header is 40 bytes, so the offset table lands 4-byte aligned within
// the (page-aligned) mapping. OpenMappedGraph validates sizes, the
// offset-table seal and then the whole adjacency before handing the region
// to graph::Graph; the Graph (and every copy of it) keeps the mapping alive
// via shared ownership.
#ifndef P2PAQP_IO_GRAPH_IO_H_
#define P2PAQP_IO_GRAPH_IO_H_

#include <string>

#include "graph/graph.h"
#include "util/status.h"

namespace p2paqp::io {

// Writes `graph`'s compressed CSR to `path` (overwriting).
util::Status SaveGraph(const std::string& path, const graph::Graph& graph);

// Maps `path` read-only and returns a Graph whose adjacency reads straight
// from the mapping (no copy). The returned Graph and all copies of it share
// the mapping; it is unmapped when the last copy dies. A file is a trust
// boundary, so every list is checked first, in two sequential passes over
// the adjacency plus 8 bytes per node of scratch: InvalidArgument unless
// the offsets are monotone, each list fills exactly its byte range with
// in-range, strictly ascending ids and no self-loop, the header's edge
// count and degree bounds agree, and the adjacency is symmetric.
util::Result<graph::Graph> OpenMappedGraph(const std::string& path);

// Touches one byte per 4 KiB page of the graph's offset table and encoded
// stream from static-partitioned lanes, so a mapped graph's page faults are
// taken by the lane (and on NUMA hosts, the node) that will keep reading
// that range — instead of serially on first traversal. Works on owned
// graphs too (pure cache warm). Returns a byte-sum checksum so the touches
// cannot be optimized away; the value is deterministic for a given graph.
uint64_t PrefaultGraph(const graph::Graph& graph);

}  // namespace p2paqp::io

#endif  // P2PAQP_IO_GRAPH_IO_H_
