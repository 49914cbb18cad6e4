#include "graph/builder.h"

#include <algorithm>
#include <utility>

#include "util/env.h"

namespace p2paqp::graph {
namespace {

// UINT64_MAX is unreachable as a key: it would need a == b == 0xFFFFFFFF,
// which AddEdge rejects as a self loop before hashing.
constexpr uint64_t kEmptySlot = ~0ULL;

// Per-run read buffer during a k-way merge, in 8-byte arcs (256 KiB). With
// the default fan-in of 64 a merge pass holds at most 16 MiB of buffers.
constexpr size_t kMergeBufferArcs = size_t{1} << 15;

// Buffered sequential reader over one sorted run inside a (shared) spill
// file. Readers interleave on the same FILE*, so every refill re-seeks to
// its own cursor.
class RunReader {
 public:
  RunReader(std::FILE* file, uint64_t offset_arcs, uint64_t count_arcs)
      : file_(file), next_(offset_arcs), end_(offset_arcs + count_arcs) {
    buffer_.reserve(
        std::min<uint64_t>(kMergeBufferArcs, count_arcs > 0 ? count_arcs : 1));
  }

  // Returns false once the run is exhausted.
  bool Next(uint64_t* arc) {
    if (pos_ == buffer_.size()) {
      if (next_ == end_) return false;
      auto want = static_cast<size_t>(
          std::min<uint64_t>(buffer_.capacity(), end_ - next_));
      buffer_.resize(want);
      P2PAQP_CHECK_EQ(
          std::fseek(file_, static_cast<long>(next_ * sizeof(uint64_t)),
                     SEEK_SET),
          0);
      P2PAQP_CHECK_EQ(std::fread(buffer_.data(), sizeof(uint64_t), want, file_),
                      want)
          << "short read on spill run";
      next_ += want;
      pos_ = 0;
    }
    *arc = buffer_[pos_++];
    return true;
  }

 private:
  std::FILE* file_;
  uint64_t next_;
  uint64_t end_;
  std::vector<uint64_t> buffer_;
  size_t pos_ = 0;
};

// K-way merge of sorted runs from `file`, streaming ascending arcs into
// `consume`. Arc values are unique across runs (the dedup table rejects
// duplicate edges before they reach a run), so ordering by value alone is a
// strict total order and the merge is deterministic.
template <typename Consumer>
void MergeRuns(std::vector<RunReader>& readers, Consumer&& consume) {
  // Simple binary min-heap of (arc, reader); fan-in is small.
  struct Head {
    uint64_t arc;
    size_t reader;
  };
  std::vector<Head> heap;
  heap.reserve(readers.size());
  for (size_t r = 0; r < readers.size(); ++r) {
    uint64_t arc;
    if (readers[r].Next(&arc)) heap.push_back({arc, r});
  }
  auto later = [](const Head& a, const Head& b) { return a.arc > b.arc; };
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Head head = heap.back();
    heap.pop_back();
    consume(head.arc);
    uint64_t arc;
    if (readers[head.reader].Next(&arc)) {
      heap.push_back({arc, head.reader});
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
}

// splitmix64 finalizer — full-avalanche over the packed (min, max) key.
uint64_t HashKey(uint64_t key) {
  key += 0x9E3779B97F4A7C15ULL;
  key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9ULL;
  key = (key ^ (key >> 27)) * 0x94D049BB133111EBULL;
  return key ^ (key >> 31);
}

size_t CeilPow2(size_t v) {
  size_t cap = 1;
  while (cap < v) cap <<= 1;
  return cap;
}

}  // namespace

SpillOptions SpillOptionsFromEnv() {
  SpillOptions spill;
  const uint64_t run_edges =
      util::EnvWholeNumber("P2PAQP_BUILD_SPILL_EDGES").value_or(0);
  if (run_edges > 0) spill.run_edges = static_cast<size_t>(run_edges);
  const uint64_t fan_in =
      util::EnvWholeNumber("P2PAQP_BUILD_MERGE_FAN_IN").value_or(0);
  if (fan_in > 1) spill.merge_fan_in = static_cast<size_t>(fan_in);
  return spill;
}

GraphBuilder::GraphBuilder(size_t num_nodes, size_t expected_edges)
    : degrees_(num_nodes, 0), spill_(SpillOptionsFromEnv()) {
  if (spill_.run_edges > 0) run_buffer_.reserve(2 * spill_.run_edges);
  if (expected_edges == 0 || num_nodes == 0) return;
  if (spill_.run_edges == 0) edges_.reserve(expected_edges);
  GrowTable(expected_edges);
}

GraphBuilder::~GraphBuilder() {
  if (spill_file_ != nullptr) std::fclose(spill_file_);
  if (scratch_file_ != nullptr) std::fclose(scratch_file_);
}

GraphBuilder::GraphBuilder(GraphBuilder&& other) noexcept
    : degrees_(std::move(other.degrees_)),
      edges_(std::move(other.edges_)),
      table_(std::move(other.table_)),
      table_used_(other.table_used_),
      num_edges_(other.num_edges_),
      spill_(other.spill_),
      run_buffer_(std::move(other.run_buffer_)),
      runs_(std::move(other.runs_)),
      spill_file_(other.spill_file_),
      scratch_file_(other.scratch_file_),
      spilled_arcs_(other.spilled_arcs_) {
  other.table_used_ = 0;
  other.num_edges_ = 0;
  other.spill_file_ = nullptr;
  other.scratch_file_ = nullptr;
  other.spilled_arcs_ = 0;
}

GraphBuilder& GraphBuilder::operator=(GraphBuilder&& other) noexcept {
  if (this == &other) return *this;
  if (spill_file_ != nullptr) std::fclose(spill_file_);
  if (scratch_file_ != nullptr) std::fclose(scratch_file_);
  degrees_ = std::move(other.degrees_);
  edges_ = std::move(other.edges_);
  table_ = std::move(other.table_);
  table_used_ = other.table_used_;
  num_edges_ = other.num_edges_;
  spill_ = other.spill_;
  run_buffer_ = std::move(other.run_buffer_);
  runs_ = std::move(other.runs_);
  spill_file_ = other.spill_file_;
  scratch_file_ = other.scratch_file_;
  spilled_arcs_ = other.spilled_arcs_;
  other.table_used_ = 0;
  other.num_edges_ = 0;
  other.spill_file_ = nullptr;
  other.scratch_file_ = nullptr;
  other.spilled_arcs_ = 0;
  return *this;
}

void GraphBuilder::set_spill(const SpillOptions& spill) {
  P2PAQP_CHECK_EQ(num_edges_, 0u)
      << "set_spill must precede the first AddEdge";
  spill_ = spill;
  if (spill_.run_edges > 0) {
    std::vector<uint64_t>().swap(edges_);
    run_buffer_.reserve(2 * spill_.run_edges);
  }
}

uint64_t GraphBuilder::EdgeKey(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

void GraphBuilder::GrowTable(size_t min_capacity) {
  // Target < 60% load after accommodating min_capacity entries.
  size_t cap = CeilPow2(std::max<size_t>(64, min_capacity * 5 / 3 + 1));
  std::vector<uint64_t> fresh(cap, kEmptySlot);
  size_t mask = cap - 1;
  for (uint64_t key : table_) {
    if (key == kEmptySlot) continue;
    size_t slot = HashKey(key) & mask;
    while (fresh[slot] != kEmptySlot) slot = (slot + 1) & mask;
    fresh[slot] = key;
  }
  table_ = std::move(fresh);
}

bool GraphBuilder::TableInsert(uint64_t key) {
  if (table_.empty() || (table_used_ + 1) * 5 >= table_.size() * 3) {
    GrowTable(std::max<size_t>(table_used_ + 1, table_.size()));
  }
  size_t mask = table_.size() - 1;
  size_t slot = HashKey(key) & mask;
  while (table_[slot] != kEmptySlot) {
    if (table_[slot] == key) return false;
    slot = (slot + 1) & mask;
  }
  table_[slot] = key;
  ++table_used_;
  return true;
}

bool GraphBuilder::AddEdge(NodeId a, NodeId b) {
  if (a == b) return false;
  if (a >= degrees_.size() || b >= degrees_.size()) return false;
  uint64_t key = EdgeKey(a, b);
  if (!TableInsert(key)) return false;
  if (spill_.run_edges > 0) {
    // Spill mode logs both directed arcs so the merge yields every node's
    // neighbor list in one ascending (src, dst) pass.
    run_buffer_.push_back((static_cast<uint64_t>(a) << 32) | b);
    run_buffer_.push_back((static_cast<uint64_t>(b) << 32) | a);
    if (run_buffer_.size() >= 2 * spill_.run_edges) FlushRun();
  } else {
    edges_.push_back(key);
  }
  ++num_edges_;
  ++degrees_[a];
  ++degrees_[b];
  return true;
}

bool GraphBuilder::HasEdge(NodeId a, NodeId b) const {
  if (a == b || a >= degrees_.size() || b >= degrees_.size()) return false;
  if (table_.empty()) return false;
  uint64_t key = EdgeKey(a, b);
  size_t mask = table_.size() - 1;
  size_t slot = HashKey(key) & mask;
  while (table_[slot] != kEmptySlot) {
    if (table_[slot] == key) return true;
    slot = (slot + 1) & mask;
  }
  return false;
}

Graph GraphBuilder::Build() {
  Graph graph =
      spill_.run_edges > 0 ? BuildFromRuns() : BuildInMemory();
  num_edges_ = 0;
  return graph;
}

Graph GraphBuilder::BuildInMemory() {
  const size_t n = degrees_.size();
  // Counting sort of the edge log into flat CSR: prefix-sum the degrees,
  // scatter both directions of each edge, then sort each node's slice.
  std::vector<size_t> offsets(n + 1, 0);
  for (size_t u = 0; u < n; ++u) {
    offsets[u + 1] = offsets[u] + degrees_[u];
  }
  std::vector<NodeId> flat(2 * edges_.size());
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (uint64_t key : edges_) {
    auto a = static_cast<NodeId>(key >> 32);
    auto b = static_cast<NodeId>(key & 0xFFFFFFFFu);
    flat[cursor[a]++] = b;
    flat[cursor[b]++] = a;
  }
  // Release the build-time state before the Graph encodes (keeps the peak
  // at log + table + CSR, not log + table + CSR + stream).
  std::vector<uint64_t>().swap(edges_);
  std::vector<uint64_t>().swap(table_);
  table_used_ = 0;
  std::vector<uint32_t>(n, 0).swap(degrees_);
  for (size_t u = 0; u < n; ++u) {
    std::sort(flat.begin() + static_cast<ptrdiff_t>(offsets[u]),
              flat.begin() + static_cast<ptrdiff_t>(offsets[u + 1]));
  }
  return Graph(n, offsets, flat);
}

void GraphBuilder::FlushRun() {
  if (run_buffer_.empty()) return;
  std::sort(run_buffer_.begin(), run_buffer_.end());
  if (spill_file_ == nullptr) {
    spill_file_ = std::tmpfile();
    P2PAQP_CHECK(spill_file_ != nullptr)
        << "cannot create spill temp file (tmpfile failed)";
  }
  P2PAQP_CHECK_EQ(std::fseek(spill_file_, 0, SEEK_END), 0);
  Run run;
  run.offset = static_cast<uint64_t>(std::ftell(spill_file_)) /
               sizeof(uint64_t);
  run.count = run_buffer_.size();
  P2PAQP_CHECK_EQ(std::fwrite(run_buffer_.data(), sizeof(uint64_t),
                              run_buffer_.size(), spill_file_),
                  run_buffer_.size())
      << "short write on spill run (disk full?)";
  runs_.push_back(run);
  spilled_arcs_ += run.count;
  run_buffer_.clear();
}

void GraphBuilder::CollapseRuns() {
  const size_t fan_in = std::max<size_t>(2, spill_.merge_fan_in);
  while (runs_.size() > fan_in) {
    // One pass: merge groups of fan_in runs from spill_file_ into
    // scratch_file_, then promote the scratch file to be the spill file.
    scratch_file_ = std::tmpfile();
    P2PAQP_CHECK(scratch_file_ != nullptr)
        << "cannot create merge temp file (tmpfile failed)";
    std::vector<Run> merged;
    merged.reserve((runs_.size() + fan_in - 1) / fan_in);
    std::vector<uint64_t> out;
    out.reserve(kMergeBufferArcs);
    uint64_t out_arcs = 0;
    for (size_t group = 0; group < runs_.size(); group += fan_in) {
      size_t group_end = std::min(runs_.size(), group + fan_in);
      std::vector<RunReader> readers;
      readers.reserve(group_end - group);
      for (size_t r = group; r < group_end; ++r) {
        readers.emplace_back(spill_file_, runs_[r].offset, runs_[r].count);
      }
      Run run;
      run.offset = out_arcs;
      auto write_out = [&] {
        P2PAQP_CHECK_EQ(std::fwrite(out.data(), sizeof(uint64_t), out.size(),
                                    scratch_file_),
                        out.size())
            << "short write on merge pass (disk full?)";
        out_arcs += out.size();
        out.clear();
      };
      MergeRuns(readers, [&](uint64_t arc) {
        out.push_back(arc);
        if (out.size() == out.capacity()) write_out();
      });
      write_out();
      run.count = out_arcs - run.offset;
      merged.push_back(run);
    }
    std::fclose(spill_file_);
    spill_file_ = scratch_file_;
    scratch_file_ = nullptr;
    runs_ = std::move(merged);
  }
}

Graph GraphBuilder::BuildFromRuns() {
  const size_t n = degrees_.size();
  FlushRun();
  // The dedup table is dead weight from here on; release it before the
  // encoder allocates so the build peak is merge buffers + stream, not
  // table + merge buffers + stream.
  std::vector<uint64_t>().swap(table_);
  table_used_ = 0;
  std::vector<uint64_t>().swap(run_buffer_);
  CollapseRuns();

  GraphEncoder encoder(n, 2 * n + 6 * num_edges_);
  std::vector<NodeId> scratch;
  NodeId current = 0;
  auto emit_through = [&](NodeId next) {
    // Seals `current`'s gathered list, then empty lists up to `next`.
    while (current < next) {
      P2PAQP_DCHECK(scratch.size() == degrees_[current])
          << "merge produced a wrong degree for node " << current;
      encoder.AppendList(scratch.data(),
                         static_cast<uint32_t>(scratch.size()));
      scratch.clear();
      ++current;
    }
  };
  {
    std::vector<RunReader> readers;
    readers.reserve(runs_.size());
    for (const Run& run : runs_) {
      readers.emplace_back(spill_file_, run.offset, run.count);
    }
    MergeRuns(readers, [&](uint64_t arc) {
      auto src = static_cast<NodeId>(arc >> 32);
      auto dst = static_cast<NodeId>(arc & 0xFFFFFFFFu);
      if (src != current) emit_through(src);
      scratch.push_back(dst);
    });
  }
  emit_through(static_cast<NodeId>(n));

  if (spill_file_ != nullptr) {
    std::fclose(spill_file_);
    spill_file_ = nullptr;
  }
  runs_.clear();
  spilled_arcs_ = 0;
  std::vector<uint32_t>(n, 0).swap(degrees_);
  return encoder.Finish(num_edges_);
}

LegacyGraphBuilder::LegacyGraphBuilder(size_t num_nodes, size_t expected_edges)
    : adjacency_(num_nodes) {
  if (expected_edges == 0 || num_nodes == 0) return;
  edges_.reserve(expected_edges);
  size_t expected_degree = (2 * expected_edges + num_nodes - 1) / num_nodes;
  for (std::vector<NodeId>& list : adjacency_) {
    list.reserve(expected_degree);
  }
}

uint64_t LegacyGraphBuilder::EdgeKey(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

bool LegacyGraphBuilder::AddEdge(NodeId a, NodeId b) {
  if (a == b) return false;
  if (a >= adjacency_.size() || b >= adjacency_.size()) return false;
  if (!edges_.insert(EdgeKey(a, b)).second) return false;
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
  ++num_edges_;
  return true;
}

bool LegacyGraphBuilder::HasEdge(NodeId a, NodeId b) const {
  if (a == b || a >= adjacency_.size() || b >= adjacency_.size()) return false;
  return edges_.count(EdgeKey(a, b)) > 0;
}

Graph LegacyGraphBuilder::Build() {
  edges_.clear();
  num_edges_ = 0;
  return Graph(std::exchange(adjacency_, {}));
}

}  // namespace p2paqp::graph
