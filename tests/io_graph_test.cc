// Persisted-CSR round-trip and out-of-core builder coverage.
//
// The contracts under test:
//   * SaveGraph + OpenMappedGraph reproduce a built graph bit for bit —
//     same edge digest, same adjacency, same header stats — with the mapped
//     Graph reading straight out of the file mapping (is_mapped());
//   * the spilling GraphBuilder (P2PAQP_BUILD_SPILL_EDGES) produces a graph
//     byte-identical to the in-memory counting-sort path, including through
//     multi-pass merges (fan-in smaller than the run count);
//   * PrefaultGraph returns a deterministic checksum (so the page touches
//     cannot be optimized away) on owned and mapped graphs alike;
//   * OpenMappedGraph refuses a hand-corrupted adjacency with a Status —
//     non-monotone offsets, an out-of-range or self-looping neighbour, a
//     list that does not fill exactly its bytes, disagreeing header
//     statistics, and an asymmetric adjacency — before any read goes
//     through it.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/graph.h"
#include "io/graph_io.h"
#include "topology/random.h"
#include "util/rng.h"

namespace p2paqp {
namespace {

// FNV-1a over (num_nodes, num_edges, then each edge (u, v) with u < v in
// CSR order) — the same digest tests/topology_golden_test.cc pins.
uint64_t EdgeDigest(const graph::Graph& g) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((value >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  };
  mix(g.num_nodes());
  mix(g.num_edges());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v : g.neighbors(u)) {
      if (u < v) {
        mix(u);
        mix(v);
      }
    }
  }
  return h;
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

graph::Graph BuildTestGraph() {
  util::Rng rng(1234);
  auto g = topology::MakeErdosRenyi(2000, 6000, rng);
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

TEST(GraphIo, RoundTripPreservesGoldenDigest) {
  graph::Graph built = BuildTestGraph();
  // The ErdosRenyi(2000, 6000, seed 1234) golden from
  // tests/topology_golden_test.cc: the round trip must preserve it.
  ASSERT_EQ(EdgeDigest(built), 0xDDA47CFC74133F3DULL);

  const std::string path = TempPath("round_trip.p2pg");
  auto saved = io::SaveGraph(path, built);
  ASSERT_TRUE(saved.ok()) << saved.ToString();

  auto mapped = io::OpenMappedGraph(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->is_mapped());
  EXPECT_FALSE(built.is_mapped());
  EXPECT_EQ(mapped->num_nodes(), built.num_nodes());
  EXPECT_EQ(mapped->num_edges(), built.num_edges());
  EXPECT_EQ(mapped->min_degree(), built.min_degree());
  EXPECT_EQ(mapped->max_degree(), built.max_degree());
  EXPECT_EQ(EdgeDigest(*mapped), EdgeDigest(built));

  // Full adjacency, not just the digest.
  std::vector<graph::NodeId> a, b;
  for (graph::NodeId u = 0; u < built.num_nodes(); ++u) {
    built.CopyNeighbors(u, &a);
    mapped->CopyNeighbors(u, &b);
    ASSERT_EQ(a, b) << "adjacency diverged at node " << u;
  }
  std::remove(path.c_str());
}

TEST(GraphIo, CopiesOfMappedGraphShareTheMapping) {
  graph::Graph built = BuildTestGraph();
  const std::string path = TempPath("shared_mapping.p2pg");
  ASSERT_TRUE(io::SaveGraph(path, built).ok());
  auto mapped = io::OpenMappedGraph(path);
  ASSERT_TRUE(mapped.ok());

  graph::Graph copy = *mapped;  // Copy shares the mapping, no byte copy.
  EXPECT_TRUE(copy.is_mapped());
  EXPECT_EQ(copy.encoded_bytes(), mapped->encoded_bytes());
  EXPECT_EQ(copy.offsets(), mapped->offsets());
  EXPECT_EQ(EdgeDigest(copy), EdgeDigest(built));

  graph::Graph moved = std::move(*mapped);  // Move keeps the views valid.
  EXPECT_TRUE(moved.is_mapped());
  EXPECT_EQ(EdgeDigest(moved), EdgeDigest(built));
  std::remove(path.c_str());
}

TEST(GraphIo, RejectsMissingTruncatedAndForeignFiles) {
  EXPECT_FALSE(io::OpenMappedGraph(TempPath("does_not_exist.p2pg")).ok());

  // A foreign file: right size ballpark, wrong magic.
  const std::string foreign = TempPath("foreign.p2pg");
  {
    std::FILE* f = std::fopen(foreign.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::vector<uint8_t> junk(128, 0x5A);
    std::fwrite(junk.data(), 1, junk.size(), f);
    std::fclose(f);
  }
  EXPECT_FALSE(io::OpenMappedGraph(foreign).ok());
  std::remove(foreign.c_str());

  // A truncated save: header intact, stream cut short.
  graph::Graph built = BuildTestGraph();
  const std::string truncated = TempPath("truncated.p2pg");
  ASSERT_TRUE(io::SaveGraph(truncated, built).ok());
  {
    std::FILE* f = std::fopen(truncated.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(::truncate(truncated.c_str(), size - 100), 0);
  }
  EXPECT_FALSE(io::OpenMappedGraph(truncated).ok());
  std::remove(truncated.c_str());
}

TEST(GraphIo, PrefaultChecksumIsDeterministicOwnedAndMapped) {
  graph::Graph built = BuildTestGraph();
  const uint64_t owned_sum = io::PrefaultGraph(built);
  EXPECT_EQ(io::PrefaultGraph(built), owned_sum);

  const std::string path = TempPath("prefault.p2pg");
  ASSERT_TRUE(io::SaveGraph(path, built).ok());
  auto mapped = io::OpenMappedGraph(path);
  ASSERT_TRUE(mapped.ok());
  // Same bytes, same pages, same checksum.
  EXPECT_EQ(io::PrefaultGraph(*mapped), owned_sum);
  std::remove(path.c_str());
}

// A "P2PG" file written from raw varint words, validating nothing. Per
// node: the degree, the first neighbour id as is, then each later id as
// its gap minus 1 — the CSR encoder's layout. The header's statistics come
// from the degrees; `offsets`, when given, replaces the packed table.
std::string WriteRawGraph(const char* name,
                          const std::vector<std::vector<uint32_t>>& words,
                          std::vector<uint32_t> offsets = {}) {
  std::vector<uint8_t> encoded;
  std::vector<uint32_t> packed{0};
  uint64_t arcs = 0;
  uint32_t min_degree = UINT32_MAX;
  uint32_t max_degree = 0;
  for (const auto& list : words) {
    for (uint32_t word : list) graph::varint::Encode(word, &encoded);
    packed.push_back(static_cast<uint32_t>(encoded.size()));
    arcs += list[0];
    min_degree = std::min(min_degree, list[0]);
    max_degree = std::max(max_degree, list[0]);
  }
  if (offsets.empty()) offsets = packed;
  const std::string path = TempPath(name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  const uint32_t version = 1;
  const uint64_t num_nodes = words.size();
  const uint64_t num_edges = arcs / 2;
  const uint64_t encoded_bytes = encoded.size();
  std::fwrite("P2PG", 1, 4, f);
  std::fwrite(&version, sizeof(version), 1, f);
  std::fwrite(&num_nodes, sizeof(num_nodes), 1, f);
  std::fwrite(&num_edges, sizeof(num_edges), 1, f);
  std::fwrite(&min_degree, sizeof(min_degree), 1, f);
  std::fwrite(&max_degree, sizeof(max_degree), 1, f);
  std::fwrite(&encoded_bytes, sizeof(encoded_bytes), 1, f);
  std::fwrite(offsets.data(), sizeof(uint32_t), offsets.size(), f);
  std::fwrite(encoded.data(), 1, encoded.size(), f);
  std::fclose(f);
  return path;
}

// The 4-cycle 0-1-2-3-0.
const std::vector<std::vector<uint32_t>> kSquare = {
    {2, 1, 1}, {2, 0, 1}, {2, 1, 1}, {2, 0, 1}};

// Opens a raw file, expects a refusal naming `reason`, removes the file.
void ExpectRejected(const std::string& path, const std::string& reason) {
  auto mapped = io::OpenMappedGraph(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(mapped.status().message().find(reason), std::string::npos)
      << mapped.status().ToString();
  std::remove(path.c_str());
}

TEST(GraphIoValidation, RawWriterProducesALoadableGraph) {
  const std::string path = WriteRawGraph("raw_square.p2pg", kSquare);
  auto mapped = io::OpenMappedGraph(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->num_edges(), 4u);
  EXPECT_TRUE(mapped->HasEdge(3, 0));
  std::remove(path.c_str());
}

TEST(GraphIoValidation, RejectsNonMonotoneOffsets) {
  // Packed offsets are 0, 3, 6, 9, 12: node 1's list would end past node
  // 2's start.
  ExpectRejected(WriteRawGraph("non_monotone.p2pg", kSquare,
                               {0, 3, 10, 9, 12}),
                 "not monotone");
}

TEST(GraphIoValidation, RejectsOutOfRangeNeighbour) {
  auto lists = kSquare;
  lists[0] = {2, 1, 5};  // Second neighbour of 0 is 1 + 5 + 1 = 7 >= 4.
  ExpectRejected(WriteRawGraph("out_of_range.p2pg", lists), "out of range");
}

TEST(GraphIoValidation, RejectsAListThatWrapsBelowItself) {
  // A gap of 2^32 - 1 after id 1 would wrap a 32-bit sum back to 1: the
  // list would stop ascending, so it must be refused, not decoded.
  auto lists = kSquare;
  lists[0] = {2, 1, UINT32_MAX};
  ExpectRejected(WriteRawGraph("wrapping.p2pg", lists), "out of range");
}

TEST(GraphIoValidation, RejectsSelfLoop) {
  auto lists = kSquare;
  lists[1] = {2, 0, 0};  // Node 1 lists 0 and 0 + 0 + 1 = 1, itself.
  ExpectRejected(WriteRawGraph("self_loop.p2pg", lists), "self-loop");
}

TEST(GraphIoValidation, RejectsAListOverrunningItsBytes) {
  auto lists = kSquare;
  lists[2] = {3, 1, 1};  // Claims three neighbours, stores two.
  lists[3] = {1, 0};     // Keeps the arc count even.
  ExpectRejected(WriteRawGraph("overrun.p2pg", lists), "past its list");
}

TEST(GraphIoValidation, RejectsAListWithBytesLeftOver) {
  auto lists = kSquare;
  lists[2] = {1, 1, 1};  // Claims one neighbour, stores two.
  lists[3] = {1, 0, 1};
  ExpectRejected(WriteRawGraph("leftover.p2pg", lists), "bytes unread");
}

TEST(GraphIoValidation, RejectsDisagreeingHeaderStatistics) {
  // Node 3 drops its arc to 2: ids stay valid, the arc count turns odd.
  auto lists = kSquare;
  lists[3] = {1, 0};
  ExpectRejected(WriteRawGraph("header_stats.p2pg", lists),
                 "header statistics");
}

TEST(GraphIoValidation, RejectsAsymmetricAdjacency) {
  // The directed cycle 0 -> 1 -> 2 -> 3 -> 0: four arcs, every degree 1,
  // no self-loop, header consistent — but no arc has its reverse.
  ExpectRejected(WriteRawGraph("asymmetric.p2pg",
                               {{1, 1}, {1, 2}, {1, 3}, {1, 0}}),
                 "not symmetric");
  // A subtler one: symmetric but for one pair of arcs, 0-2 listed by 0 and
  // 1-3 listed by 3 only, so every degree and the arc count still agree.
  ExpectRejected(WriteRawGraph("asymmetric_pair.p2pg",
                               {{2, 1, 0}, {1, 0}, {1, 3}, {2, 1, 0}}),
                 "not symmetric");
}

// The spilling builder must be byte-identical to the in-memory path. This
// drives both directly (set_spill) on one shared edge sequence, with a run
// size and fan-in small enough to force multiple runs AND a multi-pass
// collapse (runs > fan_in).
TEST(SpillBuilder, BitIdenticalToInMemoryThroughMultiPassMerge) {
  constexpr size_t kNodes = 3000;
  constexpr size_t kAttempts = 30000;

  auto feed = [](graph::GraphBuilder& builder) {
    util::Rng rng(0x5B111);  // Same stream for both builders.
    for (size_t i = 0; i < kAttempts; ++i) {
      auto a = static_cast<graph::NodeId>(rng.UniformIndex(kNodes));
      auto b = static_cast<graph::NodeId>(rng.UniformIndex(kNodes));
      builder.AddEdge(a, b);
    }
  };

  graph::GraphBuilder in_memory(kNodes);
  feed(in_memory);
  const size_t num_edges = in_memory.num_edges();
  graph::Graph reference = in_memory.Build();

  graph::GraphBuilder spilling(kNodes);
  graph::SpillOptions spill;
  spill.run_edges = 1000;   // ~28 runs for ~28k accepted edges.
  spill.merge_fan_in = 4;   // Forces two collapse passes before the merge.
  spilling.set_spill(spill);
  feed(spilling);
  ASSERT_EQ(spilling.num_edges(), num_edges);
  EXPECT_GT(spilling.SpilledRuns(), spill.merge_fan_in)
      << "test must exercise the multi-pass collapse";
  EXPECT_GT(spilling.SpilledBytes(), 0u);
  graph::Graph spilled = spilling.Build();

  ASSERT_EQ(spilled.num_nodes(), reference.num_nodes());
  ASSERT_EQ(spilled.num_edges(), reference.num_edges());
  EXPECT_EQ(spilled.min_degree(), reference.min_degree());
  EXPECT_EQ(spilled.max_degree(), reference.max_degree());
  EXPECT_EQ(EdgeDigest(spilled), EdgeDigest(reference));
  // Byte-identical encodings, not merely equal edge sets.
  ASSERT_EQ(spilled.MemoryBytes(), reference.MemoryBytes());
  const size_t encoded = reference.offsets()[reference.num_nodes()];
  EXPECT_EQ(std::memcmp(spilled.encoded_bytes(), reference.encoded_bytes(),
                        encoded),
            0);
}

// The builder's accept/reject feedback (the generators' RNG contract) must
// not depend on the spill mode: identical decisions edge-for-edge.
TEST(SpillBuilder, AcceptRejectDecisionsMatchInMemory) {
  constexpr size_t kNodes = 400;
  util::Rng rng(0xFEED5);
  graph::GraphBuilder in_memory(kNodes);
  graph::GraphBuilder spilling(kNodes);
  graph::SpillOptions spill;
  spill.run_edges = 64;
  spilling.set_spill(spill);
  for (size_t i = 0; i < 20000; ++i) {
    // Includes out-of-range endpoints and self loops.
    auto a = static_cast<graph::NodeId>(rng.UniformIndex(kNodes + 8));
    auto b = static_cast<graph::NodeId>(rng.UniformIndex(kNodes + 8));
    ASSERT_EQ(in_memory.AddEdge(a, b), spilling.AddEdge(a, b))
        << "decision diverged at attempt " << i;
    if (i % 503 == 0 && a < kNodes && b < kNodes) {
      ASSERT_EQ(in_memory.HasEdge(a, b), spilling.HasEdge(a, b));
      ASSERT_EQ(in_memory.degree(a), spilling.degree(a));
    }
  }
  EXPECT_EQ(EdgeDigest(in_memory.Build()), EdgeDigest(spilling.Build()));
}

// Spill mode must keep the edge log off the heap: the builder's resident
// footprint stays O(nodes + dedup table + run buffer) while the arcs land
// on disk.
TEST(SpillBuilder, EdgeLogStaysOutOfCore) {
  constexpr size_t kNodes = 20000;
  graph::GraphBuilder builder(kNodes);
  graph::SpillOptions spill;
  spill.run_edges = 512;
  builder.set_spill(spill);
  util::Rng rng(31337);
  size_t accepted = 0;
  for (size_t i = 0; i < 120000; ++i) {
    auto a = static_cast<graph::NodeId>(rng.UniformIndex(kNodes));
    auto b = static_cast<graph::NodeId>(rng.UniformIndex(kNodes));
    if (builder.AddEdge(a, b)) ++accepted;
  }
  // The run buffer holds at most one run (2 arcs per edge); everything
  // beyond it must be on disk, not in MemoryBytes().
  EXPECT_LE(builder.MemoryBytes(),
            kNodes * sizeof(uint32_t)                // degrees
                + 4 * spill.run_edges * sizeof(uint64_t)  // run buffer slack
                + 4 * accepted * sizeof(uint64_t));  // dedup table (pow2)
  EXPECT_GE(builder.SpilledBytes(),
            (accepted - spill.run_edges) * 2 * sizeof(uint64_t));
  graph::Graph g = builder.Build();
  EXPECT_EQ(g.num_edges(), accepted);
}

}  // namespace
}  // namespace p2paqp
