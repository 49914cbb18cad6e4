#include "io/graph_io.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>

#include "util/parallel.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace p2paqp::io {

namespace {

constexpr char kMagic[4] = {'P', '2', 'P', 'G'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 40;

static_assert(std::endian::native == std::endian::little,
              "graph files are little-endian");

struct FileCloser {
  void operator()(std::FILE* file) const {
    if (file != nullptr) std::fclose(file);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
bool WriteValue(std::FILE* file, T value) {
  return std::fwrite(&value, sizeof(T), 1, file) == 1;
}

// Owns one read-only mapping; Graph copies share it via shared_ptr.
class MappedFile {
 public:
  MappedFile(void* data, size_t size) : data_(data), size_(size) {}
  ~MappedFile() { ::munmap(data_, size_); }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const uint8_t* data() const { return static_cast<const uint8_t*>(data_); }
  size_t size() const { return size_; }

 private:
  void* data_;
  size_t size_;
};

// LEB128 decode that stays inside [p, end) and rejects values past 32
// bits; advances `*p` past the value.
bool DecodeBounded(const uint8_t** p, const uint8_t* end, uint32_t* out) {
  uint64_t value = 0;
  for (int shift = 0; shift < 35; shift += 7) {
    if (*p == end) return false;
    const uint8_t byte = *(*p)++;
    value |= uint64_t{byte & 0x7Fu} << shift;
    if (byte < 0x80) {
      if (value > UINT32_MAX) return false;
      *out = static_cast<uint32_t>(value);
      return true;
    }
  }
  return false;
}

// Checks a mapped CSR against everything graph::Graph and its readers
// assume, before any read goes through it: monotone offsets, each list
// filling exactly its byte range, neighbour ids below `num_nodes`, strictly
// ascending lists without self-loops, the header's degree and edge
// statistics, and symmetry (SimulatedNetwork::SetAlive writes to every
// decoded neighbour, and its dead-neighbour counts are exact only on a
// symmetric graph).
util::Status ValidateCsr(size_t n, uint64_t num_edges, uint32_t min_degree,
                         uint32_t max_degree, const uint32_t* offsets,
                         const uint8_t* encoded) {
  for (size_t u = 0; u < n; ++u) {
    if (offsets[u] > offsets[u + 1]) {
      return util::Status::InvalidArgument("offset table not monotone");
    }
  }
  uint64_t arcs = 0;
  uint32_t lowest = UINT32_MAX;
  uint32_t highest = 0;
  for (size_t u = 0; u < n; ++u) {
    const uint8_t* p = encoded + offsets[u];
    const uint8_t* end = encoded + offsets[u + 1];
    uint32_t degree = 0;
    if (!DecodeBounded(&p, end, &degree)) {
      return util::Status::InvalidArgument("corrupt degree varint");
    }
    uint64_t v = 0;
    for (uint32_t k = 0; k < degree; ++k) {
      uint32_t delta = 0;
      if (!DecodeBounded(&p, end, &delta)) {
        return util::Status::InvalidArgument(
            "neighbour varint corrupt or past its list's bytes");
      }
      // The first id is stored as is, each later one as its gap minus 1,
      // so a list is ascending by construction; range and self-loops are
      // what a corrupt byte can still break.
      v = k == 0 ? delta : v + delta + 1;
      if (v >= n) {
        return util::Status::InvalidArgument("neighbour id out of range");
      }
      if (v == u) return util::Status::InvalidArgument("self-loop");
    }
    if (p != end) {
      return util::Status::InvalidArgument(
          "neighbour list leaves bytes unread");
    }
    arcs += degree;
    lowest = std::min(lowest, degree);
    highest = std::max(highest, degree);
  }
  if (arcs % 2 != 0 || arcs / 2 != num_edges || lowest != min_degree ||
      highest != max_degree) {
    return util::Status::InvalidArgument("header statistics disagree");
  }
  // Symmetry, in one more pass. Visiting u in ascending order meets the
  // lower neighbours of every v in ascending order too, so one cursor per
  // node walks v's list in step: each arc (u, v) with u < v must find u
  // next under v's cursor, and by v's own turn its cursor must have passed
  // every neighbour below v. `last` starts at -1 so the first (absolute)
  // id decodes like a gap.
  struct Cursor {
    uint32_t offset;  // Byte offset of the next undecoded id.
    uint32_t last;    // The id before it.
  };
  std::vector<Cursor> cursors(n);
  for (size_t u = 0; u < n; ++u) {
    uint32_t degree = 0;
    const uint8_t* first = graph::varint::Decode(encoded + offsets[u], &degree);
    cursors[u] = {static_cast<uint32_t>(first - encoded), UINT32_MAX};
  }
  // The id under v's cursor (n past the end of v's list), with the offset
  // just past it in `*next`.
  auto peek = [&](size_t v, uint32_t* next) -> uint64_t {
    const Cursor& c = cursors[v];
    if (c.offset == offsets[v + 1]) return n;
    uint32_t delta = 0;
    *next = static_cast<uint32_t>(
        graph::varint::Decode(encoded + c.offset, &delta) - encoded);
    return static_cast<uint32_t>(c.last + delta + 1);
  };
  const util::Status asymmetric =
      util::Status::InvalidArgument("adjacency not symmetric");
  for (size_t u = 0; u < n; ++u) {
    uint32_t next = 0;
    // A neighbour below u that no lower node matched did not list u.
    if (peek(u, &next) < u) return asymmetric;
    uint32_t degree = 0;
    const uint8_t* first = graph::varint::Decode(encoded + offsets[u], &degree);
    for (graph::NodeId v : graph::NeighborRange(first, degree)) {
      if (v < u) continue;
      if (peek(v, &next) != u) return asymmetric;
      cursors[v] = {next, static_cast<uint32_t>(u)};
    }
  }
  return util::Status::Ok();
}

}  // namespace

util::Status SaveGraph(const std::string& path, const graph::Graph& graph) {
  File file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return util::Status::Unavailable("cannot open " + path + " for writing");
  }
  const size_t n = graph.num_nodes();
  const uint64_t encoded_bytes = n > 0 ? graph.offsets()[n] : 0;
  if (std::fwrite(kMagic, sizeof(kMagic), 1, file.get()) != 1 ||
      !WriteValue(file.get(), kVersion) ||
      !WriteValue(file.get(), static_cast<uint64_t>(n)) ||
      !WriteValue(file.get(), static_cast<uint64_t>(graph.num_edges())) ||
      !WriteValue(file.get(), graph.min_degree()) ||
      !WriteValue(file.get(), graph.max_degree()) ||
      !WriteValue(file.get(), encoded_bytes)) {
    return util::Status::Internal("short write on graph header");
  }
  if (n > 0) {
    if (std::fwrite(graph.offsets(), sizeof(uint32_t), n + 1, file.get()) !=
        n + 1) {
      return util::Status::Internal("short write on offset table");
    }
    if (encoded_bytes > 0 &&
        std::fwrite(graph.encoded_bytes(), 1, encoded_bytes, file.get()) !=
            encoded_bytes) {
      return util::Status::Internal("short write on adjacency stream");
    }
  }
  if (std::fflush(file.get()) != 0) {
    return util::Status::Internal("flush failed for " + path);
  }
  return util::Status::Ok();
}

util::Result<graph::Graph> OpenMappedGraph(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return util::Status::NotFound("cannot open " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return util::Status::Unavailable("cannot stat " + path);
  }
  const auto file_size = static_cast<size_t>(st.st_size);
  if (file_size < kHeaderBytes) {
    ::close(fd);
    return util::Status::InvalidArgument(path + " is not a p2paqp graph");
  }
  void* base = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping holds its own reference.
  if (base == MAP_FAILED) {
    return util::Status::Unavailable("mmap failed for " + path);
  }
  auto mapping = std::make_shared<MappedFile>(base, file_size);

  const uint8_t* p = mapping->data();
  if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
    return util::Status::InvalidArgument(path + " is not a p2paqp graph");
  }
  uint32_t version;
  uint64_t num_nodes, num_edges, encoded_bytes;
  uint32_t min_degree, max_degree;
  std::memcpy(&version, p + 4, sizeof(version));
  std::memcpy(&num_nodes, p + 8, sizeof(num_nodes));
  std::memcpy(&num_edges, p + 16, sizeof(num_edges));
  std::memcpy(&min_degree, p + 24, sizeof(min_degree));
  std::memcpy(&max_degree, p + 28, sizeof(max_degree));
  std::memcpy(&encoded_bytes, p + 32, sizeof(encoded_bytes));
  if (version != kVersion) {
    return util::Status::InvalidArgument("unsupported graph version");
  }
  if (num_nodes == 0 || num_nodes > (uint64_t{1} << 32)) {
    return util::Status::InvalidArgument("implausible node count");
  }
  const size_t offsets_bytes = (num_nodes + 1) * sizeof(uint32_t);
  if (file_size != kHeaderBytes + offsets_bytes + encoded_bytes) {
    return util::Status::InvalidArgument("truncated graph file");
  }
  const auto* offsets =
      reinterpret_cast<const uint32_t*>(p + kHeaderBytes);
  if (offsets[0] != 0 || offsets[num_nodes] != encoded_bytes) {
    return util::Status::InvalidArgument("corrupt offset table seal");
  }
  const uint8_t* encoded = p + kHeaderBytes + offsets_bytes;
  util::Status valid =
      ValidateCsr(static_cast<size_t>(num_nodes), num_edges, min_degree,
                  max_degree, offsets, encoded);
  if (!valid.ok()) return valid;
  return graph::Graph(static_cast<size_t>(num_nodes),
                      static_cast<size_t>(num_edges), min_degree, max_degree,
                      encoded, offsets, std::move(mapping));
}

uint64_t PrefaultGraph(const graph::Graph& graph) {
  constexpr size_t kPage = 4096;
  const size_t n = graph.num_nodes();
  if (n == 0) return 0;
  const auto* offsets_bytes =
      reinterpret_cast<const uint8_t*>(graph.offsets());
  const size_t offsets_size = (n + 1) * sizeof(uint32_t);
  const uint8_t* encoded = graph.encoded_bytes();
  const size_t encoded_size = graph.offsets()[n];
  // One byte per page, summed per lane; the serial reduction keeps the
  // checksum independent of the thread count (the parallel contract).
  auto touch = [](const uint8_t* base, size_t size) {
    const size_t pages = (size + kPage - 1) / kPage;
    auto sums = util::ParallelMap(
        pages,
        [base, size](size_t p) {
          return static_cast<uint64_t>(base[std::min(p * kPage, size - 1)]);
        },
        {.threads = 0, .partition = util::Partition::kStatic});
    return std::accumulate(sums.begin(), sums.end(), uint64_t{0});
  };
  uint64_t sum = touch(offsets_bytes, offsets_size);
  if (encoded_size > 0) sum += touch(encoded, encoded_size);
  return sum;
}

}  // namespace p2paqp::io
