#include "util/numa.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "util/env.h"
#include "util/logging.h"

#ifdef P2PAQP_HAVE_LIBNUMA
#include <numa.h>
#endif

namespace p2paqp::util {

namespace {

size_t HardwareCpus() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

// Parses a sysfs cpulist ("0-3,8,10-11") into sorted CPU ids. Returns an
// empty vector on malformed input (the caller falls back).
std::vector<int> ParseCpuList(const std::string& text) {
  std::vector<int> cpus;
  size_t pos = 0;
  while (pos < text.size()) {
    char* end = nullptr;
    long lo = std::strtol(text.c_str() + pos, &end, 10);
    if (end == text.c_str() + pos || lo < 0) return {};
    long hi = lo;
    pos = static_cast<size_t>(end - text.c_str());
    if (pos < text.size() && text[pos] == '-') {
      ++pos;
      hi = std::strtol(text.c_str() + pos, &end, 10);
      if (end == text.c_str() + pos || hi < lo) return {};
      pos = static_cast<size_t>(end - text.c_str());
    }
    for (long c = lo; c <= hi; ++c) cpus.push_back(static_cast<int>(c));
    if (pos < text.size()) {
      if (text[pos] != ',') break;  // Trailing newline/whitespace.
      ++pos;
    }
  }
  std::sort(cpus.begin(), cpus.end());
  return cpus;
}

#ifdef P2PAQP_HAVE_LIBNUMA
bool ProbeLibnuma(std::vector<NumaTopology::Node>* nodes) {
  if (numa_available() < 0) return false;
  int max_node = numa_max_node();
  int max_cpu = numa_num_configured_cpus();
  for (int n = 0; n <= max_node; ++n) {
    NumaTopology::Node node;
    node.id = n;
    for (int c = 0; c < max_cpu; ++c) {
      if (numa_node_of_cpu(c) == n) node.cpus.push_back(c);
    }
    if (!node.cpus.empty()) nodes->push_back(std::move(node));
  }
  return !nodes->empty();
}
#endif

bool ProbeSysfs(std::vector<NumaTopology::Node>* nodes) {
#ifdef __linux__
  for (int n = 0;; ++n) {
    char path[96];
    std::snprintf(path, sizeof(path),
                  "/sys/devices/system/node/node%d/cpulist", n);
    std::FILE* file = std::fopen(path, "r");
    if (file == nullptr) break;
    char buffer[4096];
    size_t got = std::fread(buffer, 1, sizeof(buffer) - 1, file);
    std::fclose(file);
    buffer[got] = '\0';
    NumaTopology::Node node;
    node.id = n;
    node.cpus = ParseCpuList(buffer);
    // Memory-only nodes (no CPUs) exist; skip them — lanes cannot run there.
    if (!node.cpus.empty()) nodes->push_back(std::move(node));
  }
  return !nodes->empty();
#else
  (void)nodes;
  return false;
#endif
}

NumaTopology ProbeTopology() {
  std::vector<NumaTopology::Node> nodes;
#ifdef P2PAQP_HAVE_LIBNUMA
  if (ProbeLibnuma(&nodes)) return NumaTopology::FromNodes(std::move(nodes));
#endif
  if (ProbeSysfs(&nodes)) return NumaTopology::FromNodes(std::move(nodes));
  return NumaTopology::SingleNode(HardwareCpus());
}

}  // namespace

NumaTopology NumaTopology::FromNodes(std::vector<Node> nodes) {
  P2PAQP_CHECK(!nodes.empty());
  NumaTopology topo;
  topo.num_cpus_ = 0;
  for (const Node& node : nodes) {
    P2PAQP_CHECK(!node.cpus.empty());
    topo.num_cpus_ += node.cpus.size();
  }
  topo.nodes_ = std::move(nodes);
  return topo;
}

NumaTopology NumaTopology::SingleNode(size_t num_cpus) {
  if (num_cpus == 0) num_cpus = 1;
  NumaTopology topo;
  Node node;
  node.id = 0;
  node.cpus.reserve(num_cpus);
  for (size_t c = 0; c < num_cpus; ++c) node.cpus.push_back(static_cast<int>(c));
  topo.nodes_.push_back(std::move(node));
  topo.num_cpus_ = num_cpus;
  return topo;
}

const NumaTopology& NumaTopology::Probed() {
  static const NumaTopology topo = ProbeTopology();
  return topo;
}

const NumaTopology& NumaTopology::Effective() {
  static const NumaTopology single = SingleNode(HardwareCpus());
  if (EnvWholeNumber("P2PAQP_NUMA") == 0) return single;
  return Probed();
}

size_t NumaTopology::NodeOfLane(size_t lane, size_t lanes) const {
  P2PAQP_DCHECK(lane < lanes);
  const size_t n = nodes_.size();
  if (n <= 1) return 0;
  // Invert the contiguous block partition: lane l belongs to the node k
  // with k*lanes/n <= l < (k+1)*lanes/n.
  size_t node = (lane * n) / lanes;
  while (node + 1 < n && (node + 1) * lanes / n <= lane) ++node;
  while (node > 0 && node * lanes / n > lane) --node;
  return node;
}

int NumaTopology::CpuOfLane(size_t lane, size_t lanes) const {
  const size_t node = NodeOfLane(lane, lanes);
  const Node& home = nodes_[node];
  const size_t group_first = node * lanes / nodes_.size();
  const size_t within = lane - group_first;
  return home.cpus[within % home.cpus.size()];
}

bool NumaPlacementEnabled() {
  if (EnvWholeNumber("P2PAQP_NUMA") == 0) return false;
  return NumaTopology::Probed().multi_node();
}

}  // namespace p2paqp::util
