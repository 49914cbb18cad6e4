// World construction for the benchmark, one timed stage at a time.
//
// The stages are the calls a deployment makes before its first query:
// topology generation, data generation, data partitioning,
// SimulatedNetwork::Make and the adjacency prefault. Each is timed from the
// benchmark's side of the call, so a traced run can report them as the
// per-layer set-up costs.
#ifndef P2PAQP_PERFBENCH_WORLDS_H_
#define P2PAQP_PERFBENCH_WORLDS_H_

#include <cstddef>
#include <cstdint>

#include "harness.h"

namespace p2paqp::perfbench {

enum class TopologyKind { kPowerLaw, kGnutella, kSuperPeer };

// The paper's data knobs (Sec. 5.2): cluster level CL and Zipf skew Z.
inline constexpr double kClusterLevel = 0.25;
inline constexpr double kZipfSkew = 0.2;

struct WorldSpec {
  TopologyKind kind = TopologyKind::kPowerLaw;
  size_t peers = 0;
  size_t edges = 0;  // Power-law and Gnutella only.
  size_t tuples_per_peer = 100;
};

// Wall seconds spent in each set-up stage (summed over every world built).
struct StageTimes {
  double topology_s = 0.0;
  double generate_s = 0.0;
  double partition_s = 0.0;
  double make_s = 0.0;
  double prefault_s = 0.0;
};

// Builds one world. The power-law and Gnutella worlds repeat
// bench::BuildWorld's draw order and seed, so they are the worlds behind the
// paper's figures. Aborts on a generator error.
bench::World BuildWorld(const WorldSpec& spec, StageTimes* times);

// Spill files the out-of-core builder has opened in this process (see
// spill_file.cc); nonzero proves a world was built through the spill path.
size_t SpillFilesCreated();

}  // namespace p2paqp::perfbench

#endif  // P2PAQP_PERFBENCH_WORLDS_H_
