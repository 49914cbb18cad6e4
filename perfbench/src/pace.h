// Pace: a fixed reference kernel timed next to the program, so the
// benchmark's timing metrics read at one nominal host speed.
//
// On a shared host the memory system's speed drifts by 20% and more over
// seconds to minutes as neighbours load it, and query and set-up times
// drift with it. A slice of the reference kernel slows down with the same
// contention: it flushes its own 1 MiB buffer from every cache level, then
// times a fixed run of random read-modify-writes over it, so each slice
// starts from the same state whatever the program did before it. Each
// timed interval is scaled by kNominalSliceS over the median of the slices
// measured around it: a change in the program moves the paced figure as it
// moves the wall time, while the host's drift cancels.
#ifndef P2PAQP_PERFBENCH_PACE_H_
#define P2PAQP_PERFBENCH_PACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace p2paqp::perfbench {

// The slice time paced figures are scaled to: about one slice's time on a
// 4-vCPU Xeon VM (2 MiB L2, 105 MiB shared L3), so that paced and wall
// figures read alike there.
constexpr double kNominalSliceS = 200e-6;

class Pace {
 public:
  Pace();

  // Flushes the buffer, then times one slice of the kernel; seconds.
  double Slice();

 private:
  std::vector<uint32_t> buffer_;
  uint64_t state_ = 1;
};

// Scales `wall_s` by kNominalSliceS over the median of `slices`, the
// slices measured around it.
double Paced(double wall_s, std::vector<double> slices);

// Scales walls[i] by kNominalSliceS over the median of the slices within
// `radius` of slices[i / every]; a slice ran right before every `every`-th
// interval.
std::vector<double> PacedTimes(const std::vector<double>& walls,
                               const std::vector<double>& slices,
                               size_t every, size_t radius);

}  // namespace p2paqp::perfbench

#endif  // P2PAQP_PERFBENCH_PACE_H_
