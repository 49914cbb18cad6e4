#include "pace.h"

#include <algorithm>
#include <chrono>

#if defined(__x86_64__) || defined(__i386__)
#include <emmintrin.h>
#endif

namespace p2paqp::perfbench {
namespace {

constexpr size_t kBufferWords = (1u << 20) / sizeof(uint32_t);
constexpr size_t kSliceOps = 16384;
// One word per 64-byte line.
constexpr size_t kLineWords = 64 / sizeof(uint32_t);

// Keeps the kernel's loads and stores from being optimised away.
volatile uint64_t g_sink = 0;

double Median(std::vector<double> values) {
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

void Flush(std::vector<uint32_t>& buffer) {
#if defined(__x86_64__) || defined(__i386__)
  for (size_t i = 0; i < buffer.size(); i += kLineWords) {
    _mm_clflush(&buffer[i]);
  }
  _mm_mfence();
#else
  // Without a cache-line flush the slice starts from whatever the caches
  // hold; pacing is then only as steady as that state.
  (void)buffer;
#endif
}

}  // namespace

Pace::Pace() : buffer_(kBufferWords, 1) {}

double Pace::Slice() {
  Flush(buffer_);
  const auto start = std::chrono::steady_clock::now();
  uint64_t x = state_;
  uint64_t sum = 0;
  for (size_t i = 0; i < kSliceOps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    sum += buffer_[(x >> 33) & (kBufferWords - 1)]++;
  }
  const auto end = std::chrono::steady_clock::now();
  state_ = x;
  g_sink = sum;
  return std::chrono::duration<double>(end - start).count();
}

double Paced(double wall_s, std::vector<double> slices) {
  return wall_s * kNominalSliceS / Median(std::move(slices));
}

std::vector<double> PacedTimes(const std::vector<double>& walls,
                               const std::vector<double>& slices,
                               size_t every, size_t radius) {
  std::vector<double> paced;
  paced.reserve(walls.size());
  for (size_t i = 0; i < walls.size(); ++i) {
    const size_t at = i / every;
    const size_t lo = at >= radius ? at - radius : 0;
    const size_t hi = std::min(slices.size(), at + radius + 1);
    paced.push_back(Paced(
        walls[i], std::vector<double>(slices.begin() + lo, slices.begin() + hi)));
  }
  return paced;
}

}  // namespace p2paqp::perfbench
