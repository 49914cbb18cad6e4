// The out-of-core graph builder spills its edge runs through std::tmpfile,
// which glibc always places in /tmp. The benchmark reads and writes only
// inside its own checkout, so this definition, linked into the benchmark
// binary ahead of libc, creates the same kind of unlinked temporary file in
// the directory named by P2PAQP_PERFBENCH_SCRATCH instead.
#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

#include "worlds.h"

namespace {

size_t g_spill_files = 0;

}  // namespace

extern "C" FILE* tmpfile(void) {
  const char* dir = std::getenv("P2PAQP_PERFBENCH_SCRATCH");
  std::string path = std::string(dir != nullptr ? dir : ".") + "/spill-XXXXXX";
  const int fd = ::mkstemp(path.data());
  if (fd < 0) return nullptr;
  ::unlink(path.c_str());
  FILE* file = ::fdopen(fd, "w+b");
  if (file == nullptr) {
    ::close(fd);
    return nullptr;
  }
  ++g_spill_files;
  return file;
}

namespace p2paqp::perfbench {

size_t SpillFilesCreated() { return g_spill_files; }

}  // namespace p2paqp::perfbench
