// Replays the checked-in corpus of shrunk chaos-plan counterexamples
// (tests/corpus/*.plan) as fast tier-1 regressions: every plan that once
// exposed a bug — or that exercises a hand-picked stressor combination —
// must now pass every oracle. Each .plan file holds one serialized plan
// line per row; '#' lines are comments.
//
// The corpus directory is baked in at compile time (P2PAQP_CORPUS_DIR) so
// the test runs from any working directory.
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "verify/protocol/chaos_plan.h"
#include "verify/protocol/runner.h"

#ifndef P2PAQP_CORPUS_DIR
#error "P2PAQP_CORPUS_DIR must be defined by the build"
#endif

namespace p2paqp {
namespace {

struct CorpusEntry {
  std::string file;
  std::string line;
};

std::vector<CorpusEntry> LoadCorpus() {
  std::vector<CorpusEntry> entries;
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(P2PAQP_CORPUS_DIR)) {
    if (entry.path().extension() == ".plan") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      entries.push_back({path.filename().string(), line});
    }
  }
  return entries;
}

TEST(ProtocolCorpusTest, CorpusIsNonEmpty) {
  EXPECT_GE(LoadCorpus().size(), 3u)
      << "corpus at " << P2PAQP_CORPUS_DIR << " looks empty";
}

TEST(ProtocolCorpusTest, EveryCorpusPlanPassesAllOracles) {
  for (const CorpusEntry& entry : LoadCorpus()) {
    auto plan = verify::ParseChaosPlan(entry.line);
    ASSERT_TRUE(plan.ok()) << entry.file << ": unparseable line '"
                           << entry.line
                           << "': " << plan.status().message();
    verify::ChaosRunReport report = verify::RunChaosPlan(*plan);
    std::string dump;
    for (const std::string& v : report.violations) dump += "\n  " + v;
    EXPECT_TRUE(report.violations.empty())
        << entry.file << ": " << entry.line << dump;
    // A plan that churns must still reach churn on whatever stream the
    // churn model draws, or its digest guards nothing about churn.
    if (plan->churn_enabled()) {
      EXPECT_GT(report.churn_transitions, 0u)
          << entry.file << ": churn never flipped a peer: " << entry.line;
    }
  }
}

TEST(ProtocolCorpusTest, CorpusLinesRoundTrip) {
  for (const CorpusEntry& entry : LoadCorpus()) {
    auto plan = verify::ParseChaosPlan(entry.line);
    ASSERT_TRUE(plan.ok()) << entry.file << ": " << entry.line;
    EXPECT_EQ(verify::SerializeChaosPlan(*plan), entry.line) << entry.file;
  }
}

}  // namespace
}  // namespace p2paqp
