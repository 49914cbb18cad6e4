// Strict P2PAQP_* knob parsing (util/env.h): every value the CI workflow,
// the docs, the NUMA tests and the benchmark set still parses, and each
// malformed form aborts naming the variable instead of silently running a
// different configuration.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "graph/builder.h"
#include "util/env.h"
#include "util/numa.h"
#include "util/parallel.h"

namespace p2paqp::util {
namespace {

// Sets (or, for nullptr, unsets) one variable for the scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

constexpr const char* kKnob = "P2PAQP_ENV_TEST_KNOB";

TEST(EnvKnobTest, UnsetIsNullopt) {
  ScopedEnv unset(kKnob, nullptr);
  EXPECT_FALSE(EnvWholeNumber(kKnob).has_value());
  EXPECT_FALSE(EnvDecimal(kKnob).has_value());
}

TEST(EnvKnobTest, EveryConfiguredWholeNumberParses) {
  for (const char* value : {"0", "1", "3", "4", "8", "10", "64", "1048576",
                            "262144"}) {
    ScopedEnv knob(kKnob, value);
    ASSERT_TRUE(EnvWholeNumber(kKnob).has_value()) << value;
    EXPECT_EQ(*EnvWholeNumber(kKnob), std::stoull(value)) << value;
  }
}

TEST(EnvKnobTest, EveryConfiguredScaleParses) {
  for (const char* value : {"0.05", "0.2", "1.0", "1", "10", "2.5e-1"}) {
    ScopedEnv knob(kKnob, value);
    ASSERT_TRUE(EnvDecimal(kKnob).has_value()) << value;
    EXPECT_DOUBLE_EQ(*EnvDecimal(kKnob), std::stod(value)) << value;
  }
}

TEST(EnvKnobTest, CallersKeepTheirDefaultsAndRanges) {
  {
    // 0 threads means "all hardware threads", as before.
    ScopedEnv zero("P2PAQP_THREADS", "0");
    EXPECT_GE(ParallelThreads(), 1u);
  }
  {
    ScopedEnv four("P2PAQP_THREADS", "4");
    EXPECT_EQ(ParallelThreads(), 4u);
  }
  {
    ScopedEnv off("P2PAQP_NUMA", "0");
    EXPECT_FALSE(NumaPlacementEnabled());
  }
  {
    // A fan-in below 2 cannot merge and keeps the default.
    ScopedEnv edges("P2PAQP_BUILD_SPILL_EDGES", "1048576");
    ScopedEnv fan_in("P2PAQP_BUILD_MERGE_FAN_IN", "1");
    graph::SpillOptions spill = graph::SpillOptionsFromEnv();
    EXPECT_EQ(spill.run_edges, 1048576u);
    EXPECT_EQ(spill.merge_fan_in, graph::SpillOptions{}.merge_fan_in);
  }
}

// One death test per malformed form, each through a real reader.

TEST(EnvKnobDeathTest, TrailingGarbageAborts) {
  ScopedEnv knob("P2PAQP_THREADS", "4x");
  EXPECT_DEATH(ParallelThreads(), "P2PAQP_THREADS=\"4x\" is not a whole");
}

TEST(EnvKnobDeathTest, WordAborts) {
  ScopedEnv knob("P2PAQP_NUMA", "yes");
  EXPECT_DEATH(NumaPlacementEnabled(), "P2PAQP_NUMA=\"yes\" is not a whole");
}

TEST(EnvKnobDeathTest, DecimalCommaAborts) {
  ScopedEnv knob("P2PAQP_SCALE", "0,05");
  EXPECT_DEATH(EnvDecimal("P2PAQP_SCALE"),
               "P2PAQP_SCALE=\"0,05\" is not a decimal");
}

TEST(EnvKnobDeathTest, NegativeAborts) {
  ScopedEnv knob("P2PAQP_BUILD_SPILL_EDGES", "-1");
  EXPECT_DEATH(graph::SpillOptionsFromEnv(),
               "P2PAQP_BUILD_SPILL_EDGES=\"-1\" is not a whole");
}

TEST(EnvKnobDeathTest, LeadingSpaceAborts) {
  ScopedEnv knob("P2PAQP_BUILD_MERGE_FAN_IN", " 64");
  EXPECT_DEATH(graph::SpillOptionsFromEnv(),
               "P2PAQP_BUILD_MERGE_FAN_IN=\" 64\" is not a whole");
}

TEST(EnvKnobDeathTest, EmptyValueAborts) {
  ScopedEnv knob("P2PAQP_PIN_THREADS", "");
  EXPECT_DEATH(PinThreadsEnabled(), "P2PAQP_PIN_THREADS=\"\" is not a whole");
}

TEST(EnvKnobDeathTest, FractionForWholeNumberAborts) {
  ScopedEnv knob("P2PAQP_THREADS", "1.5");
  EXPECT_DEATH(ParallelThreads(), "P2PAQP_THREADS=\"1.5\" is not a whole");
}

TEST(EnvKnobDeathTest, WholeNumberOverflowAborts) {
  ScopedEnv knob("P2PAQP_THREADS", "18446744073709551616");
  EXPECT_DEATH(ParallelThreads(), "is not a whole number");
}

TEST(EnvKnobDeathTest, NonFiniteScaleAborts) {
  ScopedEnv knob("P2PAQP_SCALE", "1e999");
  EXPECT_DEATH(EnvDecimal("P2PAQP_SCALE"),
               "P2PAQP_SCALE=\"1e999\" is not a decimal");
}

TEST(EnvKnobDeathTest, SignedScaleAborts) {
  ScopedEnv knob("P2PAQP_SCALE", "-0.05");
  EXPECT_DEATH(EnvDecimal("P2PAQP_SCALE"),
               "P2PAQP_SCALE=\"-0.05\" is not a decimal");
}

TEST(EnvKnobDeathTest, BarePointAborts) {
  ScopedEnv knob("P2PAQP_SCALE", ".");
  EXPECT_DEATH(EnvDecimal("P2PAQP_SCALE"),
               "P2PAQP_SCALE=\".\" is not a decimal");
}

}  // namespace
}  // namespace p2paqp::util
