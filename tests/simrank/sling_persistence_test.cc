#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "simrank/sling.h"
#include "util/rng.h"

namespace crashsim {
namespace {

SimRankOptions Options(uint64_t seed = 42) {
  SimRankOptions opt;
  opt.seed = seed;
  return opt;
}

TEST(SlingPersistenceTest, RoundTripReproducesScoresExactly) {
  Rng rng(1);
  const Graph g = ErdosRenyi(50, 200, false, &rng);
  Sling original(Options());
  original.Bind(&g);
  const auto scores = original.SingleSource(5);

  std::stringstream buffer;
  original.SaveIndex(buffer);

  // Different seed would give different d(w); the load restores the original
  // index, so queries match bit-for-bit (SLING queries draw no randomness).
  Sling restored(Options(1234));
  restored.Bind(&g);
  std::string error;
  ASSERT_TRUE(restored.LoadIndex(buffer, &error)) << error;
  EXPECT_EQ(restored.SingleSource(5), scores);
  EXPECT_EQ(restored.index_stats().reverse_entries,
            original.index_stats().reverse_entries);
}

TEST(SlingPersistenceTest, RejectsBadMagic) {
  const Graph g = PaperExampleGraph();
  Sling sling(Options());
  sling.Bind(&g);
  std::stringstream buffer("garbage bytes here");
  std::string error;
  EXPECT_FALSE(sling.LoadIndex(buffer, &error));
  EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(SlingPersistenceTest, RejectsNodeCountMismatch) {
  const Graph g1 = PaperExampleGraph();
  Sling a(Options());
  a.Bind(&g1);
  std::stringstream buffer;
  a.SaveIndex(buffer);

  const Graph g2 = CycleGraph(5, false);
  Sling b(Options());
  b.Bind(&g2);
  std::string error;
  EXPECT_FALSE(b.LoadIndex(buffer, &error));
  EXPECT_NE(error.find("mismatch"), std::string::npos);
}

TEST(SlingPersistenceTest, RejectsTruncatedStreamAndKeepsIndexUsable) {
  Rng rng(2);
  const Graph g = ErdosRenyi(30, 120, false, &rng);
  Sling sling(Options());
  sling.Bind(&g);
  std::stringstream buffer;
  sling.SaveIndex(buffer);
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() * 3 / 4);
  std::stringstream truncated(bytes);

  Sling other(Options(7));
  other.Bind(&g);
  const auto before = other.SingleSource(3);
  std::string error;
  EXPECT_FALSE(other.LoadIndex(truncated, &error));
  // Failed load leaves the previously built index intact.
  EXPECT_EQ(other.SingleSource(3), before);
}

TEST(SlingPersistenceTest, RejectsOutOfRangeDepthOrThresholdInHeader) {
  Rng rng(3);
  const Graph g = ErdosRenyi(30, 120, false, &rng);
  Sling sling(Options());
  sling.Bind(&g);
  std::stringstream buffer;
  sling.SaveIndex(buffer);
  const std::string original = buffer.str();
  const auto before = sling.SingleSource(3);
  // Header: magic, version, n, depth (offset 12), threshold (offset 16).
  struct Crafted {
    int32_t depth;
    double threshold;
  };
  const double valid_threshold = 1e-4;
  for (const Crafted& c :
       {Crafted{0, valid_threshold}, Crafted{-1, valid_threshold},
        Crafted{4, 0.0}, Crafted{4, -1.0},
        Crafted{4, std::numeric_limits<double>::quiet_NaN()},
        Crafted{4, std::numeric_limits<double>::infinity()}}) {
    SCOPED_TRACE("depth " + std::to_string(c.depth) + " threshold " +
                 std::to_string(c.threshold));
    std::string bytes = original;
    std::memcpy(bytes.data() + 12, &c.depth, sizeof(c.depth));
    std::memcpy(bytes.data() + 16, &c.threshold, sizeof(c.threshold));
    std::stringstream crafted(bytes);
    std::string error;
    EXPECT_FALSE(sling.LoadIndex(crafted, &error));
    EXPECT_NE(error.find("header"), std::string::npos) << error;
    // The rejected load left the instance as it was.
    std::stringstream after;
    sling.SaveIndex(after);
    EXPECT_EQ(after.str(), original);
  }
  EXPECT_EQ(sling.SingleSource(3), before);
}

}  // namespace
}  // namespace crashsim
