#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "simrank/reads.h"
#include "util/rng.h"

namespace crashsim {
namespace {

ReadsOptions Options(int r = 50, uint64_t seed = 42) {
  ReadsOptions opt;
  opt.r = r;
  opt.seed = seed;
  return opt;
}

TEST(ReadsPersistenceTest, SaveLoadRoundTripPreservesScores) {
  Rng rng(1);
  const Graph g = ErdosRenyi(40, 160, false, &rng);
  Reads original(Options());
  original.Bind(&g);
  const auto scores_before = original.SingleSource(3);

  std::stringstream buffer;
  original.SaveIndex(buffer);

  // A fresh instance with a different seed would normally produce different
  // scores; loading the index must restore the exact sampled forests.
  Reads restored(Options(50, /*seed=*/999));
  restored.Bind(&g);
  std::string error;
  ASSERT_TRUE(restored.LoadIndex(buffer, &error)) << error;
  // Query-time r_q walks draw fresh randomness, so compare with r_q = 0.
  ReadsOptions no_rq = Options();
  no_rq.r_q = 0;
  Reads a(no_rq);
  Reads b(no_rq);
  a.Bind(&g);
  std::stringstream buffer2;
  a.SaveIndex(buffer2);
  b.Bind(&g);
  ASSERT_TRUE(b.LoadIndex(buffer2, &error)) << error;
  EXPECT_EQ(a.SingleSource(3), b.SingleSource(3));
  (void)scores_before;
}

TEST(ReadsPersistenceTest, RejectsBadMagic) {
  const Graph g = PaperExampleGraph();
  Reads reads(Options());
  reads.Bind(&g);
  std::stringstream buffer("this is not an index");
  std::string error;
  EXPECT_FALSE(reads.LoadIndex(buffer, &error));
  EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(ReadsPersistenceTest, RejectsShapeMismatch) {
  const Graph g1 = PaperExampleGraph();
  Reads small(Options());
  small.Bind(&g1);
  std::stringstream buffer;
  small.SaveIndex(buffer);

  Rng rng(2);
  const Graph g2 = ErdosRenyi(20, 60, false, &rng);
  Reads other(Options());
  other.Bind(&g2);
  std::string error;
  EXPECT_FALSE(other.LoadIndex(buffer, &error));
  EXPECT_NE(error.find("mismatch"), std::string::npos);
}

TEST(ReadsPersistenceTest, RejectsDifferentR) {
  const Graph g = PaperExampleGraph();
  Reads r50(Options(50));
  r50.Bind(&g);
  std::stringstream buffer;
  r50.SaveIndex(buffer);
  Reads r100(Options(100));
  r100.Bind(&g);
  std::string error;
  EXPECT_FALSE(r100.LoadIndex(buffer, &error));
}

TEST(ReadsPersistenceTest, RejectsTruncatedBody) {
  const Graph g = PaperExampleGraph();
  Reads reads(Options());
  reads.Bind(&g);
  std::stringstream buffer;
  reads.SaveIndex(buffer);
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream truncated(bytes);
  std::string error;
  Reads other(Options());
  other.Bind(&g);
  EXPECT_FALSE(other.LoadIndex(truncated, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos);
  // The failed load must not have corrupted the usable index.
  const auto scores = other.SingleSource(0);
  EXPECT_DOUBLE_EQ(scores[0], 1.0);
}

TEST(ReadsPersistenceTest, RejectsNonPositiveWalkLengthInHeader) {
  const Graph g = PaperExampleGraph();
  Reads reads(Options());
  reads.Bind(&g);
  std::stringstream buffer;
  reads.SaveIndex(buffer);
  const std::string original = buffer.str();
  // Header: magic, version, r, t, n; t sits at byte offset 12.
  for (const int32_t t : {0, -1}) {
    SCOPED_TRACE("t = " + std::to_string(t));
    std::string bytes = original;
    std::memcpy(bytes.data() + 12, &t, sizeof(t));
    std::stringstream crafted(bytes);
    std::string error;
    EXPECT_FALSE(reads.LoadIndex(crafted, &error));
    EXPECT_NE(error.find("header"), std::string::npos) << error;
    // The rejected load left the instance as it was.
    std::stringstream after;
    reads.SaveIndex(after);
    EXPECT_EQ(after.str(), original);
  }
  EXPECT_DOUBLE_EQ(reads.SingleSource(0)[0], 1.0);
}

TEST(ReadsPersistenceTest, LoadedIndexSupportsDeltas) {
  Rng rng(3);
  const Graph g = ErdosRenyi(30, 120, false, &rng);
  Reads reads(Options());
  reads.Bind(&g);
  std::stringstream buffer;
  reads.SaveIndex(buffer);
  Reads restored(Options());
  restored.Bind(&g);
  std::string error;
  ASSERT_TRUE(restored.LoadIndex(buffer, &error)) << error;
  // Apply a delta on top of the loaded index.
  EdgeDelta delta;
  delta.added = {{0, 29}};
  std::vector<Edge> edges = g.Edges();
  edges.push_back({0, 29});
  std::sort(edges.begin(), edges.end());
  const Graph g2 = BuildGraph(30, edges);
  restored.ApplyDelta(delta, &g2);
  const auto scores = restored.SingleSource(1);
  EXPECT_EQ(scores.size(), 30u);
}

}  // namespace
}  // namespace crashsim
