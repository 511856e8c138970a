#include "graph/graph_io.h"

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "testing/temp_path.h"

namespace crashsim {
namespace {

// Writes content to a test-unique temp file, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& content) : file_("io_test.txt") {
    std::ofstream out(file_.path());
    out << content;
  }
  const std::string& path() const { return file_.path(); }

 private:
  test::TempPath file_;
};

TEST(ReadEdgeListTest, ParsesWithCommentsAndBlanks) {
  std::istringstream in("# header\n1 2\n\n% other comment\n2 3\n");
  const auto edges = ReadEdgeList(in);
  ASSERT_TRUE(edges.ok()) << edges.status();
  ASSERT_EQ(edges->size(), 2u);
  EXPECT_EQ((*edges)[0], (std::pair<int64_t, int64_t>{1, 2}));
}

TEST(ReadEdgeListTest, RejectsMalformedLine) {
  std::istringstream in("1 2\nbroken\n");
  const auto edges = ReadEdgeList(in);
  ASSERT_FALSE(edges.ok());
  EXPECT_EQ(edges.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(edges.status().message().find("line 2"), std::string::npos);
}

TEST(LoadEdgeListFileTest, RemapsSparseIds) {
  TempFile f("100 7\n7 100\n100 42\n");
  const auto loaded = LoadEdgeListFile(f.path(), false);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->graph.num_nodes(), 3);
  EXPECT_EQ(loaded->graph.num_edges(), 3);
  // First-appearance order: 100 -> 0, 7 -> 1, 42 -> 2.
  ASSERT_EQ(loaded->original_ids.size(), 3u);
  EXPECT_EQ(loaded->original_ids[0], 100);
  EXPECT_EQ(loaded->original_ids[1], 7);
  EXPECT_EQ(loaded->original_ids[2], 42);
  EXPECT_TRUE(loaded->graph.HasEdge(0, 1));
  EXPECT_TRUE(loaded->graph.HasEdge(1, 0));
  EXPECT_TRUE(loaded->graph.HasEdge(0, 2));
}

TEST(LoadEdgeListFileTest, MissingFileFails) {
  const auto loaded = LoadEdgeListFile("/nonexistent/xyz.txt", false);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_NE(loaded.status().message().find("cannot open"), std::string::npos);
}

TEST(EdgeListRoundTripTest, WriteThenLoadEqualGraph) {
  Rng rng(3);
  const Graph g = ErdosRenyi(40, 100, false, &rng);
  std::ostringstream out;
  WriteEdgeList(g, out);
  TempFile f(out.str());
  const auto loaded = LoadEdgeListFile(f.path(), false);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // Ids were already dense and written in sorted order, so the graphs have
  // identical edge counts and each edge survives (possibly renumbered).
  EXPECT_EQ(loaded->graph.num_edges(), g.num_edges());
}

TEST(TemporalEdgeListTest, LoadGroupsSnapshots) {
  TempFile f(
      "# u v t\n"
      "1 2 0\n"
      "2 3 0\n"
      "1 2 5\n"  // snapshot indices need not be contiguous
      "3 4 5\n");
  const auto loaded = LoadTemporalEdgeListFile(f.path(), false);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->graph.num_snapshots(), 2);
  EXPECT_EQ(loaded->graph.num_nodes(), 4);
  const Graph g0 = loaded->graph.Snapshot(0);
  EXPECT_TRUE(g0.HasEdge(0, 1));
  EXPECT_TRUE(g0.HasEdge(1, 2));
  const Graph g1 = loaded->graph.Snapshot(1);
  EXPECT_TRUE(g1.HasEdge(0, 1));
  EXPECT_FALSE(g1.HasEdge(1, 2));
  EXPECT_TRUE(g1.HasEdge(2, 3));
}

TEST(TemporalEdgeListTest, RoundTrip) {
  TemporalGraphBuilder b(3);
  b.AddSnapshot({{0, 1}});
  b.AddSnapshot({{0, 1}, {1, 2}});
  const TemporalGraph tg = b.Build();
  std::ostringstream out;
  WriteTemporalEdgeList(tg, out);
  TempFile f(out.str());
  const auto loaded = LoadTemporalEdgeListFile(f.path(), false);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->graph.num_snapshots(), 2);
  EXPECT_EQ(loaded->graph.SnapshotEdges(1).size(), 2u);
}

TEST(TemporalEdgeListTest, EmptyFileFails) {
  TempFile f("# only comments\n");
  const auto loaded = LoadTemporalEdgeListFile(f.path(), false);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("no snapshots"), std::string::npos);
}

}  // namespace
}  // namespace crashsim
