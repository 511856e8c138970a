#include "graph/temporal_graph.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"

namespace crashsim {
namespace {

TemporalGraph ThreeSnapshots() {
  // t0: 0->1, 1->2 ; t1: drop 1->2, add 2->0 ; t2: add 1->2 back.
  TemporalGraphBuilder b(3);
  b.AddSnapshot({{0, 1}, {1, 2}});
  b.AddSnapshot({{0, 1}, {2, 0}});
  b.AddSnapshot({{0, 1}, {2, 0}, {1, 2}});
  return b.Build();
}

TEST(TemporalGraphTest, SnapshotCountAndNodes) {
  const TemporalGraph tg = ThreeSnapshots();
  EXPECT_EQ(tg.num_snapshots(), 3);
  EXPECT_EQ(tg.num_nodes(), 3);
}

TEST(TemporalGraphTest, DeltasEncodeDifferences) {
  const TemporalGraph tg = ThreeSnapshots();
  EXPECT_EQ(tg.Delta(0).added.size(), 2u);
  EXPECT_TRUE(tg.Delta(0).removed.empty());
  EXPECT_EQ(tg.Delta(1).added, (std::vector<Edge>{{2, 0}}));
  EXPECT_EQ(tg.Delta(1).removed, (std::vector<Edge>{{1, 2}}));
  EXPECT_EQ(tg.Delta(2).added, (std::vector<Edge>{{1, 2}}));
  EXPECT_TRUE(tg.Delta(2).removed.empty());
}

TEST(TemporalGraphTest, SnapshotMaterialisation) {
  const TemporalGraph tg = ThreeSnapshots();
  const Graph g0 = tg.Snapshot(0);
  EXPECT_TRUE(g0.HasEdge(1, 2));
  EXPECT_FALSE(g0.HasEdge(2, 0));
  const Graph g1 = tg.Snapshot(1);
  EXPECT_FALSE(g1.HasEdge(1, 2));
  EXPECT_TRUE(g1.HasEdge(2, 0));
  const Graph g2 = tg.Snapshot(2);
  EXPECT_TRUE(g2.HasEdge(1, 2));
  EXPECT_TRUE(g2.HasEdge(2, 0));
  EXPECT_TRUE(g2.HasEdge(0, 1));
}

TEST(TemporalGraphTest, EdgeCountPerSnapshotMatchesMaterialisation) {
  const TemporalGraph tg = ThreeSnapshots();
  for (int t = 0; t < tg.num_snapshots(); ++t) {
    EXPECT_EQ(tg.num_edges(t), tg.Snapshot(t).num_edges()) << "snapshot " << t;
  }
  EXPECT_EQ(tg.num_edges(2), 3);
}

TEST(TemporalGraphTest, TotalEvents) {
  const TemporalGraph tg = ThreeSnapshots();
  EXPECT_EQ(tg.TotalEvents(), 2 + 2 + 1);
}

TEST(TemporalGraphBuilderTest, DuplicateAndSelfLoopNormalisation) {
  TemporalGraphBuilder b(3);
  b.AddSnapshot({{0, 1}, {0, 1}, {2, 2}});
  const TemporalGraph tg = b.Build();
  EXPECT_EQ(tg.SnapshotEdges(0), (std::vector<Edge>{{0, 1}}));
}

TEST(TemporalGraphBuilderTest, UndirectedSymmetrisesEverySnapshot) {
  TemporalGraphBuilder b(3, /*undirected=*/true);
  b.AddSnapshot({{0, 1}});
  b.AddSnapshot({{0, 1}, {1, 2}});
  const TemporalGraph tg = b.Build();
  const Graph g1 = tg.Snapshot(1);
  EXPECT_TRUE(g1.HasEdge(1, 2));
  EXPECT_TRUE(g1.HasEdge(2, 1));
  // Delta carries both orientations.
  EXPECT_EQ(tg.Delta(1).added.size(), 2u);
}

TEST(TemporalGraphBuilderTest, AddDeltaForm) {
  TemporalGraphBuilder b(4);
  b.AddSnapshot({{0, 1}, {1, 2}});
  b.AddDelta(/*added=*/{{2, 3}}, /*removed=*/{{0, 1}});
  const TemporalGraph tg = b.Build();
  const Graph g1 = tg.Snapshot(1);
  EXPECT_FALSE(g1.HasEdge(0, 1));
  EXPECT_TRUE(g1.HasEdge(2, 3));
  EXPECT_TRUE(g1.HasEdge(1, 2));
}

TEST(TemporalGraphBuilderTest, AddDeltaIgnoresNoOps) {
  TemporalGraphBuilder b(3);
  b.AddSnapshot({{0, 1}});
  // Adding an existing edge and removing a missing one are no-ops.
  b.AddDelta({{0, 1}}, {{1, 2}});
  const TemporalGraph tg = b.Build();
  EXPECT_TRUE(tg.Delta(1).Empty());
}

TEST(SnapshotCursorTest, WalksAllSnapshots) {
  const TemporalGraph tg = ThreeSnapshots();
  SnapshotCursor cursor(&tg);
  EXPECT_EQ(cursor.snapshot_index(), 0);
  EXPECT_TRUE(cursor.graph() == tg.Snapshot(0));
  ASSERT_TRUE(cursor.Advance());
  EXPECT_TRUE(cursor.graph() == tg.Snapshot(1));
  ASSERT_TRUE(cursor.Advance());
  EXPECT_TRUE(cursor.graph() == tg.Snapshot(2));
  EXPECT_FALSE(cursor.Advance());
  EXPECT_EQ(cursor.snapshot_index(), 2);
}

TEST(SnapshotCursorTest, GraphAddressStableAcrossAdvance) {
  const TemporalGraph tg = ThreeSnapshots();
  SnapshotCursor cursor(&tg);
  const Graph* addr = &cursor.graph();
  cursor.Advance();
  EXPECT_EQ(addr, &cursor.graph());
}

}  // namespace
}  // namespace crashsim
